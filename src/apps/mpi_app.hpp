// mpi_app.hpp - simulated MPI application task.
//
// Stands in for the parallel application whose processes the tools target.
// Each task keeps /proc-style statistics churning (program counter, memory
// watermarks, CPU time, page faults) so that Jobsnap has realistic state to
// snapshot, and advances through a synthetic call stack that STAT samples.
//
// The churn is one tick every 50 ms of simulated time (Process::start_ticks)
// that draws only from the task's own RNG, so the state after k ticks is a
// function of k alone. Ticks therefore run when the state is read - STAT's
// call_stack(), Jobsnap's Process::stats() - not as events: a launch of
// thousands of tasks queues no per-task events while nothing looks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/process.hpp"
#include "simkernel/rng.hpp"

namespace lmon::apps {

class MpiApp : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override { return "mpi_app"; }
  void on_start(cluster::Process& self) override;
  void on_tick(cluster::ProcStats& stats) override;

  /// Current synthetic call stack (function name list, outermost first),
  /// after the ticks due by now. STAT back-end daemons read this through
  /// node-local access, the way the real tool uses a stackwalker on a
  /// stopped process.
  [[nodiscard]] const std::vector<std::string>& call_stack();
  [[nodiscard]] int rank() const { return rank_; }

  /// Installs the "mpi_app" image into a machine's program registry.
  static void install(cluster::Machine& machine);

 private:
  void rebuild_stack();

  cluster::Process* self_ = nullptr;  ///< set by on_start
  int rank_ = -1;
  int size_ = 0;
  sim::Rng rng_{0};
  static const std::vector<std::string> kNotStarted;
  const std::vector<std::string>* stack_ = &kNotStarted;
};

}  // namespace lmon::apps
