// mpi_app.hpp - simulated MPI application task.
//
// Stands in for the parallel application whose processes the tools target.
// Each task keeps /proc-style statistics churning (program counter, memory
// watermarks, CPU time, page faults) so that Jobsnap has realistic state to
// snapshot, and advances through a synthetic call stack that STAT samples.
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

  /// Current synthetic call stack (function name list, outermost first).
  /// STAT back-end daemons read this through node-local access, the way the
  /// real tool uses a stackwalker on a stopped process.
  [[nodiscard]] const std::vector<std::string>& call_stack() const {
    return *stack_;
  }
  [[nodiscard]] int rank() const { return rank_; }

  /// Installs the "mpi_app" image into a machine's program registry.
  static void install(cluster::Machine& machine);

 private:
  void tick(cluster::Process& self);
  void rebuild_stack();

  int rank_ = -1;
  int size_ = 0;
  std::uint64_t ticks_ = 0;
  sim::Rng rng_{0};
  static const std::vector<std::string> kNotStarted;
  const std::vector<std::string>* stack_ = &kNotStarted;
};

}  // namespace lmon::apps
