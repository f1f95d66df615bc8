// jobsnap_tbon.hpp - the TBON-based Jobsnap the paper anticipates (§5.1):
//
// "In addition, we are considering a TBON architecture that would reduce
//  the impact of collecting and printing information from each back-end
//  daemon."
//
// Instead of the flat ICCL gather (every snapshot byte converges on the
// master daemon, which formats the whole report), back ends join a TBON
// whose upstream filter merges and rank-sorts snapshot batches at every
// interior hop, so no single process ever materializes more than its
// subtree's share until the front end.
#pragma once

#include <memory>

#include "cluster/process.hpp"
#include "core/be_api.hpp"
#include "core/fe_api.hpp"
#include "tbon/endpoint.hpp"
#include "tools/jobsnap/format.hpp"

namespace lmon::tools::jobsnap {

/// TBON merge filter id for snapshot batches.
inline constexpr std::uint32_t kFilterSnapshotMerge =
    tbon::kFilterUserBase + 1;
/// Stream tag for a snapshot sweep.
inline constexpr std::uint32_t kTagSnap = 1;

void register_jobsnap_filter();

/// Back-end daemon: BE API for launch/RPDTAB, TBON (topology piggybacked on
/// the handshake) for collection.
class JobsnapTbonBe : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "jobsnap_tbe";
  }
  void on_start(cluster::Process& self) override;

  static void install(cluster::Machine& machine);

  /// This daemon's place in the TBON; null until it joined.
  [[nodiscard]] const tbon::TbonEndpoint* tbon() const { return tbon_.get(); }

 private:
  void on_snap_request(cluster::Process& self, std::uint32_t stream,
                       std::uint32_t tag);

  std::unique_ptr<core::BackEnd> be_;
  std::unique_ptr<tbon::TbonEndpoint> tbon_;
};

/// Outcome mirrors the classic JobsnapOutcome so benches can compare.
struct JobsnapTbonOutcome {
  bool done = false;
  Status status;
  std::string report;
  std::uint32_t tasks = 0;
  sim::Time t_start = 0;
  sim::Time t_spawned = 0;   ///< attachAndSpawn returned
  sim::Time t_snap_sent = 0; ///< TBON ready, snapshot sweep requested
  sim::Time t_collected = 0; ///< merged snapshots at the FE
};

class JobsnapTbonFe : public cluster::Program {
 public:
  JobsnapTbonFe(cluster::Pid launcher_pid, JobsnapTbonOutcome* out)
      : launcher_pid_(launcher_pid), out_(out) {}

  [[nodiscard]] std::string_view name() const override {
    return "jobsnap_tfe";
  }
  void on_start(cluster::Process& self) override;

 private:
  void finish(cluster::Process& self, Status st);

  cluster::Pid launcher_pid_;
  JobsnapTbonOutcome* out_;
  std::unique_ptr<core::FrontEnd> fe_;
  std::unique_ptr<tbon::TbonEndpoint> root_;
  tbon::Topology topo_;
  int sid_ = -1;
};

}  // namespace lmon::tools::jobsnap
