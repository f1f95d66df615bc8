// stat_be.hpp - STAT's stack-sampling back-end daemon.
//
// Two startup modes, matching the paper's Fig. 6 comparison:
//
//  * LaunchMON mode (argv has --lmon-*): the daemon initializes the BE API;
//    the TBON topology arrives piggybacked on the handshake ("STAT also
//    uses LMONP to broadcast MRNet communication tree information from the
//    front end to the daemons"); local tasks come from the RPDTAB.
//  * Ad hoc MRNet mode (argv has --tbon-*): topology comes hex-encoded on
//    the command line (the "less scalable method"); local tasks are found
//    by scanning the node's processes for the application image.
//
// In both modes the daemon joins the TBON as a leaf, and on a SAMPLE
// request walks each local task's stack and sends the local prefix tree
// upstream, where the STAT merge filter combines subtrees.
#pragma once

#include <memory>

#include "cluster/process.hpp"
#include "core/be_api.hpp"
#include "tbon/endpoint.hpp"
#include "tools/stat/prefix_tree.hpp"

namespace lmon::tools::stat {

/// TBON stream tag used for sample requests/responses.
inline constexpr std::uint32_t kTagSample = 1;
/// STAT's registered TBON merge filter id.
inline constexpr std::uint32_t kFilterStatMerge = tbon::kFilterUserBase;

/// Registers the STAT merge filter with the TBON filter registry.
void register_stat_filter();

class StatBe : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override { return "stat_be"; }
  void on_start(cluster::Process& self) override;

  static void install(cluster::Machine& machine);

  /// This daemon's place in the TBON; null until it joined.
  [[nodiscard]] const tbon::TbonEndpoint* tbon() const { return tbon_.get(); }

 private:
  void start_lmon(cluster::Process& self);
  void start_adhoc(cluster::Process& self);
  /// Joins the TBON the broadcast `data` describes, or says why it cannot.
  /// Every daemon views the same broadcast, so the topology is decoded once
  /// per launch.
  Status accept_topology(cluster::Process& self, const ByteSlice& data);
  void join_tbon(cluster::Process& self, tbon::Topology topo, int index);
  void on_sample_request(cluster::Process& self, std::uint32_t stream,
                         std::uint32_t tag);
  /// (host, pid, rank) triples of the tasks this daemon samples.
  [[nodiscard]] std::vector<std::pair<cluster::Pid, std::int32_t>>
  local_tasks(cluster::Process& self) const;

  std::unique_ptr<core::BackEnd> be_;        // LaunchMON mode only
  std::unique_ptr<tbon::TbonEndpoint> tbon_;
  bool adhoc_ = false;
};

}  // namespace lmon::tools::stat
