// comm_node.hpp - TBON communication daemon programs.
//
// Two flavors of the same daemon, differing only in how they learn the
// topology - exactly the contrast the paper's STAT case study measures:
//
//  * AdHocCommNode: topology arrives hex-encoded on argv (MRNet's manual
//    topology-file mechanism), process started via rsh.
//  * LmonCommNode: launched through the LaunchMON MW API onto RM-allocated
//    middleware nodes; the topology is piggybacked on the FE<->MW-master
//    handshake and the paper notes STAT "uses LMONP to broadcast MRNet
//    communication tree information ... previously communicated through
//    less scalable methods".
#pragma once

#include <memory>

#include "cluster/process.hpp"
#include "core/mw_api.hpp"
#include "tbon/endpoint.hpp"

namespace lmon::tbon {

class AdHocCommNode : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "tbon_commd";
  }
  void on_start(cluster::Process& self) override;

  static void install(cluster::Machine& machine);

 private:
  std::unique_ptr<TbonEndpoint> endpoint_;
};

class LmonCommNode : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "tbon_commd_lmon";
  }
  void on_start(cluster::Process& self) override;

  static void install(cluster::Machine& machine);

  /// This daemon's place in the TBON; null until it joined.
  [[nodiscard]] const TbonEndpoint* endpoint() const {
    return endpoint_.get();
  }

 private:
  std::unique_ptr<core::MiddleWare> mw_;
  std::unique_ptr<TbonEndpoint> endpoint_;
};

}  // namespace lmon::tbon
