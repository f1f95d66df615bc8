#include "tbon/comm_node.hpp"

#include "cluster/machine.hpp"
#include "common/argparse.hpp"

namespace lmon::tbon {

void AdHocCommNode::on_start(cluster::Process& self) {
  const auto topo_hex = arg_value(self.args(), "--tbon-topology=");
  const auto index = arg_int(self.args(), "--tbon-index=");
  if (!topo_hex || !index) {
    self.exit(1);
    return;
  }
  auto blob = from_hex(*topo_hex);
  if (!blob) {
    self.exit(1);
    return;
  }
  auto topo = Topology::unpack(*blob);
  if (!topo || !topo->valid()) {
    self.exit(1);
    return;
  }
  TbonEndpoint::Callbacks cbs;  // pure forwarding node: default callbacks
  endpoint_ = std::make_unique<TbonEndpoint>(
      self, std::move(*topo), static_cast<int>(*index), std::move(cbs));
  endpoint_->start();
}

void AdHocCommNode::install(cluster::Machine& machine) {
  cluster::ProgramImage image;
  image.image_mb = 6.0;
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<AdHocCommNode>();
  };
  machine.install_program("tbon_commd", std::move(image));
}

void LmonCommNode::on_start(cluster::Process& self) {
  mw_ = std::make_unique<core::MiddleWare>(self);
  core::MiddleWare::Callbacks cbs;
  cbs.on_init = [this, &self](const core::Rpdtab&, const ByteSlice& usrdata,
                              std::function<void(Status)> done) {
    // The TBON topology is the piggybacked tool data, which every comm
    // daemon views in the one handshake broadcast.
    auto topo = Topology::unpack(usrdata);
    if (!topo || !topo->valid()) {
      done(Status(Rc::Ebdarg, "no topology in MW handshake"));
      return;
    }
    // MW personality handle r occupies topology slot 1+r (comm daemons are
    // laid out breadth-first after the FE root).
    const int index = 1 + static_cast<int>(mw_->rank());
    TbonEndpoint::Callbacks tcbs;
    endpoint_ = std::make_unique<TbonEndpoint>(self, std::move(*topo), index,
                                               std::move(tcbs));
    endpoint_->start();
    done(Status::ok());
  };
  const Status st = mw_->init(std::move(cbs));
  if (!st.is_ok()) self.exit(1);
}

void LmonCommNode::install(cluster::Machine& machine) {
  cluster::ProgramImage image;
  image.image_mb = 6.0;
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<LmonCommNode>();
  };
  machine.install_program("tbon_commd_lmon", std::move(image));
}

}  // namespace lmon::tbon
