#include "tools/stat/stat_fe.hpp"

#include "cluster/machine.hpp"
#include "tbon/comm_node.hpp"
#include "tbon/startup.hpp"

namespace lmon::tools::stat {

void StatFe::on_start(cluster::Process& self) {
  register_stat_filter();
  out_->t_start = self.sim().now();
  if (cfg_.mode == StartupMode::AdHocRsh) {
    start_adhoc(self);
  } else {
    start_lmon(self);
  }
}

// --- ad hoc (MRNet-native) path ------------------------------------------------

void StatFe::start_adhoc(cluster::Process& self) {
  if (cfg_.adhoc_hosts.empty()) {
    finish(self, Status(Rc::Einval,
                        "ad hoc mode needs a manually supplied host list"));
    return;
  }
  tbon::Topology topo;
  if (cfg_.n_colocated_comm > 0) {
    // Topology-aware placement: the comm layer rides the job nodes, so
    // each first-block child->parent hop is node-local and no middleware
    // allocation is needed.
    topo = tbon::Topology::shaped_colocated(
        self.node().hostname(), cfg_.tbon_port,
        static_cast<std::size_t>(cfg_.n_colocated_comm), cfg_.adhoc_hosts,
        {comm::TopologyKind::KAry,
         static_cast<std::uint32_t>(cfg_.tbon_fanout)},
        static_cast<cluster::Port>(cfg_.tbon_port + 1),
        cfg_.attach_weights);
  } else if (cfg_.comm_hosts.empty()) {
    topo = tbon::Topology::one_deep(self.node().hostname(), cfg_.tbon_port,
                                    cfg_.adhoc_hosts);
  } else {
    topo = tbon::Topology::shaped(
        self.node().hostname(), cfg_.tbon_port, cfg_.comm_hosts,
        cfg_.adhoc_hosts,
        {comm::TopologyKind::KAry,
         static_cast<std::uint32_t>(cfg_.tbon_fanout)},
        static_cast<cluster::Port>(cfg_.tbon_port + 1),
        cfg_.attach_weights);
  }
  make_root(self, topo);

  tbon::adhoc_launch(self, topo_, "tbon_commd", "stat_be", {},
                     [this, &self](rsh::LaunchOutcome outcome) {
                       out_->t_daemons_launched = self.sim().now();
                       if (!outcome.status.is_ok()) {
                         finish(self, outcome.status);
                         return;
                       }
                       // Keep the rsh sessions alive for the daemons.
                       adhoc_sessions_ = std::move(outcome.sessions);
                     });
}

// --- LaunchMON path ----------------------------------------------------------------

void StatFe::start_lmon(cluster::Process& self) {
  fe_ = std::make_unique<core::FrontEnd>(self);
  Status st = fe_->init();
  if (!st.is_ok()) {
    finish(self, st);
    return;
  }
  auto sid = fe_->create_session();
  if (!sid.is_ok()) {
    finish(self, sid.status);
    return;
  }
  sid_ = sid.value;
  // The back ends send the FE tool data only to say why they cannot use
  // the topology it broadcast (see StatBe): the tree will never come up.
  fe_->set_be_usrdata_handler(sid_, [this, &self](const Bytes& why) {
    finish(self, Status(Rc::Ebdarg, std::string(why.begin(), why.end())));
  });

  core::FrontEnd::SpawnConfig cfg;
  cfg.daemon_exe = "stat_be";
  if (cfg_.n_comm_nodes == 0) {
    // 1-deep: the registered pack function builds the topology over the
    // RPDTAB's hosts at handshake time and stands the root up.
    cfg.fe_data_provider = [this, &self]() -> Bytes {
      const core::Rpdtab* pt = fe_->proctable(sid_);
      if (pt == nullptr) return {};
      make_root(self, tbon::Topology::one_deep(self.node().hostname(),
                                               cfg_.tbon_port, pt->hosts()));
      return topo_.pack();
    };
  }

  fe_->attach_and_spawn(sid_, cfg_.launcher_pid, cfg, [this, &self](Status ast) {
    out_->t_daemons_launched = self.sim().now();
    if (!ast.is_ok()) {
      finish(self, ast);
      return;
    }
    session_ready_ = true;
    if (cfg_.n_comm_nodes > 0) {
      launch_backends_lmon(self);
    }
    // 1-deep: nothing else to do; tree readiness fires via make_root.
  });
}

void StatFe::launch_backends_lmon(cluster::Process& self) {
  // Deep topology: allocate middleware nodes through the MW API, then
  // broadcast the completed topology to the back ends over LMONP.
  core::FrontEnd::SpawnConfig mw_cfg;
  mw_cfg.daemon_exe = "tbon_commd_lmon";
  mw_cfg.fe_data_provider = [this, &self]() -> Bytes {
    const core::Rpdtab* pt = fe_->proctable(sid_);
    const core::Rpdtab* mw = fe_->mw_table(sid_);
    if (pt == nullptr || mw == nullptr) return {};
    make_root(self,
              tbon::Topology::balanced(
                  self.node().hostname(), cfg_.tbon_port, mw->hosts(),
                  pt->hosts(), cfg_.tbon_fanout,
                  static_cast<cluster::Port>(cfg_.tbon_port + 1)));
    return topo_.pack();
  };
  fe_->launch_mw_daemons(
      sid_, static_cast<std::uint32_t>(cfg_.n_comm_nodes), mw_cfg,
      [this, &self](Status st) {
        if (!st.is_ok()) {
          finish(self, st);
          return;
        }
        // Comm daemons are wiring up; hand the back ends the topology.
        Status sst = fe_->send_usrdata_be(sid_, topo_.pack());
        if (!sst.is_ok()) finish(self, sst);
      });
}

// --- shared ---------------------------------------------------------------------------

void StatFe::make_root(cluster::Process& self, tbon::Topology topo) {
  topo_ = std::move(topo);
  tbon::TbonEndpoint::Callbacks cbs;
  cbs.on_tree_ready = [this, &self](Status st) { on_tree_ready(self, st); };
  cbs.on_up = [this, &self](std::uint32_t, std::uint32_t tag,
                            const Bytes& data,
                            const std::vector<std::uint32_t>&) {
    if (tag != kTagSample) return;
    PrefixTree merged;
    tbon::for_each_concat_part(data, [&](std::span<const std::uint8_t> p) {
      (void)merged.merge_packed(p);
    });
    out_->t_sampled = self.sim().now();
    out_->classes = merged.equivalence_classes();
    out_->tree = std::move(merged);
    finish(self, Status::ok());
  };
  root_ = std::make_unique<tbon::TbonEndpoint>(self, topo_, 0,
                                               std::move(cbs));
  root_->start();
}

void StatFe::on_tree_ready(cluster::Process& self, Status st) {
  if (!st.is_ok()) {
    finish(self, st);
    return;
  }
  tree_ready_ = true;
  out_->t_tree_connected = self.sim().now();
  // The TBON can finish wiring before the FE API's completion callback
  // lands (the ready-ack gather is still draining); clamp so the
  // "handshake share" metric stays well-defined.
  if (out_->t_daemons_launched == 0 ||
      out_->t_daemons_launched > out_->t_tree_connected) {
    out_->t_daemons_launched = out_->t_tree_connected;
  }
  if (cfg_.take_sample) {
    sample(self);
  } else {
    finish(self, Status::ok());
  }
}

void StatFe::sample(cluster::Process& self) {
  (void)self;
  const std::uint32_t stream = root_->new_stream(kFilterStatMerge);
  root_->send_down(stream, kTagSample, {});
}

void StatFe::finish(cluster::Process& self, Status st) {
  (void)self;
  if (out_->done) return;
  out_->done = true;
  out_->status = st;
  if (out_->t_tree_connected == 0) out_->t_tree_connected = self.sim().now();
}

}  // namespace lmon::tools::stat
