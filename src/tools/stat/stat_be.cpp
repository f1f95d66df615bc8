#include "tools/stat/stat_be.hpp"

#include "apps/mpi_app.hpp"
#include "cluster/machine.hpp"
#include "common/argparse.hpp"
#include "tbon/startup.hpp"

namespace lmon::tools::stat {

namespace {

/// STAT's merge filter: every input is a concat frame of packed prefix
/// trees, merged straight into one live tree; take() emits it as a
/// single-element concat frame.
class StatMerge final : public tbon::Reduction {
 public:
  void add(const Bytes& data) override {
    tbon::for_each_concat_part(data, [this](std::span<const std::uint8_t> p) {
      (void)tree_.merge_packed(p);  // a malformed tree contributes nothing
    });
  }
  [[nodiscard]] std::size_t packed_size() const override {
    return 8 + tree_.packed_size();  // part count + blob length + tree
  }
  Bytes take() override {
    Bytes out = tbon::wrap_leaf_payload(tree_.pack());
    tree_ = PrefixTree{};
    return out;
  }

 private:
  PrefixTree tree_;
};

}  // namespace

void register_stat_filter() {
  tbon::FilterRegistry::instance().register_filter(
      kFilterStatMerge, [] { return std::make_unique<StatMerge>(); });
}

void StatBe::on_start(cluster::Process& self) {
  adhoc_ = arg_entry(self.args(), "--tbon-topology=") != nullptr;
  if (adhoc_) {
    start_adhoc(self);
  } else {
    start_lmon(self);
  }
}

void StatBe::start_lmon(cluster::Process& self) {
  be_ = std::make_unique<core::BackEnd>(self);
  core::BackEnd::Callbacks cbs;
  cbs.on_init = [this, &self](const core::Rpdtab&, const ByteSlice& usrdata,
                              std::function<void(Status)> done) {
    // 1-deep startups piggyback the packed topology on the handshake
    // (via the FE's registered pack function); deeper topologies deliver
    // it after Ready through a LMONP UsrData + ICCL broadcast, because the
    // middleware hosts are only known once the MW daemons are allocated.
    done(usrdata.empty() ? Status::ok() : accept_topology(self, usrdata));
  };
  cbs.on_ready = [this, &self](Status st) {
    if (!st.is_ok()) {
      self.exit(1);
      return;
    }
    if (tbon_ != nullptr) return;  // already joined via piggyback
    // Wait for the topology broadcast: the master relays the FE's UsrData
    // down the ICCL tree ("STAT also uses LMONP to broadcast MRNet
    // communication tree information from the front end to the daemons").
    // A daemon that cannot use it stays out of the tree; the master
    // reports for everyone (see on_usrdata).
    if (!be_->is_master()) {
      be_->broadcast({}, [this, &self](const ByteSlice& data) {
        (void)accept_topology(self, data);
      });
    }
  };
  cbs.on_usrdata = [this, &self](const Bytes& data) {
    // Master only: FE delivered the topology; fan it out. Every daemon
    // judges the same bytes by the same rules, so the master's verdict is
    // everyone's: on a failure the tree can never come up, and the master
    // sends the reason to the FE instead of leaving it waiting.
    if (tbon_ != nullptr) return;
    be_->broadcast(data, [this, &self](const ByteSlice& topo_bytes) {
      const Status st = accept_topology(self, topo_bytes);
      if (!st.is_ok()) {
        const std::string& why = st.message();
        (void)be_->send_usrdata_fe(Bytes(why.begin(), why.end()));
      }
    });
  };
  const Status st = be_->init(std::move(cbs));
  if (!st.is_ok()) self.exit(1);
}

Status StatBe::accept_topology(cluster::Process& self,
                               const ByteSlice& data) {
  auto topo = tbon::Topology::unpack(data);
  if (!topo || !topo->valid()) {
    return Status(Rc::Ebdarg, "bad TBON topology");
  }
  // A valid topology numbers its back ends 0..n-1, so each daemon has its
  // place exactly when there is one back end per daemon.
  if (topo->num_backends() != static_cast<int>(be_->size())) {
    return Status(Rc::Ebdarg,
                  "TBON topology has " + std::to_string(topo->num_backends()) +
                      " back ends for " + std::to_string(be_->size()) +
                      " daemons");
  }
  const int index = topo->index_of_backend(static_cast<int>(be_->rank()));
  join_tbon(self, std::move(*topo), index);
  return Status::ok();
}

void StatBe::start_adhoc(cluster::Process& self) {
  auto place = tbon::adhoc_place(self.args());
  if (!place) {
    self.exit(1);
    return;
  }
  join_tbon(self, std::move(place->topology), place->index);
}

void StatBe::join_tbon(cluster::Process& self, tbon::Topology topo,
                       int index) {
  tbon::TbonEndpoint::Callbacks cbs;
  cbs.on_down = [this, &self](std::uint32_t stream, std::uint32_t tag,
                              const Bytes&) {
    if (tag == kTagSample) on_sample_request(self, stream, tag);
  };
  tbon_ = std::make_unique<tbon::TbonEndpoint>(self, std::move(topo), index,
                                               std::move(cbs));
  tbon_->start();
}

std::vector<std::pair<cluster::Pid, std::int32_t>> StatBe::local_tasks(
    cluster::Process& self) const {
  std::vector<std::pair<cluster::Pid, std::int32_t>> out;
  if (!adhoc_ && be_ != nullptr) {
    for (const auto& e : be_->my_entries()) {
      out.emplace_back(e.pid, e.rank);
    }
    return out;
  }
  // Ad hoc mode: scan the node's process table for application tasks, the
  // manual discovery a tool must do without an RPDTAB.
  for (cluster::Process* p : self.node().live_processes()) {
    if (p->options().executable == "mpi_app") {
      auto* app = dynamic_cast<apps::MpiApp*>(&p->program());
      out.emplace_back(p->pid(), app != nullptr ? app->rank() : -1);
    }
  }
  return out;
}

void StatBe::on_sample_request(cluster::Process& self, std::uint32_t stream,
                               std::uint32_t tag) {
  const auto tasks = local_tasks(self);
  const auto& costs = self.machine().costs();
  // Scanning /proc (ad hoc discovery) plus one stackwalk per task.
  sim::Time cost = static_cast<sim::Time>(tasks.size()) *
                   (costs.stackwalk_cost + costs.proc_read_cost);
  self.post(cost, [this, &self, tasks, stream, tag] {
    // Fold task traces into partial trees no larger than a transport chunk
    // and stream each upward as it fills (prefix-tree merge is associative,
    // so interior hops fold them incrementally); the final send_up carries
    // the residue plus this daemon's rank. Keeps every hop's working set
    // O(chunk) even when the packed tree outgrows the chunk size.
    const std::size_t chunk = self.machine().costs().iccl_rndv_chunk_bytes;
    PrefixTree local;
    for (const auto& [pid, rank] : tasks) {
      cluster::Process* p = self.machine().find_process(pid);
      if (p == nullptr || p->state() == cluster::ProcState::Exited) continue;
      auto* app = dynamic_cast<apps::MpiApp*>(&p->program());
      if (app == nullptr) continue;
      local.add_trace(app->call_stack(), rank >= 0 ? rank : app->rank());
      if (local.packed_size() >= chunk) {
        tbon_->send_up_part(stream, tag, local.pack());
        local = PrefixTree{};
      }
    }
    tbon_->send_up(stream, tag, local.pack());
  });
}

void StatBe::install(cluster::Machine& machine) {
  register_stat_filter();
  cluster::ProgramImage image;
  // STAT daemons link a stackwalker library: noticeably bigger image than
  // jobsnap's, part of why Fig. 6 absolute times exceed Fig. 5's.
  image.image_mb = 38.0;
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<StatBe>();
  };
  machine.install_program("stat_be", std::move(image));
}

}  // namespace lmon::tools::stat
