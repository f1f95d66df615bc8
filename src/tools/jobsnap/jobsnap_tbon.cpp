#include "tools/jobsnap/jobsnap_tbon.hpp"

#include <algorithm>

#include "cluster/machine.hpp"
#include "tbon/filter.hpp"
#include "tbon/topology.hpp"

namespace lmon::tools::jobsnap {

namespace {

/// The snapshot merge filter: every input is a concat frame of snapshot
/// batches, decoded once into one vector; take() sorts it by rank and
/// emits it as a single-element concat frame.
class SnapshotMerge final : public tbon::Reduction {
 public:
  void add(const Bytes& data) override {
    tbon::for_each_concat_part(data, [this](std::span<const std::uint8_t> b) {
      auto snaps = decode_snapshots(b);
      if (!snaps) return;  // a malformed batch contributes nothing
      for (auto& s : *snaps) {
        bytes_ += s.encoded_size();
        merged_.push_back(std::move(s));
      }
    });
  }
  [[nodiscard]] std::size_t packed_size() const override {
    return 8 + 4 + bytes_;  // part count + blob length + batch count
  }
  Bytes take() override {
    std::stable_sort(merged_.begin(), merged_.end(),
                     [](const TaskSnapshot& a, const TaskSnapshot& b) {
                       return a.rank < b.rank;
                     });
    Bytes out = tbon::wrap_leaf_payload(encode_snapshots(merged_));
    merged_.clear();
    bytes_ = 0;
    return out;
  }

 private:
  std::vector<TaskSnapshot> merged_;
  std::size_t bytes_ = 0;  ///< encoded size of merged_'s snapshots
};

}  // namespace

void register_jobsnap_filter() {
  tbon::FilterRegistry::instance().register_filter(
      kFilterSnapshotMerge, [] { return std::make_unique<SnapshotMerge>(); });
}

// --- back end --------------------------------------------------------------

void JobsnapTbonBe::on_start(cluster::Process& self) {
  register_jobsnap_filter();
  be_ = std::make_unique<core::BackEnd>(self);
  core::BackEnd::Callbacks cbs;
  cbs.on_init = [this, &self](const core::Rpdtab&, const ByteSlice& usrdata,
                              std::function<void(Status)> done) {
    // Every back end views the one handshake broadcast: one decode.
    auto topo = tbon::Topology::unpack(usrdata);
    if (!topo || !topo->valid()) {
      done(Status(Rc::Ebdarg, "no TBON topology in handshake"));
      return;
    }
    const int index = topo->index_of_backend(static_cast<int>(be_->rank()));
    if (index < 0) {
      done(Status(Rc::Ebdarg, "daemon missing from topology"));
      return;
    }
    tbon::TbonEndpoint::Callbacks tcbs;
    tcbs.on_down = [this, &self](std::uint32_t stream, std::uint32_t tag,
                                 const Bytes&) {
      if (tag == kTagSnap) on_snap_request(self, stream, tag);
    };
    tbon_ = std::make_unique<tbon::TbonEndpoint>(self, std::move(*topo),
                                                 index, std::move(tcbs));
    tbon_->start();
    done(Status::ok());
  };
  if (!be_->init(std::move(cbs)).is_ok()) self.exit(1);
}

void JobsnapTbonBe::on_snap_request(cluster::Process& self,
                                    std::uint32_t stream, std::uint32_t tag) {
  const auto locals = be_->my_entries();
  const sim::Time cost = static_cast<sim::Time>(locals.size()) *
                         self.machine().costs().proc_read_cost;
  self.post(cost, [this, &self, locals, stream, tag] {
    // Snapshot batches stream upward in chunk-sized partial aggregates
    // (the merge filter is associative), so neither this daemon nor any
    // interior hop stages more than O(chunk) of the report at once.
    const std::size_t chunk = self.machine().costs().iccl_rndv_chunk_bytes;
    std::vector<TaskSnapshot> snaps;
    snaps.reserve(locals.size());
    for (const auto& entry : locals) {
      snaps.push_back(snapshot_of(self.machine(), entry));
      if (Bytes batch = encode_snapshots(snaps); batch.size() >= chunk) {
        tbon_->send_up_part(stream, tag, std::move(batch));
        snaps.clear();
      }
    }
    tbon_->send_up(stream, tag, encode_snapshots(snaps));
  });
}

void JobsnapTbonBe::install(cluster::Machine& machine) {
  register_jobsnap_filter();
  cluster::ProgramImage image;
  image.image_mb = 3.0;  // slightly larger than the flat BE: links the TBON
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<JobsnapTbonBe>();
  };
  machine.install_program("jobsnap_tbe", std::move(image));
}

// --- front end ----------------------------------------------------------------

void JobsnapTbonFe::on_start(cluster::Process& self) {
  register_jobsnap_filter();
  out_->t_start = self.sim().now();
  fe_ = std::make_unique<core::FrontEnd>(self);
  Status st = fe_->init();
  if (!st.is_ok()) {
    finish(self, st);
    return;
  }
  sid_ = fe_->create_session().value;

  core::FrontEnd::SpawnConfig cfg;
  cfg.daemon_exe = "jobsnap_tbe";
  cfg.fe_data_provider = [this, &self]() -> Bytes {
    const core::Rpdtab* pt = fe_->proctable(sid_);
    if (pt == nullptr) return {};
    topo_ = tbon::Topology::one_deep(self.node().hostname(),
                                     cluster::kTbonBasePort + 16,
                                     pt->hosts());
    tbon::TbonEndpoint::Callbacks cbs;
    cbs.on_tree_ready = [this, &self](Status tst) {
      if (!tst.is_ok()) {
        finish(self, tst);
        return;
      }
      out_->t_snap_sent = self.sim().now();
      const std::uint32_t stream = root_->new_stream(kFilterSnapshotMerge);
      root_->send_down(stream, kTagSnap, {});
    };
    cbs.on_up = [this, &self](std::uint32_t, std::uint32_t tag,
                              const Bytes& data,
                              const std::vector<std::uint32_t>&) {
      if (tag != kTagSnap) return;
      std::vector<TaskSnapshot> all;
      tbon::for_each_concat_part(data, [&](std::span<const std::uint8_t> b) {
        auto snaps = decode_snapshots(b);
        if (snaps) all.insert(all.end(), snaps->begin(), snaps->end());
      });
      out_->t_collected = self.sim().now();
      out_->tasks = static_cast<std::uint32_t>(all.size());
      std::string report = report_header() + "\n";
      for (const auto& s : all) report += s.format_line() + "\n";
      out_->report = std::move(report);
      fe_->detach(sid_, [this, &self](Status dst) { finish(self, dst); });
    };
    root_ = std::make_unique<tbon::TbonEndpoint>(self, topo_, 0,
                                                 std::move(cbs));
    root_->start();
    return topo_.pack();
  };

  fe_->attach_and_spawn(sid_, launcher_pid_, cfg, [this, &self](Status ast) {
    out_->t_spawned = self.sim().now();
    if (!ast.is_ok()) finish(self, ast);
  });
}

void JobsnapTbonFe::finish(cluster::Process& self, Status st) {
  if (out_->done) return;
  out_->done = true;
  out_->status = st;
  self.exit(st.is_ok() ? 0 : 1);
}

}  // namespace lmon::tools::jobsnap
