#include "tools/jobsnap/jobsnap_be.hpp"

#include <algorithm>

#include "cluster/machine.hpp"

namespace lmon::tools::jobsnap {

void JobsnapBe::on_start(cluster::Process& self) {
  be_ = std::make_unique<core::BackEnd>(self);
  core::BackEnd::Callbacks cbs;
  cbs.on_init = [](const core::Rpdtab&, const Bytes&,
                   std::function<void(Status)> done) { done(Status::ok()); };
  cbs.on_ready = [this, &self](Status st) {
    if (!st.is_ok()) {
      self.exit(1);
      return;
    }
    collect_and_gather(self);
  };
  const Status st = be_->init(std::move(cbs));
  if (!st.is_ok()) self.exit(1);
}

void JobsnapBe::collect_and_gather(cluster::Process& self) {
  // Snapshot each co-located task through the node-local /proc interface;
  // each read opens and parses several /proc files (proc_read_cost).
  const auto locals = be_->my_entries();
  const sim::Time per_task = self.machine().costs().proc_read_cost;
  const sim::Time collect_cost =
      static_cast<sim::Time>(locals.size()) * per_task;

  self.post(collect_cost, [this, &self, locals] {
    std::vector<TaskSnapshot> snaps;
    snaps.reserve(locals.size());
    for (const auto& entry : locals) {
      snaps.push_back(snapshot_of(self.machine(), entry));
    }

    be_->gather(
        encode_snapshots(snaps),
        [this, &self](
            std::vector<std::pair<std::uint32_t, Bytes>> contributions) {
          // Master: merge, sort by rank, format the report, send work-done.
          std::vector<TaskSnapshot> all;
          for (const auto& [rank, data] : contributions) {
            auto part = decode_snapshots(data);
            if (!part) continue;
            all.insert(all.end(), part->begin(), part->end());
          }
          std::sort(all.begin(), all.end(),
                    [](const TaskSnapshot& a, const TaskSnapshot& b) {
                      return a.rank < b.rank;
                    });
          std::string report = report_header() + "\n";
          for (const auto& s : all) report += s.format_line() + "\n";

          ByteWriter w;
          w.str("work-done");
          w.u32(static_cast<std::uint32_t>(all.size()));
          w.str(report);
          (void)be_->send_usrdata_fe(std::move(w).take());
        });
  });
}

void JobsnapBe::install(cluster::Machine& machine) {
  cluster::ProgramImage image;
  // "lightweight back-end daemons" - small image.
  image.image_mb = 2.5;
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<JobsnapBe>();
  };
  machine.install_program("jobsnap_be", std::move(image));
}

}  // namespace lmon::tools::jobsnap
