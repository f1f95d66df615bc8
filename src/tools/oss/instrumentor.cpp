#include "tools/oss/instrumentor.hpp"

#include "cluster/machine.hpp"
#include "rm/apai.hpp"
#include "tools/dpcl/dpcl.hpp"

namespace lmon::tools::oss {

void DpclInstrumentor::acquire(cluster::Process& fe,
                               cluster::Pid launcher_pid,
                               std::function<void(ApaiResult)> cb) {
  const sim::Time start = fe.sim().now();
  // The launcher runs on the front-end node; talk to the local super
  // daemon, attach to the launcher *as if it were an application* - full
  // binary parse included - then read the MPIR proctable.
  dpcl::Client::connect(
      fe, fe.node().hostname(),
      [&fe, launcher_pid, cb, start](Status st,
                                     std::shared_ptr<dpcl::Client> client) {
        if (!st.is_ok()) {
          cb(ApaiResult{st, {}, fe.sim().now() - start});
          return;
        }
        client->attach_parse(launcher_pid, [&fe, launcher_pid, cb, start,
                                            client](Status ast) {
          if (!ast.is_ok()) {
            cb(ApaiResult{ast, {}, fe.sim().now() - start});
            return;
          }
          client->read_symbol(
              launcher_pid, rm::apai::kProctable,
              [&fe, cb, start, client](Status rst, Bytes blob) {
                ApaiResult result;
                result.elapsed = fe.sim().now() - start;
                if (!rst.is_ok()) {
                  result.status = rst;
                  cb(std::move(result));
                  return;
                }
                auto table = core::Rpdtab::unpack(std::move(blob));
                if (!table) {
                  result.status = Status(Rc::Esubcom, "bad proctable");
                } else {
                  result.status = Status::ok();
                  result.table = std::move(*table);
                }
                result.elapsed = fe.sim().now() - start;
                cb(std::move(result));
              });
        });
      });
}

void LmonInstrumentor::acquire(cluster::Process& fe,
                               cluster::Pid launcher_pid,
                               std::function<void(ApaiResult)> cb) {
  const sim::Time start = fe.sim().now();
  fe_api_ = std::make_unique<core::FrontEnd>(fe);
  Status st = fe_api_->init();
  if (!st.is_ok()) {
    cb(ApaiResult{st, {}, 0});
    return;
  }
  auto sid = fe_api_->create_session();
  if (!sid.is_ok()) {
    cb(ApaiResult{sid.status, {}, 0});
    return;
  }
  core::FrontEnd::SpawnConfig cfg;
  cfg.daemon_exe = daemon_exe_;
  fe_api_->attach_and_spawn(
      sid.value, launcher_pid, cfg,
      [this, &fe, cb, start, sid = sid.value](Status ast) {
        ApaiResult result;
        result.status = ast;
        result.elapsed = fe.sim().now() - start;
        if (ast.is_ok()) {
          if (const core::Rpdtab* pt = fe_api_->proctable(sid)) {
            result.table = *pt;
          }
        }
        cb(std::move(result));
      });
}

void OssBe::on_start(cluster::Process& self) {
  be_ = std::make_unique<core::BackEnd>(self);
  core::BackEnd::Callbacks cbs;
  cbs.on_init = [this, &self](const core::Rpdtab&, const Bytes&,
                              std::function<void(Status)> done) {
    // "We augmented the DPCL daemons so the front end can directly start
    // them": connect to the local tasks and install probes, the work the
    // daemon-side DPCL startup routines do.
    const auto locals = be_->my_entries();
    const sim::Time cost =
        static_cast<sim::Time>(locals.size()) * sim::ms(4);
    self.post(cost, [done] { done(Status::ok()); });
  };
  const Status st = be_->init(std::move(cbs));
  if (!st.is_ok()) self.exit(1);
}

void OssBe::install(cluster::Machine& machine) {
  cluster::ProgramImage image;
  image.image_mb = 22.0;  // links the DPCL runtime
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<OssBe>();
  };
  machine.install_program("oss_be", std::move(image));
}

}  // namespace lmon::tools::oss
