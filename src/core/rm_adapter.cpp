#include "core/rm_adapter.hpp"

#include <cassert>

#include "cluster/machine.hpp"
#include "rm/apai.hpp"
#include "rm/launcher.hpp"
#include "rm/resource_manager.hpp"
#include "simkernel/log.hpp"

namespace lmon::core {

cluster::Result<cluster::Pid> SlurmAdapter::launch_job(
    cluster::Process& engine, const rm::JobSpec& spec,
    cluster::DebugEventHandler handler) {
  engine_ = &engine;
  const cluster::ProgramImage* image =
      engine.machine().find_program(rm::Launcher::kImageName);
  if (image == nullptr) {
    return {Status(Rc::Esys, "no srun image installed"), cluster::kInvalidPid};
  }
  cluster::SpawnOptions opts;
  opts.executable = rm::Launcher::kImageName;
  opts.image_mb = image->image_mb;
  opts.args = rm::job_args(spec);
  auto res = engine.spawn_traced(image->factory({}), std::move(opts),
                                 std::move(handler));
  if (!res.is_ok()) return {res.status, cluster::kInvalidPid};
  session_ = res.value.second;
  return {Status::ok(), res.value.first};
}

Status SlurmAdapter::attach_job(cluster::Process& engine,
                                cluster::Pid launcher,
                                cluster::DebugEventHandler handler) {
  engine_ = &engine;
  auto res = engine.trace_attach(launcher, std::move(handler));
  if (!res.is_ok()) return res.status;
  session_ = res.value;
  return Status::ok();
}

void SlurmAdapter::fetch_proctable(std::function<void(Status, Bytes)> cb) {
  assert(session_ != nullptr && "fetch_proctable before attach/launch");
  session_->read_symbol(rm::apai::kProctable, std::move(cb));
}

void SlurmAdapter::fetch_jobid(std::function<void(Status, rm::JobId)> cb) {
  assert(session_ != nullptr && "fetch_jobid before attach/launch");
  session_->read_symbol(
      rm::apai::kJobId, [cb = std::move(cb)](Status st, Bytes data) {
        if (!st.is_ok()) {
          cb(st, rm::kInvalidJob);
          return;
        }
        ByteReader r(data);
        auto jobid = r.u64();
        if (!jobid) {
          cb(Status(Rc::Esubcom, "bad totalview_jobid"), rm::kInvalidJob);
          return;
        }
        cb(Status::ok(), *jobid);
      });
}

void SlurmAdapter::continue_job() {
  if (session_ != nullptr) session_->continue_target();
}

void SlurmAdapter::detach_job() {
  if (session_ != nullptr) {
    session_->detach();
    session_ = nullptr;
  }
}

void SlurmAdapter::kill_job() {
  if (session_ != nullptr) {
    session_->kill_target();
    session_ = nullptr;
  }
}

void SlurmAdapter::kill_tasks(cluster::Process& engine, rm::JobId jobid,
                              const std::vector<std::string>& hosts) {
  if (hosts.empty()) return;
  rm::TreeKillReq req;
  req.jobid = jobid;
  req.seq = 99;
  req.mode = rm::LaunchMode::Tasks;
  req.session = "";  // job-mode spawns register under the empty session
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    req.nodes.push_back(
        rm::AllocatedNode{hosts[i], static_cast<std::uint32_t>(i)});
  }
  engine.connect(hosts.front(), cluster::kRmNodeDaemonPort,
                 [&engine, frame = req.encode()](
                     Status st, cluster::ChannelPtr ch) mutable {
                   if (!st.is_ok()) return;  // node gone: nothing to kill
                   engine.send(ch, std::move(frame));
                   // Ack is informational; the channel closes with the
                   // engine's exit.
                 });
}

Status SlurmAdapter::co_spawn(cluster::Process& engine,
                              const CoSpawnConfig& cfg,
                              std::function<void(rm::LaunchDone)> cb) {
  engine_ = &engine;
  // The RM-bulk path is the paper's contribution; the adapter binds it to
  // this platform by delegating to rm::RmBulkStrategy (the same strategy
  // the engine can select directly through comm::make_launch_strategy).
  comm::LaunchRequest req;
  req.daemon_exe = cfg.daemon_exe;
  req.daemon_args = cfg.daemon_args;
  req.bootstrap.topology = cfg.fabric.topology();
  req.bootstrap.port = cfg.fabric.port;
  req.bootstrap.session = cfg.fabric.session;
  req.bootstrap.fe_host = cfg.fabric.fe_host;
  req.bootstrap.fe_port = cfg.fabric.fe_port;
  req.bootstrap.rndv_threshold = cfg.fabric.rndv_threshold;
  req.bootstrap.heal = cfg.fabric.heal;
  req.bootstrap.heal_grace_ms = cfg.fabric.heal_grace_ms;
  req.bootstrap.max_sessions = cfg.fabric.max_sessions;
  req.launch_fanout = cfg.fabric.fanout;
  req.jobid = cfg.jobid;
  req.alloc_nodes = cfg.alloc_nodes;
  req.middleware_partition = cfg.middleware_partition;
  req.report_port = cfg.report_port;

  auto strategy = std::make_unique<rm::RmBulkStrategy>();
  rm::RmBulkStrategy* raw = strategy.get();
  cospawns_.push_back(std::move(strategy));
  raw->launch(engine, std::move(req),
              [cb = std::move(cb)](comm::LaunchResult res) {
                rm::LaunchDone done;
                done.ok = res.status.is_ok();
                done.error = res.status.message();
                done.jobid = res.jobid;
                done.daemons = std::move(res.daemons);
                if (cb) cb(std::move(done));
              });
  return Status::ok();
}

void SlurmAdapter::kill_daemons(std::function<void(Status)> cb) {
  if (engine_ == nullptr || cospawns_.empty()) {
    if (cb) cb(Status(Rc::Edead, "no co-spawned daemons"));
    return;
  }
  // Tear every co-spawned group down; the callback follows the last one
  // and carries the first failure (e.g. Edead when a launcher is already
  // gone) rather than unconditional success.
  auto remaining = std::make_shared<int>(static_cast<int>(cospawns_.size()));
  auto first_error = std::make_shared<Status>();
  auto shared_cb = std::make_shared<std::function<void(Status)>>(std::move(cb));
  for (auto& strategy : cospawns_) {
    strategy->teardown(*engine_, [remaining, first_error, shared_cb](Status st) {
      if (!st.is_ok() && first_error->is_ok()) *first_error = st;
      *remaining -= 1;
      if (*remaining == 0 && *shared_cb) (*shared_cb)(*first_error);
    });
  }
}

}  // namespace lmon::core
