#include "rm/resource_manager.hpp"

#include <memory>

#include "rm/controller.hpp"
#include "rm/launcher.hpp"
#include "rm/node_daemon.hpp"

namespace lmon::rm {

Status install(cluster::Machine& machine) {
  cluster::SpawnOptions ctl_opts;
  ctl_opts.executable = "slurmctld";
  ctl_opts.image_mb = 18.0;
  auto res = machine.front_end().spawn(std::make_unique<Controller>(),
                                       std::move(ctl_opts));
  if (!res.is_ok()) return res.status;

  for (int i = 0; i < machine.num_compute_nodes(); ++i) {
    cluster::SpawnOptions opts;
    opts.executable = "slurmd";
    opts.image_mb = 12.0;
    auto r = machine.compute_node(i).spawn(std::make_unique<NodeDaemon>(),
                                           std::move(opts));
    if (!r.is_ok()) return r.status;
  }

  // Middleware nodes also run a node daemon so the RM can place TBON
  // daemons there (the paper's "additional compute resources beyond the
  // target program's allocation").
  for (int i = 0; i < machine.num_middleware_nodes(); ++i) {
    cluster::SpawnOptions opts;
    opts.executable = "slurmd";
    opts.image_mb = 12.0;
    auto r = machine.middleware_node(i).spawn(std::make_unique<NodeDaemon>(),
                                              std::move(opts));
    if (!r.is_ok()) return r.status;
  }

  cluster::ProgramImage srun_image;
  srun_image.image_mb = machine.costs().launcher_image_mb;
  srun_image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<Launcher>();
  };
  machine.install_program(Launcher::kImageName, std::move(srun_image));
  return Status::ok();
}

Argv job_args(const JobSpec& spec) {
  Argv args;
  args.push_back("--mode=job");
  args.push_back("--nnodes=" + std::to_string(spec.nnodes));
  args.push_back("--tpn=" + std::to_string(spec.tasks_per_node));
  args.push_back("--exe=" + spec.executable);
  for (const auto& a : spec.app_args) args.push_back("--app-arg=" + a);
  return args;
}

cluster::Result<cluster::Pid> run_job(cluster::Machine& machine,
                                      const JobSpec& spec) {
  const cluster::ProgramImage* image =
      machine.find_program(Launcher::kImageName);
  if (image == nullptr) {
    return {Status(Rc::Esys, "RM not installed (no srun image)"),
            cluster::kInvalidPid};
  }
  cluster::SpawnOptions opts;
  opts.executable = Launcher::kImageName;
  opts.image_mb = image->image_mb;
  opts.args = job_args(spec);
  return machine.front_end().spawn(image->factory({}),
                                   std::move(opts));
}

}  // namespace lmon::rm
