// resource_manager.hpp - facade that boots the RM onto a simulated machine.
#pragma once

#include <string>

#include "cluster/machine.hpp"
#include "common/status.hpp"
#include "rm/types.hpp"

namespace lmon::rm {

/// Installs the SLURM-like resource manager on a machine:
///  * the controller on the front-end node,
///  * a node daemon on every compute node,
///  * the "srun" launcher image in the program registry.
///
/// Returns once the processes are spawned (their on_start completes within
/// a few simulated microseconds; run the simulator briefly before launching
/// jobs, as a real cluster boots its RM before accepting work).
Status install(cluster::Machine& machine);

/// Convenience used by tools/tests that start a job *without* a tool
/// attached (the `attachAndSpawn` scenario): spawns an untraced job-mode
/// launcher on the front end. Returns the launcher pid.
cluster::Result<cluster::Pid> run_job(cluster::Machine& machine,
                                      const JobSpec& spec);

/// Builds the argv for a job-mode launcher from a JobSpec.
Argv job_args(const JobSpec& spec);

}  // namespace lmon::rm
