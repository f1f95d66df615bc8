#include "apps/mpi_app.hpp"

#include <memory>

#include "cluster/machine.hpp"
#include "common/argparse.hpp"

namespace lmon::apps {

void MpiApp::on_start(cluster::Process& self) {
  rank_ = static_cast<int>(arg_int(self.args(), "--rank=").value_or(0));
  size_ = static_cast<int>(arg_int(self.args(), "--size=").value_or(1));
  rng_ = sim::Rng(static_cast<std::uint64_t>(rank_) * 7919 + 13);

  auto& st = self.stats();
  st.state = 'R';
  st.num_threads = 1 + static_cast<std::uint32_t>(rng_.next_below(3));
  st.vm_hwm_kb = 150'000 + rng_.next_below(80'000);
  st.vm_rss_kb = st.vm_hwm_kb - rng_.next_below(20'000);
  st.vm_lck_kb = rng_.next_below(4096);
  rebuild_stack();
  tick(self);
}

namespace {

// The five call stacks a task can be in; every tick points at one of them.
const std::vector<std::string> kCheckpointStack{
    "_start", "main", "solver_loop", "write_checkpoint", "io_write"};
const std::vector<std::string> kHaloStack{
    "_start", "main", "solver_loop", "exchange_halo", "MPI_Waitall"};
const std::vector<std::string> kReduceStack{
    "_start", "main", "solver_loop", "global_reduce", "MPI_Allreduce"};
const std::vector<std::string> kStencilStack{
    "_start", "main", "solver_loop", "compute_kernel", "stencil_sweep"};
const std::vector<std::string> kBoundaryStack{
    "_start", "main", "solver_loop", "compute_kernel", "apply_bc"};

}  // namespace

const std::vector<std::string> MpiApp::kNotStarted{};

void MpiApp::rebuild_stack() {
  // A synthetic SPMD application profile: most ranks compute, a few are in
  // MPI communication, rank 0 may sit in I/O. This yields the equivalence-
  // class structure STAT's prefix tree is designed to expose.
  const std::uint64_t mode = rng_.next_below(100);
  if (rank_ == 0 && mode < 30) {
    stack_ = &kCheckpointStack;
  } else if (mode < 20) {
    stack_ = &kHaloStack;
  } else if (mode < 28) {
    stack_ = &kReduceStack;
  } else {
    stack_ = mode % 2 == 0 ? &kStencilStack : &kBoundaryStack;
  }
}

void MpiApp::tick(cluster::Process& self) {
  // Advance /proc state every ~50ms of simulated time. Every task repeats
  // this one delay, so the ticks ride the kernel's FIFO lane for it. They
  // stay real events: the sample times of a tool that stops the job follow
  // the last event the simulator ran.
  self.post_fixed(sim::ms(50), [this, &self] {
    ticks_ += 1;
    auto& st = self.stats();
    st.program_counter = 0x400000 + rng_.next_below(0x10000);
    st.utime_ms += 45 + rng_.next_below(5);
    st.stime_ms += rng_.next_below(5);
    if (rng_.next_below(10) == 0) st.maj_faults += 1;
    if (rng_.next_below(20) == 0) {
      st.vm_hwm_kb += rng_.next_below(1024);
      st.vm_rss_kb = st.vm_hwm_kb - rng_.next_below(20'000);
    }
    rebuild_stack();
    tick(self);
  });
}

void MpiApp::install(cluster::Machine& machine) {
  cluster::ProgramImage image;
  image.image_mb = machine.costs().app_image_mb;
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<MpiApp>();
  };
  machine.install_program("mpi_app", std::move(image));
}

}  // namespace lmon::apps
