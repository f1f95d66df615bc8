#include "tools/jobsnap/format.hpp"

#include <cstdio>

namespace lmon::tools::jobsnap {

void TaskSnapshot::encode(ByteWriter& w) const {
  w.i32(rank);
  w.str(host);
  w.i64(pid);
  w.str(executable);
  w.u8(static_cast<std::uint8_t>(state));
  w.u64(program_counter);
  w.u32(num_threads);
  w.u64(vm_hwm_kb);
  w.u64(vm_lck_kb);
  w.u64(utime_ms);
  w.u64(stime_ms);
  w.u64(maj_faults);
}

std::optional<TaskSnapshot> TaskSnapshot::decode(ByteReader& r) {
  TaskSnapshot s;
  auto rank = r.i32();
  auto host = r.str();
  auto pid = r.i64();
  auto exe = r.str();
  auto state = r.u8();
  auto pc = r.u64();
  auto threads = r.u32();
  auto hwm = r.u64();
  auto lck = r.u64();
  auto ut = r.u64();
  auto st = r.u64();
  auto mf = r.u64();
  if (!rank || !host || !pid || !exe || !state || !pc || !threads || !hwm ||
      !lck || !ut || !st || !mf) {
    return std::nullopt;
  }
  s.rank = *rank;
  s.host = std::move(*host);
  s.pid = *pid;
  s.executable = std::move(*exe);
  s.state = static_cast<char>(*state);
  s.program_counter = *pc;
  s.num_threads = *threads;
  s.vm_hwm_kb = *hwm;
  s.vm_lck_kb = *lck;
  s.utime_ms = *ut;
  s.stime_ms = *st;
  s.maj_faults = *mf;
  return s;
}

std::string TaskSnapshot::format_line() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%6d %-12s %8lld %-10s %c 0x%08llx %3u %10llu %8llu %8llu "
                "%8llu %6llu",
                rank, host.c_str(), static_cast<long long>(pid),
                executable.c_str(), state,
                static_cast<unsigned long long>(program_counter), num_threads,
                static_cast<unsigned long long>(vm_hwm_kb),
                static_cast<unsigned long long>(vm_lck_kb),
                static_cast<unsigned long long>(utime_ms),
                static_cast<unsigned long long>(stime_ms),
                static_cast<unsigned long long>(maj_faults));
  return buf;
}

std::string report_header() {
  return "  RANK HOST              PID EXE        S PC          THR   "
         "VmHWM(kB) VmLck(kB) utime(ms) stime(ms) majflt";
}

Bytes encode_snapshots(const std::vector<TaskSnapshot>& snaps) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(snaps.size()));
  for (const auto& s : snaps) s.encode(w);
  return std::move(w).take();
}

std::optional<std::vector<TaskSnapshot>> decode_snapshots(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  auto count = r.u32();
  if (!count) return std::nullopt;
  std::vector<TaskSnapshot> out;
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto s = TaskSnapshot::decode(r);
    if (!s) return std::nullopt;
    out.push_back(std::move(*s));
  }
  return out;
}

}  // namespace lmon::tools::jobsnap
