#include "rm/apai.hpp"

#include "rm/protocol.hpp"

namespace lmon::rm::apai {

Bytes encode_proctable(const std::vector<TaskDesc>& entries) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) write_task_desc(w, e);
  return std::move(w).take();
}

std::optional<std::vector<TaskDesc>> decode_proctable(const Bytes& blob) {
  ByteReader r(blob);
  return read_task_descs(r);
}

void publish(cluster::Process& launcher, const std::vector<TaskDesc>& entries) {
  launcher.symbols().write(kProctable, encode_proctable(entries));
  ByteWriter size_w;
  size_w.u32(static_cast<std::uint32_t>(entries.size()));
  launcher.symbols().write(kProctableSize, std::move(size_w).take());
  set_debug_state(launcher, kDebugSpawned);
}

void set_debug_state(cluster::Process& launcher, std::uint32_t state) {
  ByteWriter w;
  w.u32(state);
  launcher.symbols().write(kDebugState, std::move(w).take());
}

}  // namespace lmon::rm::apai
