#include "obs/perfetto.hpp"

#include <algorithm>
#include <cstdio>

#include "simkernel/time.hpp"

namespace lmon::obs {

namespace {

/// Track for records not bound to a simulated node (marks, log lines).
constexpr int kSimTrack = 9999;

int track_of(int node) { return node >= 0 ? node : kSimTrack; }

double to_us(sim::Time t) {
  return static_cast<double>(t) / static_cast<double>(sim::kMicrosecond);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

void escape_into(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void meta_event(std::string& out, const char* kind, int pid,
                std::uint64_t tid, std::string_view name) {
  out += "  {\"name\": \"";
  out += kind;
  out += "\", \"ph\": \"M\", \"pid\": " + std::to_string(pid) +
         ", \"tid\": " + std::to_string(tid) + ", \"args\": {\"name\": \"";
  escape_into(out, name);
  out += "\"}},\n";
}

/// Shared argument block so every X/i event has one JSON shape.
void args_block(std::string& out, SpanId id, SpanId parent,
                std::string_view detail) {
  out += "\"args\": {\"id\": " + std::to_string(id) +
         ", \"parent\": " + std::to_string(parent) + ", \"detail\": \"";
  escape_into(out, detail);
  out += "\"}";
}

}  // namespace

std::string to_chrome_trace_json(const Tracer& tracer) {
  // Open spans are clamped to the latest recorded timestamp so the trace
  // stays well-formed even when a component outlived the capture.
  sim::Time latest = 0;
  for (const SpanRecord& s : tracer.spans()) {
    latest = std::max(latest, s.open() ? s.begin : s.end);
  }
  for (const InstantRecord& i : tracer.instants()) {
    latest = std::max(latest, i.at);
  }

  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";

  // Track/lane names. Records may reference nodes never explicitly named;
  // collect those too so every track gets a label.
  std::map<int, std::string> tracks = tracer.track_names();
  for (const SpanRecord& s : tracer.spans()) {
    tracks.emplace(track_of(s.node), "node" + std::to_string(s.node));
  }
  for (const InstantRecord& i : tracer.instants()) {
    tracks.emplace(track_of(i.node), "node" + std::to_string(i.node));
  }
  tracks[kSimTrack] = "sim";
  for (const auto& [node, name] : tracks) {
    meta_event(out, "process_name", track_of(node), 0, name);
  }
  for (const auto& [key, name] : tracer.lane_names()) {
    meta_event(out, "thread_name", track_of(key.first), key.second, name);
  }

  for (const SpanRecord& s : tracer.spans()) {
    const sim::Time end = s.open() ? latest : s.end;
    out += "  {\"name\": \"";
    escape_into(out, s.name);
    out += "\", \"cat\": \"";
    escape_into(out, s.category);
    out += "\", \"ph\": \"X\", \"ts\": " + num(to_us(s.begin)) +
           ", \"dur\": " + num(to_us(end - s.begin)) +
           ", \"pid\": " + std::to_string(track_of(s.node)) +
           ", \"tid\": " + std::to_string(s.pid) + ", ";
    // A closed span shows its end label when it has one.
    args_block(out, s.id, s.parent,
               s.open() ? s.detail + " [open]"
                        : s.end_detail.value_or(s.detail));
    out += "},\n";
  }

  for (const InstantRecord& i : tracer.instants()) {
    out += "  {\"name\": \"";
    escape_into(out, i.name);
    out += "\", \"cat\": \"";
    escape_into(out, i.category);
    out += "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " + num(to_us(i.at)) +
           ", \"pid\": " + std::to_string(track_of(i.node)) +
           ", \"tid\": " + std::to_string(i.pid) + ", ";
    args_block(out, kNoSpan, i.parent, i.detail);
    out += "},\n";
  }

  // Trailing comma is legal in the trace-event format, but keep the
  // document strict JSON for the golden-schema gate.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]\n}\n";
  return out;
}

Status write_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status(Rc::Esys, "cannot open trace output: " + path);
  }
  const std::string doc = to_chrome_trace_json(tracer);
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  if (written != doc.size()) {
    return Status(Rc::Esys, "short write to trace output: " + path);
  }
  return Status::ok();
}

}  // namespace lmon::obs
