#include "obs/trace.hpp"

namespace lmon::obs {

SpanId Tracer::begin_span(std::string name, std::string category, int node,
                          std::uint64_t pid, SpanId parent,
                          std::string detail) {
  SpanRecord rec;
  rec.id = static_cast<SpanId>(spans_.size() + 1);
  rec.parent = parent;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.detail = std::move(detail);
  rec.node = node;
  rec.pid = pid;
  rec.begin = sim_.now();
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::end_span(SpanId id) {
  if (id == kNoSpan || id > spans_.size()) return;
  SpanRecord& rec = spans_[id - 1];
  if (!rec.open()) return;
  rec.end = sim_.now();
}

void Tracer::end_span(SpanId id, std::string detail) {
  if (id == kNoSpan || id > spans_.size()) return;
  spans_[id - 1].end_detail = std::move(detail);
  end_span(id);
}

void Tracer::instant(std::string name, std::string category, int node,
                     std::uint64_t pid, SpanId parent, std::string detail) {
  InstantRecord rec;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.detail = std::move(detail);
  rec.node = node;
  rec.pid = pid;
  rec.at = sim_.now();
  rec.parent = parent;
  instants_.push_back(std::move(rec));
}

void Tracer::mark(const std::string& label) {
  marks_.mark(label, sim_.now());
  instant(label, "mark", -1, 0);
}

void Tracer::charge(const std::string& label, sim::Time amount) {
  charges_.charge(label, amount);
}

void Tracer::log_line(sim::LogLevel lv, sim::Time at,
                      std::string_view component, std::string_view message) {
  InstantRecord rec;
  rec.name = std::string(component);
  rec.category = "log";
  rec.detail = std::string(message);
  rec.at = at;
  rec.pid = static_cast<std::uint64_t>(lv);  // lane per level on the log track
  instants_.push_back(std::move(rec));
}

const SpanRecord* Tracer::span(SpanId id) const {
  if (id == kNoSpan || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

const SpanRecord* Tracer::find_span(std::string_view name) const {
  for (const SpanRecord& s : spans_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

LogBridge::LogBridge(Tracer& tracer) {
  sim::Log::set_tap([&tracer](sim::LogLevel lv, sim::Time at,
                              std::string_view component,
                              std::string_view message) {
    tracer.log_line(lv, at, component, message);
  });
}

LogBridge::~LogBridge() { sim::Log::set_tap(nullptr); }

}  // namespace lmon::obs
