// metrics.hpp - counters/gauges/histograms for the simulated stack.
//
// A Metrics registry attached to a cluster::Machine collects protocol-level
// quantities the spans cannot: bytes per link, messages per channel, ICCL
// connect-backoff retries, early-arrival buffer depth, rendezvous chunks
// relayed. Snapshots embed into the golden-schema'd bench --json reports as
// arrays of {name, value} objects, so the *schema* stays stable as
// instruments come and go (only the name set drifts, which the shape
// reducer collapses).
//
// Like the tracer, recording is purely observational: no simulator events,
// no cost charges. Instruments are named hierarchically
// ("net.link.a->b.bytes"); emission is sorted by name, so output is
// deterministic.
//
// Counting disciplines (double-count audit). Multi-hop fabrics make it easy
// to count one payload once per hop and then read the total as traffic
// volume. Every counter below picks exactly one discipline, and new
// instruments must declare theirs:
//
// - Injected-once: incremented at the instant a payload *enters* the plane,
//   never on relay. "iccl.gather_bytes_contributed" counts each rank's
//   contribution exactly once (at Iccl::contribute); summed over the fleet
//   it equals the application-level gather size regardless of tree depth.
// - Per-hop: incremented at every traversal, so the value scales with tree
//   depth by design. "iccl.gather_bytes_relayed"/"iccl.gather_chunks_relayed"
//   count cut-through forwarding work at interior ranks;
//   "net.bytes_total"/"net.link.*" count wire traffic per link. Per-hop ÷
//   injected-once is the fabric's effective relay amplification.
// - Per-endpoint-event: incremented once per protocol event at one endpoint
//   ("iccl.gather_rts_sent" at the announcer, "iccl.gather_cts_sent" at the
//   clearer, "iccl.gather_chunks_received" at every receiver - the receive
//   side of the per-hop pair, root assembly included).
//   "tbon.up_parts"/"tbon.up_part_bytes" count UpPart packets where they
//   are *received*; an interior fold rewrites the payload before any
//   re-flush, so there is no injected-once byte identity to preserve - the
//   pair measures partial-aggregate traffic into endpoints, while
//   "tbon.part_flushes" tallies the early-flush decisions at senders.
// - Occurrence: plain event tallies with no byte meaning
//   ("iccl.gather_drops", "iccl.children_lost", "tbon.part_flushes",
//   "tbon.rounds_reduced").
//
// Thus "bytes a gather moved end-to-end" is gather_bytes_contributed, and
// "bytes the fabric worked to move it" is contributed + relayed; adding
// received-side byte counters on top of these would double-count.
//
// Self-heal instruments (iccl.heal.*). Occurrence counters:
// "iccl.heal.orphaned" (a daemon lost its post-ready parent and started a
// climb), "iccl.heal.reattaches"/"iccl.heal.reattach_retries"/
// "iccl.heal.give_ups" (orphan side of the climb outcome). These four and
// "iccl.connect_retries" are counted by comm::TreeNode, which both trees
// share, so the TBON has the same five under "tbon.".
// "iccl.heal.adoptions" (adopter side; equals reattaches fleet-wide),
// "iccl.heal.slots_opened"/"iccl.heal.slots_resolved"/
// "iccl.heal.grace_expired" (dead-child adoption slots),
// "iccl.heal.gather_reannounces"/"iccl.heal.gather_resumes"/
// "iccl.heal.gather_resumes_sent" (gather recovery handshakes),
// "iccl.heal.bcast_replays", "iccl.heal.leaves"/
// "iccl.heal.leaves_observed" (elastic shrink). Byte counters
// "iccl.heal.bcast_replay_bytes"/"iccl.heal.gather_requeued_bytes" are
// per-link *re-send* volume (the recovery overhead), NOT injected-once:
// they deliberately re-count payload bytes the normal-path counters
// already saw, so replay-bytes ÷ injected-once bytes reads directly as
// the fault's data-plane overhead ratio.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace lmon::obs {

class Metrics {
 public:
  struct Histogram {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void observe(double v) noexcept {
      if (count == 0) {
        min = max = v;
      } else {
        if (v < min) min = v;
        if (v > max) max = v;
      }
      count += 1;
      sum += v;
    }
    [[nodiscard]] double mean() const noexcept {
      return count != 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };

  /// Monotonic counter increment.
  void add(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }
  /// Last-write-wins gauge.
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  /// Distribution sample.
  void observe(const std::string& name, double value) {
    histograms_[name].observe(value);
  }

  [[nodiscard]] double counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double gauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const Histogram* histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const std::map<std::string, double>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

  /// Deterministic JSON snapshot:
  ///   {"counters": [{"name": ..., "value": ...}, ...],
  ///    "gauges": [...],
  ///    "histograms": [{"name", "count", "sum", "min", "max"}, ...]}
  /// `indent` spaces prefix every emitted line (for embedding in a larger
  /// hand-rolled document).
  [[nodiscard]] std::string to_json(int indent = 0) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace lmon::obs
