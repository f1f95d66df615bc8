// filter.hpp - TBON upstream reduction filters.
//
// MRNet's defining feature: data flowing toward the root is reduced at each
// internal node by a filter, so the FE sees aggregate state instead of N
// raw messages. A filter is a Reduction factory registered globally by id
// so comm-node daemons can look it up (real MRNet loads filters from
// shared objects). Each hop keeps one Reduction per open round and feeds
// it every child payload as it arrives, so the hop's cost is linear in the
// bytes it receives rather than (children x aggregate).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace lmon::tbon {

/// One round's running reduction at one hop. Implementations keep their
/// state decoded between add()s; the contract every filter must meet is
/// that any interleaving of add() and take() produces, at the parent, the
/// same bytes as one reduction fed every input (associativity), which is
/// what lets hops stream partial aggregates upward.
class Reduction {
 public:
  virtual ~Reduction() = default;
  /// Absorbs one child payload or UpPart.
  virtual void add(const Bytes& data) = 0;
  /// Exactly take().size() right now; the chunk-flush decision reads it.
  [[nodiscard]] virtual std::size_t packed_size() const = 0;
  /// Encodes everything absorbed since the last take() and resets.
  virtual Bytes take() = 0;
};

using ReductionFactory = std::function<std::unique_ptr<Reduction>()>;

// Built-in filter ids.
inline constexpr std::uint32_t kFilterConcat = 0;  ///< length-prefixed concat
inline constexpr std::uint32_t kFilterSumU64 = 1;  ///< element-wise u64 sum
inline constexpr std::uint32_t kFilterMaxU64 = 2;  ///< element-wise u64 max
// Tool-registered filters start here (STAT registers its merge at 100).
inline constexpr std::uint32_t kFilterUserBase = 100;

class FilterRegistry {
 public:
  static FilterRegistry& instance();

  /// `framed`: whether the filter operates on concat frames (leaf payloads
  /// get wrapped before entering the stream; concat-style and structured
  /// merge filters want this) or on raw payloads (element-wise reductions
  /// like sum/max).
  void register_filter(std::uint32_t id, ReductionFactory make,
                       bool framed = true);
  [[nodiscard]] bool framed(std::uint32_t id) const;

  /// A fresh reduction for filter `id`; unknown ids fall back to concat
  /// (safe default).
  [[nodiscard]] std::unique_ptr<Reduction> make(std::uint32_t id) const;

 private:
  struct Entry {
    std::uint32_t id;
    ReductionFactory make;
    bool framed;
  };
  FilterRegistry();
  [[nodiscard]] const Entry* find(std::uint32_t id) const;
  std::vector<Entry> filters_;
};

/// Reduces `inputs` with filter `id` in one go: make, add each, take.
[[nodiscard]] Bytes apply(std::uint32_t id, const std::vector<Bytes>& inputs);

/// Concat encoding helpers (the default filter frames inputs so they can be
/// split again at the root).
Bytes concat_payloads(const std::vector<Bytes>& inputs);
std::vector<Bytes> split_concat(const Bytes& data);
/// Leaf payloads must be wrapped before entering a concat-filtered stream.
Bytes wrap_leaf_payload(const Bytes& payload);

/// True when `frame` is a well-formed concat frame with no trailing bytes.
[[nodiscard]] bool is_concat_frame(std::span<const std::uint8_t> frame);

/// Calls `fn(part)` for each part of a concat frame, in order, with a view
/// into `frame`. A malformed frame yields no parts, as in split_concat.
template <typename Fn>
void for_each_concat_part(std::span<const std::uint8_t> frame, Fn&& fn) {
  if (!is_concat_frame(frame)) return;
  ByteReader r(frame);
  const std::uint32_t count = *r.u32();
  for (std::uint32_t i = 0; i < count; ++i) fn(*r.blob_view());
}

}  // namespace lmon::tbon
