#include "tbon/filter.hpp"

#include <algorithm>

namespace lmon::tbon {

namespace {

/// Length-prefixed concat. Inputs that are themselves concat frames are
/// spliced, so the root sees one flat list regardless of tree shape;
/// malformed inputs contribute nothing.
class ConcatReduction final : public Reduction {
 public:
  ConcatReduction() { w_.u32(0); }  // part count, patched by take()

  void add(const Bytes& data) override {
    for_each_concat_part(data, [this](std::span<const std::uint8_t> part) {
      w_.blob(part);
      ++count_;
    });
  }
  [[nodiscard]] std::size_t packed_size() const override { return w_.size(); }
  Bytes take() override {
    w_.patch_u32(0, count_);
    Bytes out = std::move(w_).take();
    w_ = ByteWriter{};
    w_.u32(0);
    count_ = 0;
    return out;
  }

 private:
  ByteWriter w_;
  std::uint32_t count_ = 0;
};

/// Element-wise u64 sum or max; a trailing partial word is ignored and a
/// longer input extends the vector.
class ElementwiseU64Reduction final : public Reduction {
 public:
  explicit ElementwiseU64Reduction(bool take_max) : take_max_(take_max) {}

  void add(const Bytes& data) override {
    ByteReader r(data);
    for (std::size_t i = 0; r.remaining() >= 8; ++i) {
      const std::uint64_t v = *r.u64();
      if (i >= acc_.size()) {
        acc_.push_back(v);
      } else if (take_max_) {
        acc_[i] = std::max(acc_[i], v);
      } else {
        acc_[i] += v;
      }
    }
  }
  [[nodiscard]] std::size_t packed_size() const override {
    return acc_.size() * 8;
  }
  Bytes take() override {
    ByteWriter w(packed_size());
    for (std::uint64_t v : acc_) w.u64(v);
    acc_.clear();
    return std::move(w).take();
  }

 private:
  bool take_max_;
  std::vector<std::uint64_t> acc_;
};

}  // namespace

bool is_concat_frame(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  auto count = r.u32();
  if (!count) return false;
  for (std::uint32_t i = 0; i < *count; ++i) {
    if (!r.blob_view()) return false;
  }
  return r.exhausted();
}

Bytes concat_payloads(const std::vector<Bytes>& inputs) {
  ConcatReduction concat;
  for (const auto& in : inputs) concat.add(in);
  return concat.take();
}

std::vector<Bytes> split_concat(const Bytes& data) {
  std::vector<Bytes> out;
  for_each_concat_part(data, [&out](std::span<const std::uint8_t> part) {
    out.emplace_back(part.begin(), part.end());
  });
  return out;
}

Bytes wrap_leaf_payload(const Bytes& payload) {
  ByteWriter w(8 + payload.size());
  w.u32(1);
  w.blob(payload);
  return std::move(w).take();
}

FilterRegistry::FilterRegistry() {
  filters_.push_back(Entry{
      kFilterConcat, [] { return std::make_unique<ConcatReduction>(); },
      true});
  filters_.push_back(Entry{kFilterSumU64,
                           [] {
                             return std::make_unique<ElementwiseU64Reduction>(
                                 /*take_max=*/false);
                           },
                           false});
  filters_.push_back(Entry{kFilterMaxU64,
                           [] {
                             return std::make_unique<ElementwiseU64Reduction>(
                                 /*take_max=*/true);
                           },
                           false});
}

FilterRegistry& FilterRegistry::instance() {
  static FilterRegistry reg;
  return reg;
}

void FilterRegistry::register_filter(std::uint32_t id, ReductionFactory make,
                                     bool framed) {
  for (auto& e : filters_) {
    if (e.id == id) {
      e.make = std::move(make);
      e.framed = framed;
      return;
    }
  }
  filters_.push_back(Entry{id, std::move(make), framed});
}

const FilterRegistry::Entry* FilterRegistry::find(std::uint32_t id) const {
  for (const auto& e : filters_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

bool FilterRegistry::framed(std::uint32_t id) const {
  const Entry* e = find(id);
  return e == nullptr || e->framed;  // unknown ids fall back to concat
}

std::unique_ptr<Reduction> FilterRegistry::make(std::uint32_t id) const {
  const Entry* e = find(id);
  if (e == nullptr) return std::make_unique<ConcatReduction>();
  return e->make();
}

Bytes apply(std::uint32_t id, const std::vector<Bytes>& inputs) {
  auto reduction = FilterRegistry::instance().make(id);
  for (const auto& in : inputs) reduction->add(in);
  return reduction->take();
}

}  // namespace lmon::tbon
