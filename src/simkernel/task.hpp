// task.hpp - move-only callables with inline storage for the kernel.
//
// Every scheduled event, every deferred delivery and the log sinks hold one
// of these instead of a heap-backed function wrapper. A callable whose
// closure fits in kInlineBytes (and moves without throwing) lives inside the
// object, so scheduling it allocates nothing; a larger one is boxed on the
// heap.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lmon::sim {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Sized for the two hottest closures: a message in flight,
  /// {ChannelPtr, Pid, Message} = 16 + 8 + 56 bytes (Channel::send), and
  /// Process::post's {Process*, continuation} wrapper around the common
  /// protocol continuations.
  static constexpr std::size_t kInlineBytes = 80;

  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: implicit

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT: implicit
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
  }
  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(o.buf_, buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Precondition: non-empty.
  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs the callable into `to` and destroys it in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p, Args&&... args) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        D* src = static_cast<D*>(from);
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); }};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p, Args&&... args) -> R {
        return (**static_cast<D**>(p))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        ::new (to) D*(*static_cast<D**>(from));
      },
      [](void* p) noexcept { delete *static_cast<D**>(p); }};

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// A scheduled event's body: one call, no result.
using Task = InlineFunction<void()>;

}  // namespace lmon::sim
