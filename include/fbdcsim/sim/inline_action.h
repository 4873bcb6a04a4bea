// Small-buffer-optimized event action: the type-erased callable the event
// engine stores per scheduled event.
//
// std::function heap-allocates any capture larger than its 16-byte inline
// buffer, which on the rack-sim hot path means one malloc/free per packet
// event (the Wire emit lambdas capture ~48 bytes). InlineAction widens the
// inline buffer to kInlineBytes so every capture the engine's clients use
// today — rack_sim, SharedBufferSwitch, the service models, PeriodicTimer —
// is stored in place; larger callables still work but fall back to the
// heap. Each run's end publishes both counts ("sim.events_inline" /
// "sim.events_heap") so the fallback is observable, and a scorecard-length
// run asserts the heap count stays zero (tests/sim/inline_action_test.cpp).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fbdcsim::sim {

class InlineAction {
 public:
  /// Inline storage for captures up to this size (the issue floor is 48;
  /// 56 gives the largest current capture — Hadoop's 48-byte stream-chunk
  /// lambda — headroom without growing sizeof(InlineAction) past 64).
  static constexpr std::size_t kInlineBytes = 56;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// Whether a callable of type F is stored inline (compile-time, so the
  /// engine's inline/heap counters are a deterministic property of the
  /// scheduled types). Requires nothrow move so that moving an
  /// InlineAction never throws. The engine itself never moves a queued
  /// action (it builds each one in place in its arena slot); the one move
  /// left is Simulator::schedule_at(TimePoint, Action&&) taking a
  /// pre-built action into its slot.
  template <typename F>
  static constexpr bool fits_inline = sizeof(F) <= kInlineBytes &&
                                      alignof(F) <= kInlineAlign &&
                                      std::is_nothrow_move_constructible_v<F>;

  InlineAction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineAction>>>
  InlineAction(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "InlineAction requires a nullary callable");
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
    }
    ops_ = ops_for<Fn>();
  }

  InlineAction(InlineAction&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
    other.ops_ = nullptr;
  }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }
  /// True when the callable lives in the inline buffer (false for the heap
  /// fallback or an empty action).
  [[nodiscard]] bool is_inline() const noexcept { return ops_ != nullptr && ops_->inlined; }

 private:
  /// One static table per callable type. `destroy` is null for an inline
  /// callable that is trivially destructible (a capture of pointers,
  /// references and scalars — most engine events), so reset() has no
  /// call to make; a heap-fallback callable always has one (the delete).
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
    /// Move-constructs the callable at dst from src, then destroys src
    /// (for the heap case: just moves the pointer).
    void (*relocate)(void* src, void* dst) noexcept;
    bool inlined;
  };

  template <typename Fn>
  [[nodiscard]] static const Ops* ops_for() noexcept {
    if constexpr (fits_inline<Fn>) {
      using Destroy = void (*)(void*) noexcept;
      static constexpr Destroy destroy = [](void* p) noexcept {
        std::launder(reinterpret_cast<Fn*>(p))->~Fn();
      };
      static constexpr Ops ops{
          [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
          std::is_trivially_destructible_v<Fn> ? nullptr : destroy,
          [](void* src, void* dst) noexcept {
            Fn* from = std::launder(reinterpret_cast<Fn*>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          },
          true};
      return &ops;
    } else {
      static constexpr Ops ops{
          [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
          [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); },
          [](void* src, void* dst) noexcept {
            ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
          },
          false};
      return &ops;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) std::byte storage_[kInlineBytes];
  const Ops* ops_{nullptr};
};

}  // namespace fbdcsim::sim
