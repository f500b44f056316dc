// Move-only type-erased callable with inline small-buffer storage.
//
// Simulator events and packet deliveries are the hottest allocation sites in
// the whole system: a study pass schedules tens of millions of callbacks, and
// std::function heap-allocates any capture list over ~16 bytes. BasicSmallFn
// keeps the callable in place inside its owner and falls back to the heap only
// for oversized captures.
//
// Two widths are used:
//  * SmallFn (64 bytes inline) is the callback type of the network and
//    transport layers. The largest hot capture, a transport data delivery
//    (connection shared_ptr, direction, packet number, 32-byte chunk), is
//    exactly 64 bytes.
//  * EventFn (96 bytes inline) is what a Simulator slot stores. It holds a
//    whole SmallFn plus a next-hop forwarding header (net::Link), so a packet
//    crossing two links never leaves the slot arena.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace h3cdn::sim {

template <std::size_t InlineBytes>
class BasicSmallFn {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;

  BasicSmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicSmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  BasicSmallFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof heap);
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  BasicSmallFn(BasicSmallFn&& other) noexcept { move_from(other); }

  BasicSmallFn& operator=(BasicSmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  BasicSmallFn(const BasicSmallFn&) = delete;
  BasicSmallFn& operator=(const BasicSmallFn&) = delete;

  ~BasicSmallFn() { reset(); }

  /// True when a callable is held.
  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// Destroys the held callable (if any) and returns to the empty state.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Whether a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move dst <- src, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* self(void* b) { return std::launder(reinterpret_cast<Fn*>(b)); }
    static void invoke(void* b) { (*self(b))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*self(src)));
      self(src)->~Fn();
    }
    static void destroy(void* b) noexcept { self(b)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* self(void* b) {
      Fn* p;
      std::memcpy(&p, b, sizeof p);
      return p;
    }
    static void invoke(void* b) { (*self(b))(); }
    static void relocate(void* dst, void* src) noexcept {
      std::memcpy(dst, src, sizeof(Fn*));  // pointer hop: just move the pointer
    }
    static void destroy(void* b) noexcept { delete self(b); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void move_from(BasicSmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

using SmallFn = BasicSmallFn<64>;
using EventFn = BasicSmallFn<96>;

}  // namespace h3cdn::sim
