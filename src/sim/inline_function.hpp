// Small-buffer-optimized, move-only callable: the event engine's closure
// type.
//
// Every simulated event is a callback; with std::function each capture
// larger than the library's tiny internal buffer costs a heap allocation
// and a matching free on the hot path. InlineFunction<N> stores any
// callable of up to N bytes inline (the default sim::Action gives 104
// bytes, enough for the per-frame closures that carry a net::Frame by
// value) and only falls back to the heap for oversized captures. The
// fallback is counted per thread so tests and benchmarks can assert the
// steady-state hot path allocates nothing.
//
// Move-only by design: event callbacks execute once and are never shared,
// so requiring movability (not copyability) both avoids accidental capture
// duplication and admits move-only captures (e.g. a net::Buffer moved into
// the closure).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace clicsim::sim {

template <std::size_t N>
class InlineFunction;

namespace detail {

// Wrapper types whose own emptiness must carry over when converted to an
// InlineFunction: wrapping an empty std::function would otherwise produce a
// non-empty InlineFunction that throws when invoked, defeating the
// `if (cb) cb();` guards callers rely on.
template <typename T>
struct is_nullable_callable : std::false_type {};
template <typename Sig>
struct is_nullable_callable<std::function<Sig>> : std::true_type {};
template <std::size_t M>
struct is_nullable_callable<InlineFunction<M>> : std::true_type {};

// Per-thread tallies of InlineFunction heap fallbacks. A Simulator is
// single-threaded, so a thread-local (rather than atomic) counter is exact
// for the simulation that owns the thread and costs nothing when unused.
struct InlineFunctionStats {
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_frees = 0;
};

inline thread_local InlineFunctionStats inline_function_stats;

}  // namespace detail

[[nodiscard]] inline std::uint64_t inline_function_heap_allocs() {
  return detail::inline_function_stats.heap_allocs;
}

template <std::size_t N>
class InlineFunction {
  struct VTable {
    void (*call)(void* storage);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    // sizeof(F) when F is inline, trivially copyable and trivially
    // destructible — the dominant case for event closures. Moves then
    // memcpy and destruction is a no-op, skipping the indirect calls.
    std::uint32_t trivial_size;
    bool inline_stored;
  };

  template <typename F, bool Inline>
  struct Manager {
    static F* object(void* storage) noexcept {
      if constexpr (Inline) {
        return std::launder(reinterpret_cast<F*>(storage));
      } else {
        return *static_cast<F**>(storage);
      }
    }
    static void call(void* storage) { (*object(storage))(); }
    static void relocate(void* dst, void* src) noexcept {
      if constexpr (Inline) {
        ::new (dst) F(std::move(*object(src)));
        object(src)->~F();
      } else {
        *static_cast<F**>(dst) = object(src);
      }
    }
    static void destroy(void* storage) noexcept {
      if constexpr (Inline) {
        object(storage)->~F();
      } else {
        delete object(storage);
        ++detail::inline_function_stats.heap_frees;
      }
    }
    static constexpr VTable vtable{
        &call, &relocate, &destroy,
        Inline && std::is_trivially_copyable_v<F> &&
                std::is_trivially_destructible_v<F>
            ? static_cast<std::uint32_t>(sizeof(F))
            : 0u,
        Inline};
  };

  void destroy_stored() noexcept {
    if (vtable_ != nullptr && vtable_->trivial_size == 0) {
      vtable_->destroy(storage_);
    }
  }

  void adopt(InlineFunction& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      if (vtable_->trivial_size != 0) {
        // A stateless callable (empty lambda) never wrote its storage;
        // copying those indeterminate bytes is harmless but trips GCC's
        // -Wmaybe-uninitialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
        std::memcpy(storage_, other.storage_, vtable_->trivial_size);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
      } else {
        vtable_->relocate(storage_, other.storage_);
      }
      other.vtable_ = nullptr;
    }
  }

 public:
  static constexpr std::size_t inline_capacity = N;

  // User-provided (not `= default`) so that value-initialization — the
  // ubiquitous `Action done = {}` default argument — does not zero the
  // inline buffer on every call.
  InlineFunction() noexcept {}
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit)
    construct_from(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { adopt(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      destroy_stored();
      adopt(other);
    }
    return *this;
  }

  // Assigning a callable directly constructs it in place — the event slab
  // overwrites recycled slots this way without materializing and moving a
  // temporary InlineFunction.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  InlineFunction& operator=(F&& f) {
    destroy_stored();
    vtable_ = nullptr;
    construct_from(std::forward<F>(f));
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    destroy_stored();
    vtable_ = nullptr;
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { destroy_stored(); }

  void operator()() { vtable_->call(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }

  // True when the callable lives in the inline buffer (test observability).
  [[nodiscard]] bool is_inline() const noexcept {
    return vtable_ != nullptr && vtable_->inline_stored;
  }

 private:
  template <typename F>
  void construct_from(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (detail::is_nullable_callable<D>::value) {
      if (!f) return;  // an empty wrapper converts to an empty InlineFunction
    }
    constexpr bool fits = sizeof(D) <= N &&
                          alignof(D) <= alignof(std::max_align_t) &&
                          std::is_nothrow_move_constructible_v<D>;
    if constexpr (fits) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ++detail::inline_function_stats.heap_allocs;
    }
    vtable_ = &Manager<D, fits>::vtable;
  }

  const VTable* vtable_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[N];
};

// The engine-wide event callback type. 104 bytes holds the largest hot
// closures (this + handler + a net::Frame by value); anything bigger takes
// the counted heap fallback.
using Action = InlineFunction<104>;

// Invokes `done` once `count` completions have arrived (the last fragment
// of a message leaving DMA, say). Returns a copyable std::function on
// purpose: the join is handed to several parties, and each copy converts
// to an Action (16-byte shared_ptr capture) at its point of use.
inline std::function<void()> make_join(int count, Action done) {
  struct State {
    int remaining;
    Action done;
  };
  auto state = std::make_shared<State>(State{count, std::move(done)});
  return [state] {
    if (--state->remaining == 0 && state->done) state->done();
  };
}

}  // namespace clicsim::sim
