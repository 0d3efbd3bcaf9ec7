// Per-simulation packet-buffer arena.
//
// The paper's core claim is that CLIC wins by stripping per-packet protocol
// work; the simulator must not re-introduce it on the host side. A
// BufferPool recycles the two allocations the packet path makes per frame —
// the byte storage behind a data-carrying net::Buffer and the type-erased
// protocol-header record behind a net::HeaderBlob — through size-class
// freelists, so steady-state traffic touches the global heap only while the
// pool is warming up.
//
// Ownership model:
//   * Blocks are intrusively reference-counted (non-atomic: a block never
//     leaves the simulation that allocated it, and a Simulator is
//     single-threaded by contract — the same confinement argument the
//     parallel sweep harness relies on for TSan cleanliness).
//   * Each block records its home pool; the final release returns it to
//     that pool's freelist no matter which pool is "current" by then.
//   * Pools are strictly per-simulation: testbeds own one and install it
//     as the thread-current pool for their lifetime (BufferPool::Scope,
//     LIFO nesting). Two concurrently-running simulations on different
//     threads therefore never share a freelist.
//   * Live blocks are tracked on an intrusive list: outstanding() exposes
//     handles still alive (the leak check at Simulator teardown), and a
//     dying pool orphans any survivors (their final release then falls
//     back to the global heap instead of touching freed pool memory).
//
// Bypass: setting CLICSIM_NO_POOL in the environment (or
// BufferPool::set_pooling_enabled(false) from tests) makes every Scope
// install no pool, so all allocations take the plain heap path. Simulation
// results are bitwise identical either way — the determinism suite pins
// that invariant.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <typeinfo>
#include <vector>

namespace clicsim::net {

class BufferPool;

namespace detail {

// Storage behind a data-carrying net::Buffer. The vector keeps its
// capacity while parked in a freelist, so a recycled block is handed out
// without touching the allocator.
struct DataBlock {
  std::uint32_t refs = 0;
  std::uint8_t size_class = 0;
  // Shared-immutable variant (copy-on-write flood fan-out): refcounted
  // through `shared_refs` (atomic) instead of `refs`, never pooled, never
  // mutated after mint, freed with a plain delete by whichever thread drops
  // the last reference. The flag itself is written once before the block is
  // published (the shard barrier provides the happens-before edge).
  bool shared = false;
  std::atomic<std::uint32_t> shared_refs{0};
  BufferPool* pool = nullptr;  // home pool; nullptr == plain heap block
  DataBlock* live_prev = nullptr;
  DataBlock* live_next = nullptr;
  std::vector<std::byte> bytes;
};

// Storage behind a net::HeaderBlob: an intrusive header followed by the
// in-place protocol-header object (alignment guaranteed by alignas +
// sizeof being a multiple of max_align_t).
struct alignas(std::max_align_t) HeaderRec {
  std::uint32_t refs = 0;
  std::uint8_t size_class = 0;
  BufferPool* pool = nullptr;
  HeaderRec* live_prev = nullptr;
  HeaderRec* live_next = nullptr;
  void (*destroy)(void*) = nullptr;
  // Deep-copies the record into a fresh unpooled one (net::HeaderBlob::of
  // installs it alongside destroy). Used by Frame::detach() when a frame
  // crosses a shard boundary: the copy's final release goes through the
  // global heap, so it may safely die on a different thread than the
  // (thread-confined, non-atomic-refcounted) original.
  HeaderRec* (*clone)(const HeaderRec*) = nullptr;
  const std::type_info* type = nullptr;

  [[nodiscard]] void* payload() { return this + 1; }
  [[nodiscard]] const void* payload() const { return this + 1; }
};

// Mint/recycle entry points (pool-aware via BufferPool::current()).
[[nodiscard]] DataBlock* acquire_data_block(std::int64_t size);
[[nodiscard]] DataBlock* adopt_data_block(std::vector<std::byte> bytes);
[[nodiscard]] HeaderRec* acquire_header_rec(std::size_t payload_bytes);

// Pool-bypassing mints for cross-shard detach copies: the block/record is a
// plain heap allocation with no home pool, so its final release (possibly
// on another thread) never touches a thread-confined freelist. The data
// block is minted holding a copy of `bytes`, each byte written once.
[[nodiscard]] DataBlock* acquire_data_block_unpooled(
    std::span<const std::byte> bytes);
[[nodiscard]] HeaderRec* acquire_header_rec_unpooled(std::size_t payload_bytes);

// Shared-immutable mint (see DataBlock::shared) of a copy of `bytes`: one
// payload copy that any number of frames on any shards may alias — the
// copy-on-write flood path and, via Frame::detach, every cross-shard
// unicast payload.
[[nodiscard]] DataBlock* acquire_data_block_shared(
    std::span<const std::byte> bytes);

// Payload-copy accounting (process-wide, atomic): how many byte-carrying
// blocks were deep-copied into unpooled confinement (Buffer::detached —
// now only explicit thread-crossing snapshots, never the frame path) and
// how many shared-immutable conversions happened. The COW accounting tests
// read deltas to prove floods copy O(1) per frame, not O(ports), and that
// cross-shard unicast performs zero payload deep-copies.
[[nodiscard]] std::uint64_t unpooled_data_copies() noexcept;
[[nodiscard]] std::uint64_t shared_data_mints() noexcept;

// Final-release paths (refcount hit zero).
void free_data_block(DataBlock* block) noexcept;
void free_header_rec(HeaderRec* rec) noexcept;

inline void ref(DataBlock* b) noexcept {
  if (b == nullptr) return;
  if (b->shared) {
    b->shared_refs.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++b->refs;
  }
}
inline void ref(HeaderRec* r) noexcept {
  if (r != nullptr) ++r->refs;
}
inline void unref(DataBlock* b) noexcept {
  if (b == nullptr) return;
  if (b->shared) {
    if (b->shared_refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      free_data_block(b);
    }
    return;
  }
  if (--b->refs == 0) free_data_block(b);
}
inline void unref(HeaderRec* r) noexcept {
  if (r != nullptr && --r->refs == 0) free_header_rec(r);
}

// Intrusive refcounted handle shared by Buffer (DataBlock) and HeaderBlob
// (HeaderRec). adopt() takes over a reference the mint already counted.
template <typename Rec>
class Ref {
 public:
  Ref() = default;
  static Ref adopt(Rec* rec) noexcept {
    Ref r;
    r.rec_ = rec;
    return r;
  }
  Ref(const Ref& o) noexcept : rec_(o.rec_) { ref(rec_); }
  Ref(Ref&& o) noexcept : rec_(o.rec_) { o.rec_ = nullptr; }
  Ref& operator=(const Ref& o) noexcept {
    if (this != &o) {
      Rec* old = rec_;
      rec_ = o.rec_;
      ref(rec_);
      unref(old);
    }
    return *this;
  }
  Ref& operator=(Ref&& o) noexcept {
    if (this != &o) {
      Rec* old = rec_;
      rec_ = o.rec_;
      o.rec_ = nullptr;
      unref(old);
    }
    return *this;
  }
  ~Ref() { unref(rec_); }

  [[nodiscard]] Rec* get() const noexcept { return rec_; }
  [[nodiscard]] Rec* operator->() const noexcept { return rec_; }
  explicit operator bool() const noexcept { return rec_ != nullptr; }

 private:
  Rec* rec_ = nullptr;
};

using BlockRef = Ref<DataBlock>;
using HeaderRef = Ref<HeaderRec>;

}  // namespace detail

class BufferPool {
 public:
  struct Stats {
    std::uint64_t data_heap_allocs = 0;   // data blocks minted from the heap
    std::uint64_t data_reuses = 0;        // data blocks served from freelists
    std::uint64_t header_heap_allocs = 0; // header records minted
    std::uint64_t header_reuses = 0;      // header records served recycled
    std::int64_t outstanding = 0;         // live handles (data + header)
    std::int64_t high_water = 0;          // max simultaneous live handles
    std::int64_t parked = 0;              // blocks waiting in freelists
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  [[nodiscard]] Stats stats() const;
  // Handles still alive; nonzero at simulation teardown means a Buffer or
  // HeaderBlob escaped its simulation (the accounting tests fail on it).
  [[nodiscard]] std::int64_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::int64_t high_water() const { return high_water_; }

  // The pool new allocations on this thread are served from (may be null).
  [[nodiscard]] static BufferPool* current() noexcept;

  // Pool-bypass debug switch: CLICSIM_NO_POOL in the environment disables
  // pooling process-wide; set_pooling_enabled() overrides the environment
  // (tests use it to compare pooled vs unpooled runs in one process).
  [[nodiscard]] static bool pooling_enabled() noexcept;
  static void set_pooling_enabled(bool enabled) noexcept;
  static void clear_pooling_override() noexcept;

  // Installs `pool` as the thread-current pool for the scope's lifetime
  // (no-op when pooling is bypassed). Scopes must nest LIFO per thread —
  // the testbeds hold one as their first member, which guarantees it.
  class Scope {
   public:
    explicit Scope(BufferPool* pool) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    BufferPool* prev_;
  };

 private:
  friend detail::DataBlock* detail::acquire_data_block(std::int64_t);
  friend detail::DataBlock* detail::adopt_data_block(std::vector<std::byte>);
  friend detail::HeaderRec* detail::acquire_header_rec(std::size_t);
  friend detail::HeaderRec* detail::acquire_header_rec_unpooled(std::size_t);
  friend void detail::free_data_block(detail::DataBlock*) noexcept;
  friend void detail::free_header_rec(detail::HeaderRec*) noexcept;

  // Size classes are powers of two starting at 64 bytes. Data blocks span
  // 64 B .. 1 GiB; header records 64 .. 512 B (larger headers go straight
  // to the heap — none exist today).
  static constexpr int kDataClasses = 25;
  static constexpr int kHeaderClasses = 4;
  static constexpr std::size_t kClassBase = 64;
  // Freelists are capped per class so a burst does not pin memory forever.
  static constexpr std::size_t kMaxParkedPerClass = 64;

  static int data_class_of(std::int64_t size) noexcept;
  static int header_class_of(std::size_t size) noexcept;

  detail::DataBlock* get_data(std::int64_t size);
  detail::DataBlock* adopt_data(std::vector<std::byte> bytes);
  void put_data(detail::DataBlock* block) noexcept;
  detail::HeaderRec* get_header(std::size_t payload_bytes);
  void put_header(detail::HeaderRec* rec) noexcept;

  void track_acquire() noexcept {
    ++outstanding_;
    high_water_ = std::max(high_water_, outstanding_);
  }

  std::vector<detail::DataBlock*> data_free_[kDataClasses];
  std::vector<detail::HeaderRec*> header_free_[kHeaderClasses];
  detail::DataBlock* live_data_ = nullptr;
  detail::HeaderRec* live_headers_ = nullptr;

  std::uint64_t data_heap_allocs_ = 0;
  std::uint64_t data_reuses_ = 0;
  std::uint64_t header_heap_allocs_ = 0;
  std::uint64_t header_reuses_ = 0;
  std::int64_t outstanding_ = 0;
  std::int64_t high_water_ = 0;
};

}  // namespace clicsim::net
