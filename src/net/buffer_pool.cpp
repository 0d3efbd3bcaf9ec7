#include "net/buffer_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

namespace clicsim::net {

namespace {

// Thread-current pool: installed by BufferPool::Scope while a simulation
// (or test fixture) owns the thread. Per-thread by design — parallel sweep
// workers each drive their own simulation and therefore their own pool.
thread_local BufferPool* tls_current_pool = nullptr;

// Pooling override: -1 follows the environment, 0 forced off, 1 forced on.
std::atomic<int> pooling_override{-1};

// Payload-copy accounting (see buffer_pool.hpp): minted from any thread.
std::atomic<std::uint64_t> unpooled_data_mints{0};
std::atomic<std::uint64_t> shared_data_mint_count{0};

bool env_pooling_enabled() {
  static const bool enabled = std::getenv("CLICSIM_NO_POOL") == nullptr;
  return enabled;
}

template <typename Rec>
void live_link(Rec** head, Rec* rec) noexcept {
  rec->live_prev = nullptr;
  rec->live_next = *head;
  if (*head != nullptr) (*head)->live_prev = rec;
  *head = rec;
}

template <typename Rec>
void live_unlink(Rec** head, Rec* rec) noexcept {
  if (rec->live_prev != nullptr) {
    rec->live_prev->live_next = rec->live_next;
  } else {
    *head = rec->live_next;
  }
  if (rec->live_next != nullptr) rec->live_next->live_prev = rec->live_prev;
  rec->live_prev = nullptr;
  rec->live_next = nullptr;
}

std::size_t class_bytes(int size_class) noexcept {
  return std::size_t{64} << size_class;
}

void destroy_header_payload(detail::HeaderRec* rec) noexcept {
  if (rec->destroy != nullptr) {
    rec->destroy(rec->payload());
    rec->destroy = nullptr;
  }
  rec->clone = nullptr;
  rec->type = nullptr;
}

void delete_header_rec(detail::HeaderRec* rec) noexcept {
  rec->~HeaderRec();
  ::operator delete(rec, std::align_val_t{alignof(detail::HeaderRec)});
}

detail::HeaderRec* new_header_rec(std::size_t capacity) {
  void* raw = ::operator new(sizeof(detail::HeaderRec) + capacity,
                             std::align_val_t{alignof(detail::HeaderRec)});
  return new (raw) detail::HeaderRec;
}

}  // namespace

// --- Class mapping ----------------------------------------------------------

int BufferPool::data_class_of(std::int64_t size) noexcept {
  int c = 0;
  auto bytes = static_cast<std::uint64_t>(size < 0 ? 0 : size);
  while (c < kDataClasses - 1 && class_bytes(c) < bytes) ++c;
  return c;
}

int BufferPool::header_class_of(std::size_t size) noexcept {
  for (int c = 0; c < kHeaderClasses; ++c) {
    if (class_bytes(c) >= size) return c;
  }
  return kHeaderClasses;  // oversized: unpooled
}

// --- Data blocks ------------------------------------------------------------

detail::DataBlock* BufferPool::get_data(std::int64_t size) {
  const int c = data_class_of(size);
  detail::DataBlock* b;
  if (!data_free_[c].empty()) {
    b = data_free_[c].back();
    data_free_[c].pop_back();
    ++data_reuses_;
  } else {
    b = new detail::DataBlock;
    b->size_class = static_cast<std::uint8_t>(c);
    b->bytes.reserve(class_bytes(c));
    ++data_heap_allocs_;
  }
  b->bytes.resize(static_cast<std::size_t>(size));
  b->pool = this;
  b->refs = 1;
  live_link(&live_data_, b);
  track_acquire();
  return b;
}

detail::DataBlock* BufferPool::adopt_data(std::vector<std::byte> bytes) {
  auto* b = new detail::DataBlock;
  // Class by capacity, rounded down, so the block honours the freelist
  // promise (capacity >= class bytes) once it is recycled.
  int c = 0;
  while (c + 1 < kDataClasses && class_bytes(c + 1) <= bytes.capacity()) ++c;
  b->size_class = static_cast<std::uint8_t>(c);
  b->bytes = std::move(bytes);
  b->pool = this;
  b->refs = 1;
  ++data_heap_allocs_;
  live_link(&live_data_, b);
  track_acquire();
  return b;
}

void BufferPool::put_data(detail::DataBlock* block) noexcept {
  live_unlink(&live_data_, block);
  --outstanding_;
  auto& freelist = data_free_[block->size_class];
  if (freelist.size() >= kMaxParkedPerClass) {
    delete block;
    return;
  }
  block->pool = nullptr;
  freelist.push_back(block);
}

// --- Header records ---------------------------------------------------------

detail::HeaderRec* BufferPool::get_header(std::size_t payload_bytes) {
  const int c = header_class_of(payload_bytes);
  if (c >= kHeaderClasses) {
    // Oversized header: plain heap, not tracked (none exist in practice).
    auto* rec = new_header_rec(payload_bytes);
    rec->size_class = static_cast<std::uint8_t>(kHeaderClasses);
    rec->refs = 1;
    return rec;
  }
  detail::HeaderRec* rec;
  if (!header_free_[c].empty()) {
    rec = header_free_[c].back();
    header_free_[c].pop_back();
    ++header_reuses_;
  } else {
    rec = new_header_rec(class_bytes(c));
    rec->size_class = static_cast<std::uint8_t>(c);
    ++header_heap_allocs_;
  }
  rec->pool = this;
  rec->refs = 1;
  live_link(&live_headers_, rec);
  track_acquire();
  return rec;
}

void BufferPool::put_header(detail::HeaderRec* rec) noexcept {
  live_unlink(&live_headers_, rec);
  --outstanding_;
  auto& freelist = header_free_[rec->size_class];
  if (freelist.size() >= kMaxParkedPerClass) {
    delete_header_rec(rec);
    return;
  }
  rec->pool = nullptr;
  freelist.push_back(rec);
}

// --- Mint / release entry points --------------------------------------------

namespace detail {

DataBlock* acquire_data_block(std::int64_t size) {
  if (BufferPool* pool = BufferPool::current()) return pool->get_data(size);
  auto* b = new DataBlock;
  b->bytes.resize(static_cast<std::size_t>(size));
  b->refs = 1;
  return b;
}

DataBlock* adopt_data_block(std::vector<std::byte> bytes) {
  if (BufferPool* pool = BufferPool::current()) {
    return pool->adopt_data(std::move(bytes));
  }
  auto* b = new DataBlock;
  b->bytes = std::move(bytes);
  b->refs = 1;
  return b;
}

HeaderRec* acquire_header_rec(std::size_t payload_bytes) {
  if (BufferPool* pool = BufferPool::current()) {
    return pool->get_header(payload_bytes);
  }
  auto* rec = new_header_rec(payload_bytes);
  rec->size_class =
      static_cast<std::uint8_t>(BufferPool::header_class_of(payload_bytes));
  rec->refs = 1;
  return rec;
}

DataBlock* acquire_data_block_unpooled(std::span<const std::byte> bytes) {
  auto* b = new DataBlock;
  b->bytes.assign(bytes.begin(), bytes.end());
  b->refs = 1;
  unpooled_data_mints.fetch_add(1, std::memory_order_relaxed);
  return b;
}

DataBlock* acquire_data_block_shared(std::span<const std::byte> bytes) {
  auto* b = new DataBlock;
  b->bytes.assign(bytes.begin(), bytes.end());
  b->shared = true;
  b->shared_refs.store(1, std::memory_order_relaxed);
  shared_data_mint_count.fetch_add(1, std::memory_order_relaxed);
  return b;
}

std::uint64_t unpooled_data_copies() noexcept {
  return unpooled_data_mints.load(std::memory_order_relaxed);
}

std::uint64_t shared_data_mints() noexcept {
  return shared_data_mint_count.load(std::memory_order_relaxed);
}

HeaderRec* acquire_header_rec_unpooled(std::size_t payload_bytes) {
  auto* rec = new_header_rec(payload_bytes);
  rec->size_class =
      static_cast<std::uint8_t>(BufferPool::header_class_of(payload_bytes));
  rec->refs = 1;
  return rec;
}

void free_data_block(DataBlock* block) noexcept {
  if (block->pool != nullptr) {
    block->pool->put_data(block);
  } else {
    delete block;
  }
}

void free_header_rec(HeaderRec* rec) noexcept {
  // The payload may itself hold Buffers/HeaderBlobs (e.g. a WireHeader's
  // upper blob): destroy it first so nested releases happen while the
  // record is still considered live.
  destroy_header_payload(rec);
  if (rec->pool != nullptr) {
    rec->pool->put_header(rec);
  } else {
    delete_header_rec(rec);
  }
}

}  // namespace detail

// --- Pool lifecycle ---------------------------------------------------------

BufferPool::~BufferPool() {
  // Orphan any still-live blocks (a Buffer outliving its simulation): their
  // final release then frees to the heap instead of touching this pool.
  for (detail::DataBlock* b = live_data_; b != nullptr;) {
    detail::DataBlock* next = b->live_next;
    b->pool = nullptr;
    b->live_prev = nullptr;
    b->live_next = nullptr;
    b = next;
  }
  for (detail::HeaderRec* r = live_headers_; r != nullptr;) {
    detail::HeaderRec* next = r->live_next;
    r->pool = nullptr;
    r->live_prev = nullptr;
    r->live_next = nullptr;
    r = next;
  }
  for (auto& freelist : data_free_) {
    for (detail::DataBlock* b : freelist) delete b;
  }
  for (auto& freelist : header_free_) {
    for (detail::HeaderRec* r : freelist) delete_header_rec(r);
  }
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.data_heap_allocs = data_heap_allocs_;
  s.data_reuses = data_reuses_;
  s.header_heap_allocs = header_heap_allocs_;
  s.header_reuses = header_reuses_;
  s.outstanding = outstanding_;
  s.high_water = high_water_;
  for (const auto& freelist : data_free_) {
    s.parked += static_cast<std::int64_t>(freelist.size());
  }
  for (const auto& freelist : header_free_) {
    s.parked += static_cast<std::int64_t>(freelist.size());
  }
  return s;
}

BufferPool* BufferPool::current() noexcept { return tls_current_pool; }

bool BufferPool::pooling_enabled() noexcept {
  const int forced = pooling_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return env_pooling_enabled();
}

void BufferPool::set_pooling_enabled(bool enabled) noexcept {
  pooling_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void BufferPool::clear_pooling_override() noexcept {
  pooling_override.store(-1, std::memory_order_relaxed);
}

BufferPool::Scope::Scope(BufferPool* pool) noexcept
    : prev_(tls_current_pool) {
  tls_current_pool = pooling_enabled() ? pool : nullptr;
}

BufferPool::Scope::~Scope() { tls_current_pool = prev_; }

}  // namespace clicsim::net
