// Simulated message payloads.
//
// A Buffer always knows its size; it optionally carries real bytes.
// Benchmarks run size-only buffers (copies cost simulated time but move no
// host memory); integrity tests run patterned buffers whose contents are
// verified after every fragmentation / reassembly / retransmission path.
// Slices share the underlying storage (zero host-copy, like sk_buff clones).
//
// Storage blocks are intrusively reference-counted and recycled through the
// simulation's net::BufferPool when one is current (see buffer_pool.hpp):
// in steady state a data-carrying packet costs no heap allocation. Without
// a pool, blocks fall back to plain heap allocation with identical
// semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/buffer_pool.hpp"

namespace clicsim::net {

class Buffer {
 public:
  Buffer() = default;

  // Size-only payload: occupies `size` simulated bytes, carries no data.
  static Buffer zeros(std::int64_t size);

  // Payload carrying a deterministic byte pattern derived from `seed`: the
  // little-endian bytes of successive sim::Rng(seed) draws, so byte i is
  // byte i % 8 of draw i / 8, and a shorter pattern is a prefix of a
  // longer one with the same seed.
  static Buffer pattern(std::int64_t size, std::uint64_t seed);

  // Payload wrapping caller-provided bytes.
  static Buffer bytes(std::vector<std::byte> data);

  [[nodiscard]] std::int64_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] bool has_data() const { return static_cast<bool>(storage_); }

  // View of the carried bytes; empty span for size-only buffers.
  [[nodiscard]] std::span<const std::byte> data() const;

  // Sub-range [offset, offset+length); shares storage with *this.
  [[nodiscard]] Buffer slice(std::int64_t offset, std::int64_t length) const;

  // FNV-1a over contents (or a size-derived token for size-only buffers);
  // used by integrity tests to verify end-to-end delivery.
  [[nodiscard]] std::uint64_t checksum() const;

  // True when both buffers have the same size and identical contents
  // (size-only buffers compare equal to anything of equal size). Two
  // handles on the very same bytes (same block, offset and length) are
  // equal without a byte compare.
  [[nodiscard]] bool content_equals(const Buffer& other) const;

  // Copy whose storage (if any) is a fresh unpooled heap block owned only
  // by the result: safe to hand to another shard's thread (the original's
  // refcount and home pool are never touched again through the copy).
  // Size-only buffers return themselves — nothing to confine — and buffers
  // backed by shared-immutable storage (see shared()) keep aliasing it:
  // their refcount is atomic, so no copy is needed at a shard boundary.
  [[nodiscard]] Buffer detached() const;

  // Copy-on-write fan-out handle: a buffer backed by a shared-immutable
  // block (atomic refcount, plain heap, never mutated) that any number of
  // frames on any shards may alias. Pays one payload copy on first call;
  // size-only and already-shared buffers return themselves. The switch
  // flood path converts a frame's payload once, so a 1024-port flood costs
  // one copy instead of one per egress port — and Frame::detach rides the
  // same block for cross-shard *unicast*, so a payload crossing any number
  // of shard boundaries is minted at most once and never deep-copied.
  [[nodiscard]] Buffer shared() const;

  // True when the storage is a shared-immutable block.
  [[nodiscard]] bool is_shared() const {
    return storage_ && storage_->shared;
  }

  // Identity of the backing storage block (nullptr for size-only buffers);
  // the pool-invariant tests use it to prove recycled blocks are never
  // aliased by live handles.
  [[nodiscard]] const void* storage_identity() const {
    return storage_.get();
  }

 private:
  friend class BufferChain;  // flatten() aliases or assembles a block

  Buffer(detail::BlockRef storage, std::int64_t offset, std::int64_t len)
      : storage_(std::move(storage)), offset_(offset), len_(len) {}

  detail::BlockRef storage_;
  std::int64_t offset_ = 0;
  std::int64_t len_ = 0;
};

// Accumulates fragments in order and flattens them into one Buffer
// (MessageAssembler, NIC-firmware reassembly, TCP segments and streams).
class BufferChain {
 public:
  void append(Buffer b);
  [[nodiscard]] std::int64_t size() const { return total_; }
  [[nodiscard]] std::size_t fragments() const { return parts_.size(); }

  // Concatenates all fragments. The result carries data only when every
  // fragment does; otherwise it is size-only. Fragments that are slices of
  // one block laid end to end in order (a message cut from one buffer and
  // put back together) come back as one slice of that block, with no
  // allocation and no copy; any other chain is copied into a fresh pooled
  // block. Either way the bytes are the fragments' concatenation, since
  // blocks are never written after they are minted. An alias of a pooled
  // block stays on its shard: Frame::detach re-mints a pooled payload as
  // a shared block at every shard crossing.
  [[nodiscard]] Buffer flatten() const;

  void clear();

 private:
  std::vector<Buffer> parts_;
  std::int64_t total_ = 0;
};

// --- Message framing, written once for every protocol -----------------------

// One frame's slice of a message.
struct Fragment {
  std::int64_t offset;
  std::int64_t length;
};

// How CLIC, GAMMA, VIA, the NIC firmware and the streaming workload cut a
// `size`-byte message: frames of at most `chunk` payload bytes, with
// `first_overhead` upper-layer header bytes riding on the first frame and
// counting against its budget (which keeps at least one byte). An empty
// message is one empty fragment.
std::vector<Fragment> fragments(std::int64_t size, std::int64_t chunk,
                                std::int64_t first_overhead = 0);

// How CLIC, GAMMA and VIA put a message back together from in-order
// first/last-flagged fragments, one message at a time. A first fragment
// opens a message, discarding any partial one; a fragment that arrives
// while no message is open lost its head and is dropped. A protocol that
// sees a gap aborts the open message, so it delivers whole messages only.
class MessageAssembler {
 public:
  // Appends a fragment; returns false when it was dropped.
  bool add(Buffer fragment, bool first);

  // Closes the open message and returns its bytes.
  Buffer finish();

  // Discards the open message (the protocol detected a gap).
  void abort() {
    chain_.clear();
    open_ = false;
  }

  [[nodiscard]] std::int64_t size() const { return chain_.size(); }

 private:
  BufferChain chain_;
  bool open_ = false;
};

}  // namespace clicsim::net
