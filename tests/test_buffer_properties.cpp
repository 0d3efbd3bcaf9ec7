// Property-style sweeps over Buffer/BufferChain invariants: arbitrary
// (seeded) slice decompositions must reassemble to the original content,
// checksums must be stable under slicing, and size-only semantics must be
// preserved through chains. The PooledBuffer suites re-run the same
// invariants with a BufferPool recycling storage underneath, pinning the
// pool's safety contract: a recycled block is never aliased by a live
// handle, and contents survive any slice/release/reacquire interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "net/buffer.hpp"
#include "net/buffer_pool.hpp"
#include "sim/random.hpp"

namespace clicsim::net {
namespace {

class BufferSlicing : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferSlicing, RandomDecompositionReassemblesExactly) {
  sim::Rng rng(GetParam(), "slicing");
  const auto size = rng.uniform_int(1, 200000);
  Buffer whole = Buffer::pattern(size, GetParam());

  BufferChain chain;
  std::int64_t offset = 0;
  while (offset < size) {
    const auto len = std::min<std::int64_t>(
        rng.uniform_int(1, 9000), size - offset);
    chain.append(whole.slice(offset, len));
    offset += len;
  }
  Buffer back = chain.flatten();
  EXPECT_EQ(back.size(), whole.size());
  EXPECT_TRUE(back.content_equals(whole));
  EXPECT_EQ(back.checksum(), whole.checksum());
}

TEST_P(BufferSlicing, NestedSlicesEqualDirectSlices) {
  sim::Rng rng(GetParam(), "nested");
  Buffer whole = Buffer::pattern(50000, GetParam() * 3 + 1);
  const auto a = rng.uniform_int(0, 20000);
  const auto alen = rng.uniform_int(1, 20000);
  const auto b = rng.uniform_int(0, alen - 1);
  const auto blen = rng.uniform_int(1, alen - b);
  Buffer nested = whole.slice(a, alen).slice(b, blen);
  Buffer direct = whole.slice(a + b, blen);
  EXPECT_TRUE(nested.content_equals(direct));
  EXPECT_EQ(nested.checksum(), direct.checksum());
}

TEST_P(BufferSlicing, SizeOnlyChainsStaySizeOnly) {
  sim::Rng rng(GetParam(), "size-only");
  BufferChain chain;
  std::int64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    const auto n = rng.uniform_int(0, 5000);
    chain.append(Buffer::zeros(n));
    total += n;
  }
  Buffer flat = chain.flatten();
  EXPECT_EQ(flat.size(), total);
  EXPECT_FALSE(total > 0 && flat.has_data());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferSlicing,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(BufferChecksum, DiffersOnSingleByteFlip) {
  Buffer a = Buffer::pattern(1000, 9);
  std::vector<std::byte> bytes(a.data().begin(), a.data().end());
  bytes[500] ^= std::byte{0x01};
  Buffer b = Buffer::bytes(std::move(bytes));
  EXPECT_NE(a.checksum(), b.checksum());
  EXPECT_FALSE(a.content_equals(b));
}

// content_equals must see every byte, the edges included, on both
// whole buffers and offset slices of them.
TEST(BufferContentEquals, DetectsMismatchAtEitherEnd) {
  Buffer a = Buffer::pattern(4097, 11);
  const std::vector<std::byte> same(a.data().begin(), a.data().end());
  EXPECT_TRUE(a.content_equals(Buffer::bytes(same)));
  for (const std::size_t at : {std::size_t{0}, same.size() - 1}) {
    std::vector<std::byte> bytes = same;
    bytes[at] ^= std::byte{0x80};
    EXPECT_FALSE(a.content_equals(Buffer::bytes(std::move(bytes))))
        << "mismatch at " << at;
  }
  // Offset slices see the flipped last byte exactly when they contain it.
  std::vector<std::byte> bytes = same;
  bytes.back() ^= std::byte{0x80};
  Buffer b = Buffer::bytes(std::move(bytes));
  EXPECT_FALSE(a.slice(1, 4096).content_equals(b.slice(1, 4096)));
  EXPECT_TRUE(a.slice(1, 4095).content_equals(b.slice(1, 4095)));
  EXPECT_TRUE(a.slice(7, 0).content_equals(Buffer::pattern(0, 3)));
  EXPECT_TRUE(Buffer::pattern(0, 1).content_equals(Buffer::pattern(0, 2)));
}

// Two handles on the very same bytes are equal without a byte compare;
// the shortcut must still tell apart slices of one block that start at
// different offsets. (Flips at either end: DetectsMismatchAtEitherEnd.)
TEST(BufferContentEquals, SameBytesShortcutStillComparesOffsets) {
  const Buffer a = Buffer::pattern(4096, 21);
  EXPECT_TRUE(a.content_equals(a));
  EXPECT_TRUE(a.slice(100, 900).content_equals(a.slice(100, 900)));
  EXPECT_TRUE(a.content_equals(Buffer::pattern(4096, 21)));
  EXPECT_FALSE(a.slice(0, 900).content_equals(a.slice(1, 900)));
  EXPECT_FALSE(a.slice(8, 900).content_equals(a.slice(0, 900)));
}

TEST(BufferChecksum, SizeOnlyTokenEncodesLength) {
  EXPECT_NE(Buffer::zeros(10).checksum(), Buffer::zeros(11).checksum());
  EXPECT_EQ(Buffer::zeros(10).checksum(), Buffer::zeros(10).checksum());
}

// ---------------------------------------------------------------------------
// Pool-invariant properties: the same Buffer semantics must hold while a
// BufferPool recycles storage blocks underneath.

class PooledBuffer : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  BufferPool pool_;
  BufferPool::Scope scope_{&pool_};
};

// A block parked in a freelist may be handed out again — but never while
// any live Buffer (including slices) still references it. Storage handed
// to a fresh acquisition must be disjoint from every live identity.
TEST_P(PooledBuffer, RecycledBlocksAreNeverAliasedByLiveHandles) {
  sim::Rng rng(GetParam(), "alias");
  std::vector<Buffer> live;
  std::set<const void*> live_ids;
  for (int round = 0; round < 200; ++round) {
    const auto size = rng.uniform_int(1, 4096);
    Buffer b = Buffer::pattern(size, GetParam() * 1000 + round);
    ASSERT_TRUE(b.has_data());
    // The new block must not alias any storage a live handle still sees.
    EXPECT_EQ(live_ids.count(b.storage_identity()), 0u)
        << "round " << round << ": pool handed out a block that a live "
        << "Buffer still references";
    if (rng.uniform_int(0, 1) == 0) {
      // Keep it (sometimes only as a slice — a slice must pin the block
      // exactly like the whole buffer does).
      Buffer kept = rng.uniform_int(0, 1) == 0
                        ? b
                        : b.slice(0, std::max<std::int64_t>(1, size / 2));
      live_ids.insert(kept.storage_identity());
      live.push_back(std::move(kept));
    }
    // Drop a random live handle now and then so its block re-enters the
    // freelist and future rounds can observe legal recycling.
    if (!live.empty() && rng.uniform_int(0, 2) == 0) {
      const auto victim =
          static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
      live_ids.erase(live[victim].storage_identity());
      live.erase(live.begin() +
                 static_cast<std::vector<Buffer>::difference_type>(victim));
    }
  }
}

// A slice pins its parent's storage: release the parent, let the pool
// churn through recycled blocks of the same size class, and the slice's
// contents, checksum and content_equals() must be unaffected.
TEST_P(PooledBuffer, SliceSurvivesParentReleaseAndBlockReacquisition) {
  sim::Rng rng(GetParam(), "survive");
  const auto size = rng.uniform_int(256, 50000);
  Buffer whole = Buffer::pattern(size, GetParam() * 7 + 3);
  const auto off = rng.uniform_int(0, size / 2);
  const auto len = rng.uniform_int(1, size - off);
  Buffer part = whole.slice(off, len);
  const std::uint64_t whole_sum = whole.checksum();
  const std::uint64_t expect_sum = part.checksum();
  const std::vector<std::byte> expect_bytes(part.data().begin(),
                                            part.data().end());
  const void* pinned = part.storage_identity();

  whole = Buffer{};  // release the parent; the slice must keep the block

  // Churn: acquire and release many same-sized buffers. None may reuse the
  // pinned block, and the slice must stay byte-identical throughout.
  for (int i = 0; i < 64; ++i) {
    Buffer churn = Buffer::pattern(size, 0xdead0000u + i);
    EXPECT_NE(churn.storage_identity(), pinned);
  }
  EXPECT_EQ(part.checksum(), expect_sum);
  EXPECT_TRUE(part.content_equals(Buffer::bytes(expect_bytes)));

  // Now release the slice too: the block may legally come back recycled —
  // and when it does, pattern() must fully overwrite the stale contents.
  part = Buffer{};
  Buffer again = Buffer::pattern(size, GetParam() * 7 + 3);
  EXPECT_EQ(again.checksum(), whole_sum)
      << "recycled block served stale or partially-initialized contents";
  EXPECT_EQ(again.slice(off, len).checksum(), expect_sum);
}

// The fragmentation/reassembly property test, under an active pool with
// interleaved churn forcing block recycling between fragment operations.
TEST_P(PooledBuffer, FragmentationReassemblyKeepsIntegrityUnderRecycling) {
  sim::Rng rng(GetParam(), "frag-pooled");
  const auto size = rng.uniform_int(1, 120000);
  Buffer whole = Buffer::pattern(size, GetParam());
  const std::uint64_t expect_sum = whole.checksum();

  BufferChain chain;
  std::int64_t offset = 0;
  while (offset < size) {
    const auto len =
        std::min<std::int64_t>(rng.uniform_int(1, 9000), size - offset);
    chain.append(whole.slice(offset, len));
    offset += len;
    // Interleaved churn: transient pooled buffers allocated and released
    // between fragments, recycling blocks while the chain holds slices.
    Buffer::pattern(rng.uniform_int(1, 9000), 0xabc + offset);
  }
  whole = Buffer{};  // only the chain's slices keep the storage alive
  Buffer back = chain.flatten();
  EXPECT_EQ(back.size(), size);
  EXPECT_EQ(back.checksum(), expect_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PooledBuffer,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

// ---------------------------------------------------------------------------
// flatten() aliases a chain of ordered slices of one block and copies any
// other chain; both give exactly the concatenation of the parts.

class FlattenPaths : public ::testing::Test {
 protected:
  // Pool data blocks handed out so far (minted or recycled).
  [[nodiscard]] std::uint64_t acquisitions() const {
    const auto s = pool_.stats();
    return s.data_heap_allocs + s.data_reuses;
  }

  BufferPool pool_;
  BufferPool::Scope scope_{&pool_};
};

std::vector<std::byte> concatenation(const std::vector<Buffer>& parts) {
  std::vector<std::byte> out;
  for (const auto& p : parts) {
    out.insert(out.end(), p.data().begin(), p.data().end());
  }
  return out;
}

TEST_F(FlattenPaths, OrderedSlicesOfOneBlockComeBackAsThatBlock) {
  const Buffer whole = Buffer::pattern(20000, 31);
  BufferChain chain;
  for (const auto& f : fragments(whole.size(), 1488, 12)) {
    chain.append(whole.slice(f.offset, f.length));
  }
  const std::uint64_t before = acquisitions();
  const Buffer flat = chain.flatten();
  EXPECT_EQ(acquisitions(), before);
  EXPECT_EQ(flat.storage_identity(), whole.storage_identity());
  EXPECT_EQ(flat.data().data(), whole.data().data());
  EXPECT_EQ(flat.size(), whole.size());

  // A run that starts and ends inside the block aliases just that range.
  BufferChain inner;
  inner.append(whole.slice(100, 900));
  inner.append(whole.slice(1000, 0));
  inner.append(whole.slice(1000, 4000));
  const Buffer mid = inner.flatten();
  EXPECT_EQ(acquisitions(), before);
  EXPECT_EQ(mid.data().data(), whole.data().data() + 100);
  EXPECT_EQ(mid.size(), 4900);
}

TEST_F(FlattenPaths, SinglePartComesBackUnchanged) {
  const Buffer whole = Buffer::pattern(5000, 32);
  const Buffer part = whole.slice(300, 1200);
  BufferChain chain;
  chain.append(part);
  const std::uint64_t before = acquisitions();
  const Buffer flat = chain.flatten();
  EXPECT_EQ(acquisitions(), before);
  EXPECT_EQ(flat.storage_identity(), part.storage_identity());
  EXPECT_EQ(flat.data().data(), part.data().data());
  EXPECT_EQ(flat.size(), part.size());
}

TEST_F(FlattenPaths, EveryOtherChainIsCopiedIntoAFreshBlock) {
  const Buffer a = Buffer::pattern(3000, 33);
  const Buffer b = Buffer::pattern(3000, 34);
  const struct {
    const char* name;
    std::vector<Buffer> parts;
  } cases[] = {
      {"gap", {a.slice(0, 1000), a.slice(1001, 999)}},
      {"duplicate", {a.slice(0, 1000), a.slice(1000, 1000),
                     a.slice(1000, 1000)}},
      {"swapped", {a.slice(1000, 1000), a.slice(0, 1000)}},
      {"two blocks", {a.slice(0, 1000), b.slice(1000, 1000)}},
      {"shared copy", {a.slice(0, 1000), a.slice(1000, 1000).shared(),
                       a.slice(2000, 1000)}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    BufferChain chain;
    for (const auto& p : c.parts) chain.append(p);
    const std::uint64_t before = acquisitions();
    const Buffer flat = chain.flatten();
    if (BufferPool::pooling_enabled()) {
      EXPECT_EQ(acquisitions(), before + 1);
    }
    for (const auto& p : c.parts) {
      EXPECT_NE(flat.storage_identity(), p.storage_identity());
    }
    const auto expect = concatenation(c.parts);
    ASSERT_EQ(flat.size(), static_cast<std::int64_t>(expect.size()));
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), flat.data().begin(),
                           flat.data().end()));
  }

  // A size-only part makes the whole result size-only; an empty chain is
  // an empty size-only buffer. Neither touches the pool.
  const std::uint64_t before = acquisitions();
  BufferChain mixed;
  mixed.append(a.slice(0, 1000));
  mixed.append(Buffer::zeros(500));
  const Buffer sized = mixed.flatten();
  EXPECT_EQ(sized.size(), 1500);
  EXPECT_FALSE(sized.has_data());
  const Buffer none = BufferChain{}.flatten();
  EXPECT_EQ(none.size(), 0);
  EXPECT_FALSE(none.has_data());
  EXPECT_EQ(acquisitions(), before);
}

// Recycling sanity without randomness: release the only handle, acquire a
// same-class block, and observe actual reuse (this is what makes the
// aliasing tests above meaningful — recycling really happens).
TEST(PooledBufferReuse, ReleasedBlockIsActuallyRecycled) {
  BufferPool pool;
  BufferPool::Scope scope(&pool);
  if (!BufferPool::pooling_enabled()) GTEST_SKIP() << "pooling bypassed";
  Buffer a = Buffer::pattern(1000, 1);
  const void* id = a.storage_identity();
  a = Buffer{};
  Buffer b = Buffer::pattern(1000, 2);
  EXPECT_EQ(b.storage_identity(), id);
  EXPECT_GE(pool.stats().data_reuses, 1u);
}

}  // namespace
}  // namespace clicsim::net
