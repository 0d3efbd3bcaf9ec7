// Property-style sweeps over Buffer/BufferChain invariants: arbitrary
// (seeded) slice decompositions must reassemble to the original content,
// checksums must be stable under slicing, and size-only semantics must be
// preserved through chains. The PooledBuffer suites re-run the same
// invariants with a BufferPool recycling storage underneath, pinning the
// pool's safety contract: a recycled block is never aliased by a live
// handle, and contents survive any slice/release/reacquire interleaving.
#include <gtest/gtest.h>

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
