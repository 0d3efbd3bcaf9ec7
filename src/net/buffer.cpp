#include "net/buffer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sim/random.hpp"

namespace clicsim::net {

Buffer Buffer::zeros(std::int64_t size) {
  if (size < 0) throw std::invalid_argument("Buffer::zeros: negative size");
  return Buffer{{}, 0, size};
}

Buffer Buffer::pattern(std::int64_t size, std::uint64_t seed) {
  if (size < 0) throw std::invalid_argument("Buffer::pattern: negative size");
  // Fill the (possibly recycled) block in place — no intermediate vector.
  auto storage = detail::BlockRef::adopt(detail::acquire_data_block(size));
  sim::Rng rng(seed);
  // Every draw supplies eight bytes, least significant first, and one more
  // draw supplies the tail. Shifts rather than a memcpy of the word keep
  // the bytes the same on any host byte order. Gathering them in a local
  // array first lets GCC emit one 8-byte store per draw; eight byte stores
  // straight into `out` compile to a loop three times as long.
  std::byte* out = storage->bytes.data();
  const std::size_t n = storage->bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = rng.next();
    std::byte word[8];
    for (int b = 0; b < 8; ++b) word[b] = static_cast<std::byte>(w >> (8 * b));
    std::memcpy(out + i, word, sizeof word);
  }
  if (i < n) {
    const std::uint64_t w = rng.next();
    for (std::size_t b = 0; i + b < n; ++b) {
      out[i + b] = static_cast<std::byte>(w >> (8 * b));
    }
  }
  return Buffer{std::move(storage), 0, size};
}

Buffer Buffer::bytes(std::vector<std::byte> data) {
  const auto len = static_cast<std::int64_t>(data.size());
  auto storage =
      detail::BlockRef::adopt(detail::adopt_data_block(std::move(data)));
  return Buffer{std::move(storage), 0, len};
}

std::span<const std::byte> Buffer::data() const {
  if (!storage_) return {};
  return std::span<const std::byte>(storage_->bytes.data() + offset_,
                                    static_cast<std::size_t>(len_));
}

Buffer Buffer::slice(std::int64_t offset, std::int64_t length) const {
  if (offset < 0 || length < 0 || offset + length > len_) {
    throw std::out_of_range("Buffer::slice: range outside buffer");
  }
  return Buffer{storage_, offset_ + offset, length};
}

std::uint64_t Buffer::checksum() const {
  if (!storage_) {
    // Size-derived token so size-only flows still detect length corruption.
    std::uint64_t x = 0x517cc1b727220a95ULL ^
                      static_cast<std::uint64_t>(len_);
    return sim::splitmix64(x);
  }
  std::uint64_t h = sim::kFnvOffset;
  for (std::byte b : data()) h = sim::fnv1a(h, static_cast<std::uint8_t>(b));
  return h;
}

Buffer Buffer::detached() const {
  if (!storage_) return *this;
  // Shared-immutable storage is already safe to cross shards (atomic
  // refcount, no home pool): keep aliasing instead of copying.
  if (storage_->shared) return *this;
  return Buffer{
      detail::BlockRef::adopt(detail::acquire_data_block_unpooled(data())),
      0, len_};
}

Buffer Buffer::shared() const {
  if (!storage_ || storage_->shared) return *this;
  return Buffer{
      detail::BlockRef::adopt(detail::acquire_data_block_shared(data())),
      0, len_};
}

bool Buffer::content_equals(const Buffer& other) const {
  if (len_ != other.len_) return false;
  if (!has_data() || !other.has_data()) return true;
  if (len_ == 0) return true;  // memcmp must not see a null data pointer
  if (storage_.get() == other.storage_.get() && offset_ == other.offset_) {
    return true;  // the very same bytes
  }
  return std::memcmp(data().data(), other.data().data(),
                     static_cast<std::size_t>(len_)) == 0;
}

void BufferChain::append(Buffer b) {
  total_ += b.size();
  parts_.push_back(std::move(b));
}

Buffer BufferChain::flatten() const {
  if (parts_.empty()) return Buffer::zeros(0);
  // Parts that are slices of one block laid end to end, in order, already
  // hold the message: hand back one slice of that block, no copy.
  const Buffer& head = parts_.front();
  bool tiles = head.has_data();
  std::int64_t end = head.offset_;
  for (const auto& p : parts_) {
    if (!p.has_data() && p.size() > 0) return Buffer::zeros(total_);
    tiles = tiles && p.storage_.get() == head.storage_.get() &&
            p.offset_ == end;
    end += p.len_;
  }
  if (tiles) return Buffer{head.storage_, head.offset_, total_};

  // Any other chain assembles straight into a (possibly recycled) block.
  auto storage = detail::BlockRef::adopt(detail::acquire_data_block(total_));
  std::byte* out = storage->bytes.data();
  for (const auto& p : parts_) {
    const auto d = p.data();
    std::copy(d.begin(), d.end(), out);
    out += d.size();
  }
  return Buffer{std::move(storage), 0, total_};
}

void BufferChain::clear() {
  parts_.clear();
  total_ = 0;
}

std::vector<Fragment> fragments(std::int64_t size, std::int64_t chunk,
                                std::int64_t first_overhead) {
  std::vector<Fragment> out;
  std::int64_t offset = 0;
  do {
    const std::int64_t budget =
        out.empty() ? std::max<std::int64_t>(chunk - first_overhead, 1)
                    : chunk;
    const std::int64_t length = std::min(budget, size - offset);
    out.push_back({offset, length});
    offset += length;
  } while (offset < size);
  return out;
}

bool MessageAssembler::add(Buffer fragment, bool first) {
  if (first) {
    chain_.clear();
    open_ = true;
  }
  if (open_) chain_.append(std::move(fragment));
  return open_;
}

Buffer MessageAssembler::finish() {
  Buffer whole = chain_.flatten();
  abort();
  return whole;
}

}  // namespace clicsim::net
