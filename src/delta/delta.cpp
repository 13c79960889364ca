#include "delta/delta.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace ndpcr::delta {
namespace {

constexpr std::uint32_t kMagic = 0x4E44444C;  // "NDDL"
constexpr std::uint8_t kOpSame = 0;
constexpr std::uint8_t kOpMoved = 1;
constexpr std::uint8_t kOpLiteral = 2;

bool spans_equal(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

// Local splitmix64 for the gear table (common/ has no header for it and
// ckpt/stores.hpp would invert the dependency direction).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// 256-entry gear table, fixed for the format's lifetime: chunk boundaries
// are part of the dedup recipe wire format, so the table may never change.
const std::array<std::uint64_t, 256>& gear_table() {
  static const std::array<std::uint64_t, 256> table = [] {
    std::array<std::uint64_t, 256> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = mix64(0x4E445043ull + i);  // "NDPC" + byte value
    }
    return t;
  }();
  return table;
}

}  // namespace

void DeltaScratch::reset(std::size_t blocks) {
  // Load factor <= 0.5: capacity is the next power of two >= 2 * blocks.
  std::size_t cap = 16;
  while (cap < blocks * 2) cap <<= 1;
  if (slots.size() != cap) {
    keys.assign(cap, 0);
    slots.assign(cap, 0);
  } else {
    std::fill(slots.begin(), slots.end(), 0);
  }
  mask = cap - 1;
}

void DeltaScratchPool::warm(std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (free_.size() < count) {
    free_.push_back(std::make_unique<DeltaScratch>());
  }
}

std::unique_ptr<DeltaScratch> DeltaScratchPool::take() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto scratch = std::move(free_.back());
      free_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<DeltaScratch>();
}

void DeltaScratchPool::give(std::unique_ptr<DeltaScratch> scratch) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(scratch));
}

std::vector<std::size_t> cdc_boundaries(ByteSpan data,
                                        const CdcParams& params) {
  if (params.min_bytes == 0 || params.avg_bytes == 0 ||
      (params.avg_bytes & (params.avg_bytes - 1)) != 0 ||
      params.min_bytes > params.max_bytes ||
      params.avg_bytes > params.max_bytes) {
    throw DeltaError("invalid CDC parameters");
  }
  const auto& gear = gear_table();
  const std::uint64_t boundary_mask = params.avg_bytes - 1;
  std::vector<std::size_t> out;
  out.reserve(data.size() / params.avg_bytes + 1);
  std::size_t start = 0;
  std::uint64_t h = 0;
  for (std::size_t pos = 0; pos < data.size(); ++pos) {
    h = (h << 1) + gear[static_cast<std::uint8_t>(data[pos])];
    const std::size_t len = pos - start + 1;
    if ((len >= params.min_bytes && (h & boundary_mask) == 0) ||
        len >= params.max_bytes) {
      out.push_back(pos + 1);
      start = pos + 1;
      h = 0;
    }
  }
  if (start < data.size()) out.push_back(data.size());
  return out;
}

namespace {

// block_hash is XXH64 with seed 0: four independent 64-bit
// multiply-rotate lanes over 32-byte stripes, then a length-mixed tail
// and a final avalanche. Independent lanes keep the multiplier
// pipelined, so the hash runs near memory speed; a byte-serial hash is
// bound by one multiply latency per byte, and capture hashes every
// region on the checkpoint critical path.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

// Little-endian loads at any alignment: the hash is a function of the
// bytes alone, identical on every host.
std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

std::uint64_t load32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kP2;
  return rotl(acc, 31) * kP1;
}

std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) {
  h ^= lane_round(0, lane);
  return h * kP1 + kP4;
}

}  // namespace

std::uint64_t block_hash(ByteSpan block) {
  const std::byte* p = block.data();
  const std::size_t n = block.size();
  const std::byte* const end = p + n;
  std::uint64_t h = 0;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2;
    std::uint64_t v2 = kP2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge_lane(h, v1);
    h = merge_lane(h, v2);
    h = merge_lane(h, v3);
    h = merge_lane(h, v4);
  } else {
    h = kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h ^= lane_round(0, load64(p));
    h = rotl(h, 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h ^= load32(p) * kP1;
    h = rotl(h, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint8_t>(*p) * kP5;
    h = rotl(h, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

DeltaCodec::DeltaCodec(std::size_t block_size) : block_size_(block_size) {
  if (block_size == 0) {
    throw DeltaError("delta block size must be positive");
  }
}

Bytes DeltaCodec::encode(ByteSpan reference, ByteSpan current,
                         DeltaStats* stats) const {
  DeltaScratch scratch;
  return encode(reference, current, scratch, stats);
}

Bytes DeltaCodec::encode(ByteSpan reference, ByteSpan current,
                         DeltaScratch& scratch, DeltaStats* stats) const {
  DeltaStats local_stats;
  local_stats.input_bytes = current.size();

  // Index the reference blocks by content hash in the scratch's
  // open-addressed table. Only full-size blocks are indexed for moves; the
  // (possibly short) tail block still matches via the same-position check.
  // Duplicates all get a slot; linear probing resolves lookups in
  // insertion order, so the lowest matching block index always wins and
  // the stream is deterministic.
  const std::size_t ref_full_blocks = reference.size() / block_size_;
  scratch.reset(ref_full_blocks);
  for (std::size_t b = 0; b < ref_full_blocks; ++b) {
    const std::uint64_t h =
        block_hash(reference.subspan(b * block_size_, block_size_));
    std::size_t slot = h & scratch.mask;
    while (scratch.slots[slot] != 0) slot = (slot + 1) & scratch.mask;
    scratch.keys[slot] = h;
    scratch.slots[slot] = static_cast<std::uint32_t>(b) + 1;
  }

  Bytes out;
  out.reserve(current.size() / 8 + 64);
  append_le<std::uint32_t>(out, kMagic);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(block_size_));
  append_le<std::uint64_t>(out, current.size());
  append_le<std::uint64_t>(out, block_hash(reference));
  local_stats.hashed_bytes = ref_full_blocks * block_size_ + reference.size();

  for (std::size_t pos = 0; pos < current.size(); pos += block_size_) {
    const std::size_t len = std::min(block_size_, current.size() - pos);
    const ByteSpan block = current.subspan(pos, len);

    // Same-position match (covers the tail block too).
    if (pos + len <= reference.size()) local_stats.compared_bytes += len;
    if (pos + len <= reference.size() &&
        spans_equal(block, reference.subspan(pos, len))) {
      out.push_back(static_cast<std::byte>(kOpSame));
      ++local_stats.unchanged_blocks;
      continue;
    }
    // Moved match: full blocks only.
    if (len == block_size_ && ref_full_blocks > 0) {
      const std::uint64_t h = block_hash(block);
      local_stats.hashed_bytes += len;
      bool matched = false;
      for (std::size_t slot = h & scratch.mask; scratch.slots[slot] != 0;
           slot = (slot + 1) & scratch.mask) {
        if (scratch.keys[slot] != h) continue;
        const std::uint32_t b = scratch.slots[slot] - 1;
        const ByteSpan cand =
            reference.subspan(std::size_t{b} * block_size_, block_size_);
        local_stats.compared_bytes += len;
        if (spans_equal(block, cand)) {
          out.push_back(static_cast<std::byte>(kOpMoved));
          append_le<std::uint32_t>(out, b);
          ++local_stats.moved_blocks;
          matched = true;
          break;
        }
      }
      if (matched) continue;
    }
    // Literal.
    out.push_back(static_cast<std::byte>(kOpLiteral));
    out.insert(out.end(), block.begin(), block.end());
    ++local_stats.literal_blocks;
  }

  local_stats.encoded_bytes = out.size();
  if (stats != nullptr) *stats = local_stats;
  return out;
}

std::size_t DeltaCodec::stream_block_size(ByteSpan delta) {
  if (delta.size() < 24 || read_le<std::uint32_t>(delta, 0) != kMagic) {
    throw DeltaError("not a delta stream");
  }
  return read_le<std::uint32_t>(delta, 4);
}

Bytes DeltaCodec::decode(ByteSpan reference, ByteSpan delta) const {
  if (delta.size() < 24) throw DeltaError("delta stream truncated");
  if (read_le<std::uint32_t>(delta, 0) != kMagic) {
    throw DeltaError("not a delta stream");
  }
  const auto block_size = read_le<std::uint32_t>(delta, 4);
  if (block_size != block_size_) {
    throw DeltaError("delta block size mismatch");
  }
  const auto current_size = read_le<std::uint64_t>(delta, 8);
  if (read_le<std::uint64_t>(delta, 16) != block_hash(reference)) {
    throw DeltaError("delta applied against the wrong reference");
  }

  Bytes out;
  out.reserve(current_size);
  std::size_t pos = 24;
  auto need = [&](std::size_t n) {
    if (pos + n > delta.size()) throw DeltaError("delta stream truncated");
  };
  while (out.size() < current_size) {
    const std::size_t len =
        std::min<std::size_t>(block_size_, current_size - out.size());
    need(1);
    const auto op = static_cast<std::uint8_t>(delta[pos++]);
    switch (op) {
      case kOpSame: {
        const std::size_t src = out.size();
        if (src + len > reference.size()) {
          throw DeltaError("delta same-block outside reference");
        }
        out.insert(out.end(), reference.begin() + src,
                   reference.begin() + src + len);
        break;
      }
      case kOpMoved: {
        need(4);
        const auto idx = read_le<std::uint32_t>(delta, pos);
        pos += 4;
        const std::size_t src = std::size_t{idx} * block_size_;
        if (len != block_size_ || src + len > reference.size()) {
          throw DeltaError("delta moved-block outside reference");
        }
        out.insert(out.end(), reference.begin() + src,
                   reference.begin() + src + len);
        break;
      }
      case kOpLiteral: {
        need(len);
        out.insert(out.end(), delta.begin() + pos, delta.begin() + pos + len);
        pos += len;
        break;
      }
      default:
        throw DeltaError("unknown delta op");
    }
  }
  if (pos != delta.size()) {
    throw DeltaError("trailing bytes in delta stream");
  }
  return out;
}

// ---------------------------------------------------------------------------

DedupStore::DedupStore(std::size_t block_size) : block_size_(block_size) {
  if (block_size == 0) {
    throw DeltaError("dedup block size must be positive");
  }
}

DedupPutStats DedupStore::put(std::uint32_t rank,
                              std::uint64_t checkpoint_id, ByteSpan image) {
  DedupPutStats stats;
  stats.raw_bytes = image.size();

  Recipe recipe;
  recipe.image_size = image.size();
  recipe.block_keys.reserve(image.size() / block_size_ + 1);

  for (std::size_t pos = 0; pos < image.size(); pos += block_size_) {
    const std::size_t len = std::min(block_size_, image.size() - pos);
    const ByteSpan block = image.subspan(pos, len);
    // Content-addressed key with linear probing on (vanishingly rare)
    // hash collisions: the stored bytes are always compared before reuse.
    std::uint64_t key = block_hash(block);
    while (true) {
      auto it = blocks_.find(key);
      if (it == blocks_.end()) {
        Block entry;
        entry.data.assign(block.begin(), block.end());
        entry.refs = 1;
        stored_block_bytes_ += len;
        stats.new_block_bytes += len;
        blocks_.emplace(key, std::move(entry));
        break;
      }
      if (spans_equal(ByteSpan(it->second.data), block)) {
        ++it->second.refs;
        break;
      }
      ++key;  // collision: probe the next slot
    }
    recipe.block_keys.push_back(key);
  }
  stats.recipe_bytes = recipe.block_keys.size() * sizeof(std::uint64_t);
  logical_bytes_ += image.size();

  const auto map_key = std::make_pair(rank, checkpoint_id);
  if (recipes_.count(map_key) > 0) {
    erase(rank, checkpoint_id);  // re-put replaces the previous image
  }
  recipes_.emplace(map_key, std::move(recipe));
  return stats;
}

std::optional<Bytes> DedupStore::get(std::uint32_t rank,
                                     std::uint64_t checkpoint_id) const {
  const auto it = recipes_.find(std::make_pair(rank, checkpoint_id));
  if (it == recipes_.end()) return std::nullopt;
  Bytes out;
  out.reserve(it->second.image_size);
  for (const auto key : it->second.block_keys) {
    const auto block = blocks_.find(key);
    if (block == blocks_.end()) {
      throw DeltaError("dedup store corruption: missing block");
    }
    out.insert(out.end(), block->second.data.begin(),
               block->second.data.end());
  }
  if (out.size() != it->second.image_size) {
    throw DeltaError("dedup store corruption: size mismatch");
  }
  return out;
}

void DedupStore::erase(std::uint32_t rank, std::uint64_t checkpoint_id) {
  const auto it = recipes_.find(std::make_pair(rank, checkpoint_id));
  if (it == recipes_.end()) return;
  for (const auto key : it->second.block_keys) {
    auto block = blocks_.find(key);
    if (block == blocks_.end()) continue;
    if (--block->second.refs == 0) {
      stored_block_bytes_ -= block->second.data.size();
      blocks_.erase(block);
    }
  }
  logical_bytes_ -= it->second.image_size;
  recipes_.erase(it);
}

}  // namespace ndpcr::delta
