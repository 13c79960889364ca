#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string_view>

#include "common/rng.hpp"
#include "delta/delta.hpp"
#include "workloads/miniapp.hpp"

namespace ndpcr::delta {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  return data;
}

TEST(BlockHash, DeterministicAndSensitive) {
  const Bytes a = random_bytes(512, 1);
  Bytes b = a;
  EXPECT_EQ(block_hash(a), block_hash(b));
  b[100] ^= std::byte{0x01};
  EXPECT_NE(block_hash(a), block_hash(b));
  EXPECT_EQ(block_hash({}), block_hash({}));
}

ByteSpan span_of(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(BlockHash, IsXxh64SeedZero) {
  // Published XXH64 (seed 0) reference values: the hash is the portable
  // algorithm, not a host-dependent variant.
  EXPECT_EQ(block_hash(span_of("")), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(block_hash(span_of("a")), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(block_hash(span_of("abc")), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(block_hash(span_of("Nobody inspects the spammish repetition")),
            0xFBCEA83C8A378BF1ull);
}

TEST(BlockHash, EverySingleBitFlipOfAMegabyteBlockChangesIt) {
  Bytes block = random_bytes(1 << 20, 3);
  const std::uint64_t base = block_hash(block);
  std::set<std::uint64_t> seen = {base};
  std::size_t flips = 0;
  const auto flip = [&](std::size_t pos, int bit) {
    const auto mask = static_cast<std::byte>(1u << bit);
    block[pos] ^= mask;
    EXPECT_TRUE(seen.insert(block_hash(block)).second)
        << "flip at byte " << pos << " bit " << bit;
    block[pos] ^= mask;
    ++flips;
  };
  // Every bit of the first and last stripes (lane setup and the tail),
  // then a stride coprime with the 32-byte stripe, so the samples cover
  // every lane and every byte offset inside a lane across the block.
  for (std::size_t pos = 0; pos < 32; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      flip(pos, bit);
      flip(block.size() - 1 - pos, bit);
    }
  }
  for (std::size_t pos = 32; pos + 32 < block.size(); pos += 331) {
    flip(pos, static_cast<int>(pos % 8));
  }
  EXPECT_GT(flips, 3000u);
  EXPECT_EQ(block_hash(block), base);
}

TEST(BlockHash, TailLengthsHashDistinctly) {
  // Equal bytes, different lengths: 0-63 B spans no stripe, one stripe,
  // and every 8/4/1-byte tail path; the length alone must separate them.
  const Bytes zeros(64, std::byte{0});
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len < 64; ++len) {
    EXPECT_TRUE(seen.insert(block_hash(ByteSpan(zeros).first(len))).second)
        << "length " << len;
  }
}

TEST(BlockHash, PreXxh64DeltaStreamFailsBaseVerification) {
  // A stream written when block_hash was FNV-1a carries an FNV-1a base
  // digest at bytes 16..23; decode must reject it with a typed error so
  // recovery falls back instead of replaying onto a guessed base.
  const Bytes base = random_bytes(8192, 9);
  Bytes target = base;
  target[100] ^= std::byte{0x40};
  const DeltaCodec codec(512);
  Bytes stream = codec.encode(base, target);
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  for (const std::byte b : base) {
    fnv ^= static_cast<std::uint8_t>(b);
    fnv *= 0x100000001b3ull;
  }
  for (int i = 0; i < 8; ++i) {
    stream[16 + i] = static_cast<std::byte>(fnv >> (8 * i));
  }
  EXPECT_THROW((void)codec.decode(ByteSpan(base), ByteSpan(stream)),
               DeltaError);
}

TEST(BlockHash, AlignmentDoesNotMatter) {
  const Bytes data = random_bytes(4096 + 77, 5);
  Bytes buffer(data.size() + 8);
  for (const std::size_t len : {0ul, 7ul, 31ul, 32ul, 63ul, 4096ul + 77}) {
    const std::uint64_t aligned = block_hash(ByteSpan(data).first(len));
    for (std::size_t offset = 0; offset < 8; ++offset) {
      std::memcpy(buffer.data() + offset, data.data(), len);
      EXPECT_EQ(block_hash(ByteSpan(buffer).subspan(offset, len)), aligned)
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(DeltaCodec, IdenticalImagesCollapse) {
  const Bytes image = random_bytes(64 * 1024, 2);
  DeltaCodec codec(4096);
  DeltaStats stats;
  const Bytes delta = codec.encode(image, image, &stats);
  EXPECT_EQ(stats.literal_blocks, 0u);
  EXPECT_EQ(stats.unchanged_blocks, 16u);
  EXPECT_GT(stats.delta_factor(), 0.99);
  EXPECT_EQ(codec.decode(image, delta), image);
}

TEST(DeltaCodec, EmptyReferenceIsAllLiterals) {
  const Bytes image = random_bytes(10000, 3);
  DeltaCodec codec(1024);
  DeltaStats stats;
  const Bytes delta = codec.encode({}, image, &stats);
  EXPECT_EQ(stats.unchanged_blocks, 0u);
  EXPECT_EQ(stats.moved_blocks, 0u);
  EXPECT_EQ(stats.literal_blocks, 10u);  // 9 full + 1 tail
  EXPECT_EQ(codec.decode({}, delta), image);
}

TEST(DeltaCodec, SparseUpdateProducesSmallDelta) {
  Bytes reference = random_bytes(256 * 1024, 4);
  Bytes current = reference;
  // Touch 3 scattered blocks (the incremental-checkpoint case).
  current[10] ^= std::byte{1};
  current[100000] ^= std::byte{1};
  current[200000] ^= std::byte{1};
  DeltaCodec codec(4096);
  DeltaStats stats;
  const Bytes delta = codec.encode(reference, current, &stats);
  EXPECT_EQ(stats.literal_blocks, 3u);
  EXPECT_LT(delta.size(), 4 * 4096u);
  EXPECT_EQ(codec.decode(reference, delta), current);
}

TEST(DeltaCodec, DetectsMovedBlocks) {
  // Current = reference with two full blocks swapped: move ops, not
  // literals.
  const std::size_t bs = 1024;
  Bytes reference = random_bytes(8 * bs, 5);
  Bytes current = reference;
  std::swap_ranges(current.begin(), current.begin() + bs,
                   current.begin() + 4 * bs);
  DeltaCodec codec(bs);
  DeltaStats stats;
  const Bytes delta = codec.encode(reference, current, &stats);
  EXPECT_EQ(stats.literal_blocks, 0u);
  EXPECT_EQ(stats.moved_blocks, 2u);
  EXPECT_EQ(codec.decode(reference, delta), current);
}

TEST(DeltaCodec, HandlesGrowthAndShrinkage) {
  DeltaCodec codec(512);
  const Bytes reference = random_bytes(5000, 6);
  Bytes grown = reference;
  const Bytes extra = random_bytes(3000, 7);
  grown.insert(grown.end(), extra.begin(), extra.end());
  EXPECT_EQ(codec.decode(reference, codec.encode(reference, grown)), grown);

  const Bytes shrunk(reference.begin(), reference.begin() + 1234);
  EXPECT_EQ(codec.decode(reference, codec.encode(reference, shrunk)),
            shrunk);
  const Bytes empty;
  EXPECT_EQ(codec.decode(reference, codec.encode(reference, empty)), empty);
}

TEST(DeltaCodec, RejectsWrongReference) {
  const Bytes ref_a = random_bytes(8192, 8);
  const Bytes ref_b = random_bytes(8192, 9);
  const Bytes current = random_bytes(8192, 10);
  DeltaCodec codec(1024);
  const Bytes delta = codec.encode(ref_a, current);
  EXPECT_THROW((void)codec.decode(ref_b, delta), DeltaError);
}

TEST(DeltaCodec, RejectsMalformedStreams) {
  DeltaCodec codec(1024);
  const Bytes reference = random_bytes(4096, 11);
  const Bytes delta = codec.encode(reference, reference);
  // Truncations at every prefix must throw, never crash.
  for (std::size_t cut = 0; cut < delta.size(); ++cut) {
    EXPECT_THROW((void)codec.decode(reference, ByteSpan(delta.data(), cut)),
                 DeltaError)
        << "cut=" << cut;
  }
  // Block-size mismatch.
  DeltaCodec other(2048);
  EXPECT_THROW((void)other.decode(reference, delta), DeltaError);
  EXPECT_THROW(DeltaCodec(0), DeltaError);
}

TEST(DeltaCodec, ConsecutiveMiniAppCheckpointsAreHighlyRedundant) {
  // The conclusion's premise: consecutive checkpoints of a real workload
  // share most of their content (here: index structures and slowly-
  // changing fields).
  auto app = workloads::make_miniapp("hpccg", 512 * 1024, 12);
  app->step();
  const Bytes first = app->checkpoint();
  app->step();
  const Bytes second = app->checkpoint();

  DeltaCodec codec(4096);
  DeltaStats stats;
  const Bytes delta = codec.encode(first, second, &stats);
  EXPECT_GT(stats.delta_factor(), 0.3);
  EXPECT_EQ(codec.decode(first, delta), second);
}

TEST(DedupStore, SharedBlocksStoredOnce) {
  DedupStore store(1024);
  const Bytes image = random_bytes(16 * 1024, 13);
  const auto s1 = store.put(0, 1, image);
  EXPECT_EQ(s1.new_block_bytes, image.size());
  // Identical image from a neighboring rank: zero new payload.
  const auto s2 = store.put(1, 1, image);
  EXPECT_EQ(s2.new_block_bytes, 0u);
  EXPECT_EQ(store.unique_blocks(), 16u);
  EXPECT_EQ(store.logical_bytes(), 2 * image.size());
  EXPECT_NEAR(store.dedup_factor(), 0.5, 1e-9);
  EXPECT_EQ(store.get(0, 1).value(), image);
  EXPECT_EQ(store.get(1, 1).value(), image);
}

TEST(DedupStore, RefcountingSurvivesErase) {
  DedupStore store(1024);
  const Bytes image = random_bytes(8 * 1024, 14);
  store.put(0, 1, image);
  store.put(1, 1, image);
  store.erase(0, 1);
  EXPECT_FALSE(store.get(0, 1).has_value());
  EXPECT_EQ(store.get(1, 1).value(), image);  // blocks still alive
  store.erase(1, 1);
  EXPECT_EQ(store.unique_blocks(), 0u);
  EXPECT_EQ(store.stored_block_bytes(), 0u);
  store.erase(5, 5);  // unknown: no-op
}

TEST(DedupStore, PartialOverlapAccounted) {
  DedupStore store(1024);
  Bytes a = random_bytes(8 * 1024, 15);
  Bytes b = a;
  // Rewrite half the blocks of b.
  for (std::size_t i = 0; i < 4 * 1024; ++i) b[i] ^= std::byte{0x5A};
  store.put(0, 1, a);
  const auto stats = store.put(0, 2, b);
  EXPECT_EQ(stats.new_block_bytes, 4 * 1024u);
  EXPECT_EQ(store.get(0, 1).value(), a);
  EXPECT_EQ(store.get(0, 2).value(), b);
}

TEST(DedupStore, TailBlocksAndOddSizes) {
  DedupStore store(1000);
  const Bytes image = random_bytes(2500, 16);  // 2 full blocks + 500 tail
  store.put(3, 7, image);
  EXPECT_EQ(store.get(3, 7).value(), image);
  EXPECT_EQ(store.unique_blocks(), 3u);
}

TEST(DedupStore, RePutReplaces) {
  DedupStore store(1024);
  const Bytes v1 = random_bytes(4096, 17);
  const Bytes v2 = random_bytes(4096, 18);
  store.put(0, 1, v1);
  store.put(0, 1, v2);
  EXPECT_EQ(store.get(0, 1).value(), v2);
  EXPECT_EQ(store.logical_bytes(), v2.size());
}

TEST(DeltaScratch, ScratchEncodeIsBitIdenticalToPlain) {
  DeltaCodec codec(1024);
  DeltaScratch scratch;
  // Mixed sizes exercise index growth and reuse (shrinking reference).
  const std::size_t sizes[] = {100000, 5000, 0, 64 * 1024, 1023};
  Bytes reference;
  std::uint64_t seed = 40;
  for (const std::size_t n : sizes) {
    Bytes current = random_bytes(n, ++seed);
    // Make runs partially redundant against the reference.
    const std::size_t shared = std::min(reference.size(), current.size()) / 2;
    std::copy(reference.begin(),
              reference.begin() + static_cast<std::ptrdiff_t>(shared),
              current.begin());
    DeltaStats plain_stats, scratch_stats;
    const Bytes plain = codec.encode(reference, current, &plain_stats);
    const Bytes reused =
        codec.encode(reference, current, scratch, &scratch_stats);
    EXPECT_EQ(plain, reused);
    EXPECT_EQ(plain_stats.encoded_bytes, scratch_stats.encoded_bytes);
    EXPECT_EQ(plain_stats.moved_blocks, scratch_stats.moved_blocks);
    EXPECT_EQ(codec.decode(reference, reused), current);
    reference = std::move(current);
  }
}

TEST(DeltaScratch, PoolLeasesAreReusable) {
  DeltaScratchPool pool;
  pool.warm(2);
  const Bytes a = random_bytes(8192, 50);
  const Bytes b = random_bytes(8192, 51);
  DeltaCodec codec(512);
  Bytes first, second;
  {
    auto lease = pool.acquire();
    first = codec.encode(a, b, *lease);
  }
  {
    auto lease = pool.acquire();  // same workspace, recycled
    second = codec.encode(a, b, *lease);
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(codec.decode(a, first), b);
}

TEST(DeltaCodec, StreamBlockSizeRecovered) {
  const Bytes image = random_bytes(4096, 60);
  for (const std::size_t bs : {256u, 1024u, 4096u}) {
    const Bytes delta = DeltaCodec(bs).encode({}, image);
    EXPECT_EQ(DeltaCodec::stream_block_size(delta), bs);
  }
  EXPECT_THROW((void)DeltaCodec::stream_block_size(Bytes(2)), DeltaError);
}

TEST(Cdc, BoundariesCoverInputAndRespectLimits) {
  const CdcParams params{64, 256, 1024};
  const Bytes data = random_bytes(50000, 70);
  const auto bounds = cdc_boundaries(data, params);
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.back(), data.size());
  std::size_t start = 0;
  for (const std::size_t end : bounds) {
    const std::size_t len = end - start;
    EXPECT_GT(len, 0u);
    EXPECT_LE(len, params.max_bytes);
    // Every chunk but the last honors the minimum.
    if (end != data.size()) {
      EXPECT_GE(len, params.min_bytes);
    }
    start = end;
  }
  EXPECT_TRUE(cdc_boundaries({}, params).empty());
}

TEST(Cdc, BoundariesShiftWithContent) {
  // Insert bytes near the front: fixed-block chunking would re-key every
  // later block; CDC boundaries realign after the insertion point.
  const CdcParams params{64, 256, 1024};
  const Bytes original = random_bytes(16 * 1024, 71);
  Bytes shifted;
  shifted.reserve(original.size() + 5);
  shifted.insert(shifted.end(), 5, std::byte{0xEE});
  shifted.insert(shifted.end(), original.begin(), original.end());

  auto chunk_set = [&](const Bytes& data) {
    std::vector<std::uint64_t> hashes;
    std::size_t start = 0;
    for (const std::size_t end : cdc_boundaries(data, params)) {
      hashes.push_back(block_hash(ByteSpan(data).subspan(start, end - start)));
      start = end;
    }
    return hashes;
  };
  const auto a = chunk_set(original);
  const auto b = chunk_set(shifted);
  std::size_t common = 0;
  for (const auto h : b) {
    for (const auto g : a) {
      if (h == g) {
        ++common;
        break;
      }
    }
  }
  // Most of the shifted image's chunks still match the original's.
  EXPECT_GT(common * 2, b.size());
}

TEST(Cdc, RejectsBadParameters) {
  const Bytes data = random_bytes(1024, 72);
  EXPECT_THROW((void)cdc_boundaries(data, {0, 256, 1024}), DeltaError);
  EXPECT_THROW((void)cdc_boundaries(data, {64, 300, 1024}), DeltaError);
  EXPECT_THROW((void)cdc_boundaries(data, {512, 256, 256}), DeltaError);
}

}  // namespace
}  // namespace ndpcr::delta
