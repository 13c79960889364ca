// Golden bit-identity tests for the incremental-checkpointing wire
// formats (docs/DELTA.md). Four formats are compatibility surfaces:
//
//   NDDL  delta::DeltaCodec streams     (block deltas between payloads)
//   NDRD  ckpt::RegionRegistry deltas   (dirty-region capture payloads)
//   NDRC  ckpt::DedupIndex recipes      (block refs for deduped images)
//   NDFR  ndp::NdpAgent drain frames    (full/delta framing on the wire)
//
// plus the NDCI image header's kind/base_id fields and the CDC chunker
// whose boundaries decide block identity for dedup. Every CRC below is
// pinned from the implementation that introduced the format; a change
// here means stored checkpoints written by older builds stop restoring
// and is a bug unless the format is deliberately revved.
//
// Deliberate revision (docs/DELTA.md, "Format notes"): delta::block_hash
// moved from byte-serial FNV-1a to XXH64. The values derived from it -
// NDDL reference digests, NDRD base digests and NDRC recipe keys - were
// re-pinned then; the NDFR frame, NDCI header and CDC pins did not move.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ckpt/dedup_level.hpp"
#include "ckpt/image.hpp"
#include "ckpt/region.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "delta/delta.hpp"
#include "ndp/agent.hpp"

namespace ndpcr {
namespace {

Bytes mixed_payload(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_below(2) ? rng.next_below(8)
                                                 : rng.next_below(256));
  }
  return data;
}

TEST(DeltaGolden, DeltaStreamBytesArePinned) {
  const Bytes base = mixed_payload(8192, 7);
  Bytes target = base;
  for (std::size_t i = 1000; i < 1200; ++i) {
    target[i] = static_cast<std::byte>(i & 0xFF);
  }
  target.resize(8500, std::byte{0x5A});  // growth tail

  const delta::DeltaCodec codec(256);
  const Bytes stream = codec.encode(base, target);
  EXPECT_EQ(Crc32::compute(stream), 0x4c5bb4bcu);
  EXPECT_EQ(codec.decode(ByteSpan(base), ByteSpan(stream)), target);
}

TEST(DeltaGolden, RegionDeltaPayloadIsPinned) {
  std::vector<std::uint64_t> hot(256);
  std::vector<std::uint64_t> cold(512);
  for (std::size_t i = 0; i < hot.size(); ++i) hot[i] = i * 3;
  for (std::size_t i = 0; i < cold.size(); ++i) cold[i] = i * 7;

  ckpt::RegionRegistry reg;
  reg.register_vector("hot", hot);
  reg.register_vector("cold", cold);
  const Bytes full = reg.capture();
  hot[10] = 0xDEAD;
  const Bytes delta = reg.capture_delta();
  ASSERT_TRUE(ckpt::RegionRegistry::is_delta_payload(delta));
  EXPECT_EQ(Crc32::compute(delta), 0xfc96e634u);
  // The golden payload still folds into the base it was cut against.
  const Bytes folded = ckpt::RegionRegistry::apply_delta(full, delta);
  EXPECT_EQ(folded, reg.capture());
}

TEST(DeltaGolden, DedupRecipeBytesArePinned) {
  const Bytes image = mixed_payload(16 * 1024, 21);
  ckpt::DedupIndex index(delta::CdcParams{256, 512, 1024});
  const auto plan = index.plan(image);
  EXPECT_EQ(Crc32::compute(plan.recipe), 0x29977949u);
  index.admit(plan, 0, 1);

  // A second image sharing a prefix dedups against the first; its recipe
  // (same keys, now mostly dups) is equally pinned.
  Bytes shifted = image;
  shifted.insert(shifted.begin() + 9000, 64, std::byte{0x11});
  const auto plan2 = index.plan(shifted);
  EXPECT_GT(plan2.dup_bytes, 0u);
  EXPECT_EQ(Crc32::compute(plan2.recipe), 0x26649841u);
}

TEST(DeltaGolden, CdcBoundariesArePinned) {
  const Bytes data = mixed_payload(64 * 1024, 33);
  const auto bounds =
      delta::cdc_boundaries(data, delta::CdcParams{2048, 4096, 8192});
  Crc32 crc;
  for (const auto b : bounds) {
    const std::uint64_t v = b;
    crc.update(&v, sizeof(v));
  }
  EXPECT_EQ(bounds.size(), 15u);
  EXPECT_EQ(crc.value(), 0x365bb912u);
}

TEST(DeltaGolden, ImageHeaderCarriesKindAndBase) {
  ckpt::CheckpointMeta meta;
  meta.app_id = 42;
  meta.rank = 3;
  meta.checkpoint_id = 9;
  meta.step = 100;
  meta.kind = ckpt::PayloadKind::kDelta;
  meta.base_id = 8;
  const Bytes payload = mixed_payload(512, 41);
  const Bytes framed = ckpt::CheckpointImage::build(meta, payload);
  EXPECT_EQ(Crc32::compute(framed), 0x98effb3bu);
  const auto parsed = ckpt::CheckpointImage::parse(framed);
  EXPECT_EQ(parsed.meta().kind, ckpt::PayloadKind::kDelta);
  EXPECT_EQ(parsed.meta().base_id, 8u);
}

TEST(DeltaGolden, AgentFrameBytesArePinned) {
  const Bytes payload = mixed_payload(1024, 55);
  const Bytes full =
      ndp::NdpAgent::build_frame(ckpt::PayloadKind::kFull, 0, payload);
  const Bytes delta =
      ndp::NdpAgent::build_frame(ckpt::PayloadKind::kDelta, 17, payload);
  EXPECT_EQ(full.size(), payload.size() + 13);
  EXPECT_EQ(Crc32::compute(full), 0xe2a29fb4u);
  EXPECT_EQ(Crc32::compute(delta), 0x6a0bb1acu);

  const auto parsed = ndp::NdpAgent::parse_frame(delta);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, ckpt::PayloadKind::kDelta);
  EXPECT_EQ(parsed->base_id, 17u);
  EXPECT_EQ(parsed->payload, payload);
}

}  // namespace
}  // namespace ndpcr
