#include <gtest/gtest.h>

#include <string>

#include "ckpt/image.hpp"
#include "ckpt/multilevel.hpp"
#include "ckpt/nvm_store.hpp"
#include "ckpt/region.hpp"
#include "ckpt/stores.hpp"
#include "ckpt/tenant_store.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "obs/metrics.hpp"

namespace ndpcr::ckpt {
namespace {

Bytes payload_of(const std::string& s) { return to_bytes(s.data(), s.size()); }

TEST(Image, BuildParseRoundTrip) {
  CheckpointMeta meta{.app_id = 7, .rank = 3, .checkpoint_id = 99, .step = 12};
  const Bytes payload = payload_of("application state bytes");
  const Bytes raw = CheckpointImage::build(meta, payload);

  const CheckpointImage image = CheckpointImage::parse(raw);
  EXPECT_EQ(image.meta().app_id, 7u);
  EXPECT_EQ(image.meta().rank, 3u);
  EXPECT_EQ(image.meta().checkpoint_id, 99u);
  EXPECT_EQ(image.meta().step, 12u);
  EXPECT_EQ(Bytes(image.payload().begin(), image.payload().end()), payload);
}

TEST(Image, PeekMetaWithoutFullValidation) {
  const Bytes raw = CheckpointImage::build(
      CheckpointMeta{.app_id = 1, .rank = 2, .checkpoint_id = 3, .step = 4},
      payload_of("x"));
  const CheckpointMeta meta = CheckpointImage::peek_meta(raw);
  EXPECT_EQ(meta.rank, 2u);
  EXPECT_EQ(meta.checkpoint_id, 3u);
}

TEST(Image, ParseRejectsCorruption) {
  Bytes raw = CheckpointImage::build(CheckpointMeta{}, payload_of("payload"));
  Bytes truncated(raw.begin(), raw.end() - 1);
  EXPECT_THROW(CheckpointImage::parse(truncated), ImageError);

  Bytes flipped = raw;
  flipped.back() ^= std::byte{0x01};
  EXPECT_THROW(CheckpointImage::parse(flipped), ImageError);

  Bytes bad_magic = raw;
  bad_magic[0] = std::byte{0x00};
  EXPECT_THROW(CheckpointImage::parse(bad_magic), ImageError);

  EXPECT_THROW(CheckpointImage::parse(ByteSpan{}), ImageError);
}

TEST(Region, CaptureRestoreRoundTrip) {
  std::vector<double> field(100, 1.5);
  std::vector<std::int32_t> index(10, 7);
  RegionRegistry reg;
  reg.register_vector("field", field);
  reg.register_vector("index", index);
  EXPECT_EQ(reg.total_bytes(), 100 * 8 + 10 * 4);

  const Bytes snap = reg.capture();
  field.assign(100, -2.0);
  index.assign(10, 0);
  reg.restore(snap);
  EXPECT_EQ(field[50], 1.5);
  EXPECT_EQ(index[5], 7);
}

TEST(Region, RejectsDuplicateNames) {
  std::vector<double> a(4), b(4);
  RegionRegistry reg;
  reg.register_vector("x", a);
  EXPECT_THROW(reg.register_vector("x", b), ImageError);
}

TEST(Region, RestoreRejectsMismatchedLayout) {
  std::vector<double> a(4);
  RegionRegistry reg;
  reg.register_vector("x", a);
  const Bytes snap = reg.capture();

  std::vector<double> c(5);
  RegionRegistry other;
  other.register_vector("x", c);
  EXPECT_THROW(other.restore(snap), ImageError);

  RegionRegistry renamed;
  std::vector<double> d(4);
  renamed.register_vector("y", d);
  EXPECT_THROW(renamed.restore(snap), ImageError);
}

TEST(Region, ResizedVectorIsDetectedNotSilentlyRead) {
  // Regression: a resized register_vector target used to be read through
  // its stale extent; now capture and restore both throw.
  std::vector<double> field(8, 1.0);
  RegionRegistry reg;
  reg.register_vector("field", field);
  const Bytes snap = reg.capture();

  field.resize(16);
  EXPECT_THROW((void)reg.capture(), ImageError);
  EXPECT_THROW(reg.restore(snap), ImageError);
  EXPECT_THROW((void)reg.capture_delta(), ImageError);

  field.resize(8);  // back to the registered size: usable again
  reg.restore(snap);
  EXPECT_EQ(field[3], 1.0);
}

TEST(Region, DeltaCaptureFoldsIntoBase) {
  std::vector<double> hot(64, 1.0);
  std::vector<std::int32_t> cold(256, 9);
  RegionRegistry reg;
  reg.register_vector("hot", hot);
  reg.register_vector("cold", cold);

  const Bytes base = reg.capture();
  hot[5] = 2.5;  // only `hot` changes

  DeltaCaptureStats stats;
  const Bytes delta = reg.capture_delta(&stats);
  EXPECT_TRUE(RegionRegistry::is_delta_payload(delta));
  EXPECT_FALSE(RegionRegistry::is_delta_payload(base));
  EXPECT_EQ(stats.regions_total, 2u);
  EXPECT_EQ(stats.regions_included, 1u);  // hash sweep caught the change
  EXPECT_EQ(stats.included_bytes, 64 * sizeof(double));
  EXPECT_EQ(stats.skipped_bytes, 256 * sizeof(std::int32_t));
  EXPECT_LT(delta.size(), base.size());

  const Bytes folded = RegionRegistry::apply_delta(base, delta);
  hot.assign(64, 0.0);
  cold.assign(256, 0);
  reg.restore(folded);
  EXPECT_EQ(hot[5], 2.5);
  EXPECT_EQ(hot[6], 1.0);
  EXPECT_EQ(cold[100], 9);
}

TEST(Region, ExplicitTrackingTrustsMarks) {
  std::vector<double> a(16, 1.0);
  std::vector<double> b(16, 2.0);
  RegionRegistry reg;
  reg.set_tracking(DirtyTracking::kExplicit);
  reg.register_vector("a", a);
  reg.register_vector("b", b);
  (void)reg.capture();

  a[0] = -1.0;
  reg.mark_dirty("a");
  b[0] = -2.0;  // changed but never marked: elided by design
  DeltaCaptureStats stats;
  (void)reg.capture_delta(&stats);
  EXPECT_EQ(stats.regions_included, 1u);
  EXPECT_THROW(reg.mark_dirty("nope"), ImageError);
}

TEST(Region, DeltaAgainstWrongBaseRejected) {
  std::vector<double> v(32, 1.0);
  RegionRegistry reg;
  reg.register_vector("v", v);
  const Bytes base = reg.capture();
  v[1] = 7.0;
  const Bytes delta = reg.capture_delta();

  // A payload captured from different contents is not this delta's base.
  std::vector<double> other(32, 3.0);
  RegionRegistry reg2;
  reg2.register_vector("v", other);
  const Bytes wrong_base = reg2.capture();
  EXPECT_THROW((void)RegionRegistry::apply_delta(wrong_base, delta),
               ImageError);
  // And the true base folds fine.
  const Bytes folded = RegionRegistry::apply_delta(base, delta);
  reg.restore(folded);
  EXPECT_EQ(v[1], 7.0);
}

TEST(Region, DeltaBeforeFirstCaptureThrows) {
  std::vector<double> v(4);
  RegionRegistry reg;
  reg.register_vector("v", v);
  EXPECT_THROW((void)reg.capture_delta(), ImageError);
}

TEST(Image, KindAndBaseIdRoundTrip) {
  CheckpointMeta meta{.app_id = 3, .rank = 1, .checkpoint_id = 10, .step = 0};
  meta.kind = PayloadKind::kDelta;
  meta.base_id = 9;
  const Bytes raw = CheckpointImage::build(meta, payload_of("delta bytes"));

  const CheckpointMeta peeked = CheckpointImage::peek_meta(raw);
  EXPECT_EQ(peeked.kind, PayloadKind::kDelta);
  EXPECT_EQ(peeked.base_id, 9u);
  const CheckpointImage image = CheckpointImage::parse(raw);
  EXPECT_EQ(image.meta().kind, PayloadKind::kDelta);
  EXPECT_EQ(image.meta().base_id, 9u);

  // Full images default to kind full, base 0.
  const Bytes full =
      CheckpointImage::build(CheckpointMeta{}, payload_of("s"));
  EXPECT_EQ(CheckpointImage::peek_meta(full).kind, PayloadKind::kFull);
}

TEST(NvmStore, DedupChargesUniqueBlocksOnly) {
  NvmStore store(1024, /*dedup_block_bytes=*/64);
  const Bytes same(256, std::byte{0x7});  // 4 identical 64B blocks
  ASSERT_TRUE(store.put(1, same));
  EXPECT_EQ(store.used_bytes(), 64u);   // intra-image dedup
  EXPECT_EQ(store.logical_bytes(), 256u);

  ASSERT_TRUE(store.put(2, same));  // cross-checkpoint dedup: free
  EXPECT_EQ(store.used_bytes(), 64u);
  EXPECT_EQ(store.logical_bytes(), 512u);
  EXPECT_EQ(store.dedup_saved_bytes(), 448u);

  store.erase(1);
  EXPECT_EQ(store.used_bytes(), 64u);  // block still referenced by id 2
  store.erase(2);
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_EQ(store.logical_bytes(), 0u);
}

TEST(NvmStore, DedupExtendsRetainedHistory) {
  // Mostly-shared checkpoints: with dedup the same capacity retains more
  // of them than their logical sizes would allow.
  NvmStore store(4096, /*dedup_block_bytes=*/256);
  Bytes data(2048, std::byte{0x11});
  for (std::uint64_t id = 1; id <= 6; ++id) {
    data[0] = static_cast<std::byte>(id);  // one block differs per commit
    ASSERT_TRUE(store.put(id, data));
  }
  // 6 * 2048 logical bytes live in 4096 physical.
  EXPECT_EQ(store.count(), 6u);
  EXPECT_EQ(store.eviction_count(), 0u);
  EXPECT_GT(store.logical_bytes(), store.capacity_bytes());
  EXPECT_LE(store.used_bytes(), store.capacity_bytes());
}

TEST(NvmStore, FifoEviction) {
  NvmStore store(100);
  EXPECT_TRUE(store.put(1, Bytes(40)));
  EXPECT_TRUE(store.put(2, Bytes(40)));
  EXPECT_EQ(store.count(), 2u);
  // Third checkpoint forces out the oldest.
  EXPECT_TRUE(store.put(3, Bytes(40)));
  EXPECT_FALSE(store.contains(1));
  EXPECT_TRUE(store.contains(2));
  EXPECT_TRUE(store.contains(3));
  EXPECT_EQ(store.eviction_count(), 1u);
  EXPECT_EQ(store.newest_id().value(), 3u);
}

TEST(NvmStore, LockedCheckpointsBlockEviction) {
  NvmStore store(100);
  ASSERT_TRUE(store.put(1, Bytes(60)));
  store.lock(1);
  // Does not fit without evicting the locked entry: put must fail and
  // leave the store unchanged.
  EXPECT_FALSE(store.put(2, Bytes(60)));
  EXPECT_TRUE(store.contains(1));
  store.unlock(1);
  EXPECT_TRUE(store.put(3, Bytes(60)));
  EXPECT_FALSE(store.contains(1));
}

TEST(NvmStore, LocksNest) {
  NvmStore store(100);
  ASSERT_TRUE(store.put(1, Bytes(10)));
  store.lock(1);
  store.lock(1);
  store.unlock(1);
  EXPECT_TRUE(store.is_locked(1));
  store.unlock(1);
  EXPECT_FALSE(store.is_locked(1));
  EXPECT_THROW(store.unlock(1), std::logic_error);
}

TEST(NvmStore, EraseAndClear) {
  NvmStore store(100);
  ASSERT_TRUE(store.put(1, Bytes(30)));
  ASSERT_TRUE(store.put(2, Bytes(30)));
  store.lock(2);
  EXPECT_THROW(store.erase(2), std::logic_error);
  store.erase(1);
  EXPECT_EQ(store.used_bytes(), 30u);
  store.erase(99);  // unknown id: no-op
  store.clear();
  EXPECT_EQ(store.count(), 0u);
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(NvmStore, RejectsNonMonotonicIds) {
  NvmStore store(100);
  ASSERT_TRUE(store.put(5, Bytes(10)));
  EXPECT_THROW(store.put(5, Bytes(10)), std::logic_error);
  EXPECT_THROW(store.put(4, Bytes(10)), std::logic_error);
}

TEST(NvmStore, OversizedCheckpointRejected) {
  NvmStore store(100);
  EXPECT_FALSE(store.put(1, Bytes(101)));
  EXPECT_EQ(store.count(), 0u);
}

TEST(NvmStore, ExactCapacityFillRefundAndReuse) {
  // Capacity accounting at the exact-fit boundary: an insert landing
  // exactly on capacity must be admitted, the refund on erase must
  // balance to zero, and the refunded space must be reusable byte for
  // byte.
  NvmStore store(100);
  ASSERT_TRUE(store.put(1, Bytes(100)));
  EXPECT_EQ(store.used_bytes(), 100u);
  EXPECT_EQ(store.count(), 1u);
  // Another exact-fit insert evicts the resident entry and reuses every
  // refunded byte.
  ASSERT_TRUE(store.put(2, Bytes(100)));
  EXPECT_EQ(store.used_bytes(), 100u);
  EXPECT_FALSE(store.contains(1));
  EXPECT_EQ(store.eviction_count(), 1u);
  store.erase(2);
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_EQ(store.logical_bytes(), 0u);
  ASSERT_TRUE(store.put(3, Bytes(100)));
  EXPECT_EQ(store.used_bytes(), 100u);
}

TEST(NvmStore, DedupExactCapacityRefundOnLastRefDrop) {
  // Dedup accounting at the same boundary: a fully shared second
  // checkpoint fits even with the device exactly full (it charges
  // nothing), dropping one referent refunds nothing, dropping the last
  // referent refunds everything, and the refunded space admits an
  // exact-fit insert of fresh content.
  NvmStore store(128, /*dedup_block_bytes=*/64);
  Bytes shared(128, std::byte{0xAA});
  shared[64] = std::byte{0xBB};  // two distinct 64B blocks
  ASSERT_TRUE(store.put(1, shared));
  EXPECT_EQ(store.used_bytes(), 128u);  // exactly at capacity
  ASSERT_TRUE(store.put(2, shared));    // all blocks resident: cost 0
  EXPECT_EQ(store.used_bytes(), 128u);
  EXPECT_EQ(store.logical_bytes(), 256u);
  store.erase(1);
  EXPECT_EQ(store.used_bytes(), 128u);  // id 2 still references them
  store.erase(2);                       // last-ref drop
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_EQ(store.logical_bytes(), 0u);
  Bytes fresh(128, std::byte{0x11});
  fresh[64] = std::byte{0x22};
  ASSERT_TRUE(store.put(3, fresh));
  EXPECT_EQ(store.used_bytes(), 128u);
}

TEST(KvStore, PutGetNewest) {
  KvStore store;
  store.put(0, 1, Bytes(10));
  store.put(0, 3, Bytes(10));
  store.put(1, 2, Bytes(10));
  EXPECT_TRUE(store.contains(0, 1));
  EXPECT_FALSE(store.contains(0, 2));
  EXPECT_EQ(store.newest_id(0).value(), 3u);
  EXPECT_EQ(store.newest_id(1).value(), 2u);
  EXPECT_FALSE(store.newest_id(2).has_value());
  EXPECT_EQ(store.used_bytes(), 30u);
  store.erase(0, 3);
  EXPECT_EQ(store.newest_id(0).value(), 1u);
}

TEST(TenantStoreView, DisjointNamespacesOnSharedDevice) {
  KvStore device;
  TenantStoreView a(device, /*tenant_id=*/0, /*rank_count=*/2);
  TenantStoreView b(device, /*tenant_id=*/1, /*rank_count=*/2);
  ASSERT_TRUE(a.put(0, 1, payload_of("tenant a")));
  ASSERT_TRUE(b.put(0, 1, payload_of("tenant b")));
  // Same (rank, id) key, no collision: each view reads its own bytes.
  EXPECT_EQ(a.get(0, 1).value(), payload_of("tenant a"));
  EXPECT_EQ(b.get(0, 1).value(), payload_of("tenant b"));
  // A fresh view with the same tenant id sees the tenant's data (restart
  // after a simulated process death).
  TenantStoreView a2(device, 0, 2);
  EXPECT_TRUE(a2.contains(0, 1));
  EXPECT_EQ(a2.newest_id(0).value(), 1u);
  // clear() scrubs only the clearing tenant's namespace.
  a.clear();
  EXPECT_FALSE(a.contains(0, 1));
  EXPECT_TRUE(b.contains(0, 1));
}

TEST(TenantStoreView, SubSlotsSeparateRolesWithinATenant) {
  KvStore device;
  TenantStoreView slot0(device, 3, 2, nullptr, /*sub_slot=*/0);
  TenantStoreView slot1(device, 3, 2, nullptr, /*sub_slot=*/1);
  ASSERT_TRUE(slot0.put(1, 7, payload_of("own space")));
  ASSERT_TRUE(slot1.put(1, 7, payload_of("partner space")));
  EXPECT_EQ(slot0.get(1, 7).value(), payload_of("own space"));
  EXPECT_EQ(slot1.get(1, 7).value(), payload_of("partner space"));
  EXPECT_EQ(slot1.rank_offset() - slot0.rank_offset(),
            kTenantSubSlotStride);
}

TEST(StoreQuota, ChargesDeniesAndExhausts) {
  StoreQuota quota;
  quota.byte_budget = 100;
  EXPECT_FALSE(quota.would_deny(100));  // exact fit is within the grant
  EXPECT_TRUE(quota.would_deny(101));
  EXPECT_TRUE(quota.charge_write(60));
  EXPECT_FALSE(quota.exhausted());
  EXPECT_FALSE(quota.charge_write(41));  // over budget: denied, uncharged
  EXPECT_EQ(quota.write_denials, 1u);
  EXPECT_EQ(quota.bytes_charged, 60u);
  EXPECT_FALSE(quota.exhausted());  // denied for size, headroom remains
  EXPECT_TRUE(quota.charge_write(40));
  EXPECT_TRUE(quota.exhausted());  // grant fully spent

  StoreQuota ops;
  ops.op_budget = 2;
  EXPECT_TRUE(ops.charge_write(10));
  ops.charge_read();  // reads count against the op budget...
  EXPECT_TRUE(ops.exhausted());
  ops.charge_read();  // ...but are never denied
  EXPECT_EQ(ops.ops_charged, 3u);
  EXPECT_FALSE(ops.charge_write(1));
}

TEST(TenantStoreView, QuotaDeniesWritesNeverReads) {
  KvStore device;
  StoreQuota quota;
  quota.byte_budget = 10;
  TenantStoreView view(device, 0, 1, &quota);
  ASSERT_TRUE(view.put(0, 1, Bytes(10)));
  const StoreStatus denied = view.put(0, 2, Bytes(1));
  EXPECT_FALSE(denied.ok());
  EXPECT_TRUE(denied.error().permanent());
  EXPECT_EQ(quota.write_denials, 1u);
  EXPECT_FALSE(device.contains(0, 2));  // denied put stored nothing
  // Reads still work with the grant spent: restart is always possible.
  EXPECT_TRUE(view.get(0, 1).ok());
  EXPECT_TRUE(quota.exhausted());
}

TEST(XorParity, RebuildsMissingBuffer) {
  Rng rng(4);
  std::vector<Bytes> buffers(4, Bytes(256));
  for (auto& buf : buffers) {
    for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
  }
  const Bytes parity = xor_parity(buffers);

  // Drop buffer 2; rebuild it from the survivors + parity.
  std::vector<Bytes> survivors = {buffers[0], buffers[1], buffers[3]};
  EXPECT_EQ(xor_rebuild(parity, survivors), buffers[2]);
}

TEST(XorParity, XorIntoZeroPadsAShortSourceAtAnyAlignment) {
  Rng rng(6);
  Bytes dst(203);
  Bytes src(150);
  for (auto& b : dst) b = static_cast<std::byte>(rng.next_below(256));
  for (auto& b : src) b = static_cast<std::byte>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const ByteSpan s = ByteSpan(src).subspan(offset);
    Bytes expected = dst;
    for (std::size_t i = 0; i < s.size(); ++i) expected[i] ^= s[i];
    Bytes got = dst;
    xor_into(MutableByteSpan(got), s);
    EXPECT_EQ(got, expected) << "offset " << offset;
  }
  // A longer source only folds into dst's length.
  Bytes got = Bytes(src.begin(), src.begin() + 40);
  xor_into(MutableByteSpan(got), ByteSpan(dst));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], src[i] ^ dst[i]);
  }
}

TEST(XorParity, RejectsMismatchedLengths) {
  EXPECT_THROW(xor_parity({Bytes(4), Bytes(5)}), std::invalid_argument);
  EXPECT_THROW(xor_parity({}), std::invalid_argument);
  EXPECT_THROW(xor_rebuild(Bytes(4), {Bytes(5)}), std::invalid_argument);
}

// ---------------------------------------------------------------------------

MultilevelConfig small_config(std::uint32_t nodes) {
  MultilevelConfig cfg;
  cfg.node_count = nodes;
  cfg.nvm_capacity_bytes = 1 << 20;
  cfg.partner_every = 1;
  cfg.io_every = 2;
  return cfg;
}

std::vector<Bytes> make_payloads(std::uint32_t nodes, int tag) {
  std::vector<Bytes> payloads;
  for (std::uint32_t r = 0; r < nodes; ++r) {
    std::string s = "rank " + std::to_string(r) + " state v" +
                    std::to_string(tag);
    payloads.push_back(payload_of(s));
  }
  return payloads;
}

std::vector<ByteSpan> views(const std::vector<Bytes>& payloads) {
  std::vector<ByteSpan> v;
  for (const auto& p : payloads) v.emplace_back(p);
  return v;
}

TEST(Multilevel, RecoversFromLocalWhenHealthy) {
  MultilevelManager mgr(small_config(4));
  const auto p1 = make_payloads(4, 1);
  mgr.commit(views(p1));
  const auto p2 = make_payloads(4, 2);
  const auto id2 = mgr.commit(views(p2));

  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, id2);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(rec->payloads[r], p2[r]);
    EXPECT_EQ(rec->levels[r], RecoveryLevel::kLocal);
  }
}

TEST(Multilevel, FailedNodeRecoversFromPartner) {
  MultilevelManager mgr(small_config(4));
  const auto p1 = make_payloads(4, 1);
  mgr.commit(views(p1));

  mgr.fail_node(2);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  // Rank 2's local copy is gone; its partner copy lives on node 3.
  EXPECT_EQ(rec->levels[2], RecoveryLevel::kPartner);
  EXPECT_EQ(rec->payloads[2], p1[2]);
  // Node 2 also hosted rank 1's partner copy, but rank 1's local survives.
  EXPECT_EQ(rec->levels[1], RecoveryLevel::kLocal);
}

TEST(Multilevel, DoubleFailureFallsBackToIo) {
  auto cfg = small_config(4);
  cfg.io_every = 1;  // every checkpoint reaches IO
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(4, 1);
  mgr.commit(views(p1));

  // Node 2 and its partner-holder node 3 both fail: rank 2 must use IO.
  mgr.fail_node(2);
  mgr.fail_node(3);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->levels[2], RecoveryLevel::kIo);
  EXPECT_EQ(rec->payloads[2], p1[2]);
}

TEST(Multilevel, RollsBackToOlderCommonCheckpoint) {
  auto cfg = small_config(4);
  cfg.partner_every = 0;  // no partner level
  cfg.io_every = 2;       // ids 2, 4, ... reach IO
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(4, 1);
  const auto p2 = make_payloads(4, 2);
  const auto p3 = make_payloads(4, 3);
  mgr.commit(views(p1));
  const auto id2 = mgr.commit(views(p2));
  mgr.commit(views(p3));  // id 3: local only

  mgr.fail_node(0);  // rank 0 lost checkpoint 3; must roll back to id 2
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, id2);
  EXPECT_EQ(rec->levels[0], RecoveryLevel::kIo);
  EXPECT_EQ(rec->payloads[0], p2[0]);
  // Healthy ranks still restore id 2 from their local buffers.
  EXPECT_EQ(rec->levels[1], RecoveryLevel::kLocal);
}

TEST(Multilevel, CompressedIoRoundTrips) {
  auto cfg = small_config(2);
  cfg.io_every = 1;
  cfg.partner_every = 0;
  cfg.io_codec = compress::CodecId::kDeflateStyle;
  cfg.io_codec_level = 1;
  MultilevelManager mgr(cfg);
  std::vector<Bytes> payloads;
  payloads.push_back(Bytes(10000, std::byte{0x11}));  // compressible
  payloads.push_back(Bytes(10000, std::byte{0x22}));
  mgr.commit(views(payloads));

  // The IO store holds less than the raw payload: compression was applied.
  EXPECT_LT(mgr.io_store().used_bytes(), 2000u);

  mgr.fail_node(0);
  mgr.fail_node(1);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->levels[0], RecoveryLevel::kIo);
  EXPECT_EQ(rec->payloads[0], payloads[0]);
  EXPECT_EQ(rec->payloads[1], payloads[1]);
}

TEST(Multilevel, CorruptionDetectedAndLevelSkipped) {
  auto cfg = small_config(3);
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(3, 1);
  mgr.commit(views(p1));

  mgr.corrupt_local(1);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  // The CRC catches the flipped byte; rank 1 falls back to its partner.
  EXPECT_EQ(rec->levels[1], RecoveryLevel::kPartner);
  EXPECT_EQ(rec->payloads[1], p1[1]);
}

TEST(Multilevel, CorruptPartnerCopyDetectedAndSkipped) {
  auto cfg = small_config(3);
  cfg.io_every = 1;  // IO backs up everything
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(3, 1);
  mgr.commit(views(p1));

  // Rank 1's local copy is gone and its partner copy is silently
  // corrupted: the CRC rejects the copy and recovery falls through to IO.
  ASSERT_TRUE(mgr.corrupt_partner(1));
  mgr.fail_node(1);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->levels[1], RecoveryLevel::kIo);
  EXPECT_EQ(rec->payloads[1], p1[1]);
}

TEST(Multilevel, CorruptIoEntryRollsBackToOlderCheckpoint) {
  auto cfg = small_config(2);
  cfg.partner_every = 0;
  cfg.io_every = 1;
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(2, 1);
  const auto p2 = make_payloads(2, 2);
  const auto id1 = mgr.commit(views(p1));
  mgr.commit(views(p2));

  // Rank 0's newest IO entry (id 2) is silently corrupted and its node is
  // lost: id 2 is unrestorable for rank 0, so recovery rolls back to the
  // intact id 1.
  ASSERT_TRUE(mgr.corrupt_io(0));
  mgr.fail_node(0);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, id1);
  EXPECT_EQ(rec->levels[0], RecoveryLevel::kIo);
  EXPECT_EQ(rec->payloads[0], p1[0]);
}

TEST(Multilevel, XorTwoLossesWithoutIoIsCleanlyUnrecoverable) {
  auto cfg = small_config(8);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;
  cfg.io_every = 0;  // no third level to fall back on
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(8, 1);
  mgr.commit(views(p1));

  // Two members of group 0 die: each rebuild needs the other's local
  // copy, so the group is lost and recover() reports it cleanly.
  mgr.fail_node(1);
  mgr.fail_node(2);
  EXPECT_FALSE(mgr.recover().has_value());
}

TEST(Multilevel, NoCommonCheckpointReturnsNulloptAcrossSchemes) {
  for (const auto scheme :
       {PartnerScheme::kCopy, PartnerScheme::kXorGroup}) {
    auto cfg = small_config(8);
    cfg.partner_scheme = scheme;
    cfg.xor_group_size = 4;
    cfg.io_every = 0;
    MultilevelManager mgr(cfg);
    const auto p1 = make_payloads(8, 1);
    mgr.commit(views(p1));

    // Rank 1 loses its local copy and every node that could reconstruct
    // it: node 2 (copy-scheme partner) and nodes 2..4 (the rest of its
    // XOR group plus the parity host).
    mgr.fail_node(1);
    mgr.fail_node(2);
    mgr.fail_node(3);
    mgr.fail_node(4);
    EXPECT_FALSE(mgr.recover().has_value())
        << "scheme " << (scheme == PartnerScheme::kCopy ? "copy" : "xor");
  }
}

TEST(Multilevel, NoCheckpointAnywhereReturnsNullopt) {
  MultilevelManager mgr(small_config(2));
  EXPECT_FALSE(mgr.recover().has_value());

  const auto p1 = make_payloads(2, 1);
  mgr.commit(views(p1));  // id 1: local + partner only (io_every = 2)
  mgr.fail_node(0);
  mgr.fail_node(1);
  EXPECT_FALSE(mgr.recover().has_value());
}

TEST(Multilevel, XorGroupRecoversSingleLossCheaply) {
  auto cfg = small_config(8);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(8, 1);
  mgr.commit(views(p1));

  // Space check: parity is ~1 image per 4-rank group, not 8 full copies.
  std::size_t copy_space = 0;
  {
    auto copy_cfg = cfg;
    copy_cfg.partner_scheme = PartnerScheme::kCopy;
    MultilevelManager copies(copy_cfg);
    copies.commit(views(p1));
    for (std::uint32_t r = 0; r < 8; ++r) {
      copy_space += copies.local_store(r).used_bytes();
    }
  }

  mgr.fail_node(2);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->levels[2], RecoveryLevel::kPartner);
  EXPECT_EQ(rec->payloads[2], p1[2]);
  for (std::uint32_t r = 0; r < 8; ++r) {
    if (r != 2) {
      EXPECT_EQ(rec->levels[r], RecoveryLevel::kLocal);
    }
  }
  (void)copy_space;
}

TEST(Multilevel, XorGroupCannotSurviveTwoLossesInGroup) {
  auto cfg = small_config(8);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;
  cfg.io_every = 1;  // IO backs up everything
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(8, 1);
  mgr.commit(views(p1));

  // Two members of group 0 die: their rebuild needs each other, so both
  // fall through to IO; group 1 (ranks 4-7) is untouched.
  mgr.fail_node(1);
  mgr.fail_node(2);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->levels[1], RecoveryLevel::kIo);
  EXPECT_EQ(rec->levels[2], RecoveryLevel::kIo);
  EXPECT_EQ(rec->payloads[1], p1[1]);
  EXPECT_EQ(rec->payloads[2], p1[2]);
  EXPECT_EQ(rec->levels[5], RecoveryLevel::kLocal);
}

TEST(Multilevel, XorGroupLossesInDifferentGroupsBothRecover) {
  auto cfg = small_config(8);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;
  MultilevelManager mgr(cfg);
  const auto p1 = make_payloads(8, 1);
  mgr.commit(views(p1));

  // Rank 1 (group 0, parity on node 4) and rank 6 (group 1, parity on
  // node 0): independent groups, both rebuild.
  mgr.fail_node(1);
  mgr.fail_node(6);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->levels[1], RecoveryLevel::kPartner);
  EXPECT_EQ(rec->levels[6], RecoveryLevel::kPartner);
  EXPECT_EQ(rec->payloads[1], p1[1]);
  EXPECT_EQ(rec->payloads[6], p1[6]);
}

TEST(Multilevel, XorGroupUnevenPayloadSizes) {
  // Ranks with different image sizes exercise the padding path.
  auto cfg = small_config(8);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;
  std::vector<Bytes> payloads;
  for (std::uint32_t r = 0; r < 8; ++r) {
    payloads.push_back(Bytes(1 + 977 * r % 4096,
                             static_cast<std::byte>(0x10 + r)));
  }
  for (std::uint32_t victim = 0; victim < 8; ++victim) {
    MultilevelManager fresh(cfg);
    fresh.commit(views(payloads));
    fresh.fail_node(victim);
    const auto rec = fresh.recover();
    ASSERT_TRUE(rec.has_value()) << "victim " << victim;
    EXPECT_EQ(rec->payloads[victim], payloads[victim]) << "victim "
                                                       << victim;
  }
}

TEST(Multilevel, XorParityBytesMatchPaddedXorOfImages) {
  // The parity fold never pads copies, yet the stored parity must be the
  // XOR of the group's images each zero-padded to the longest one.
  auto cfg = small_config(8);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;
  std::vector<KvStore*> partner(8, nullptr);
  cfg.store_factory = [&](StoreLevel level, std::uint32_t host) {
    auto store = std::make_unique<KvStore>();
    if (level == StoreLevel::kPartner) partner[host] = store.get();
    return store;
  };
  std::vector<Bytes> payloads;
  for (std::uint32_t r = 0; r < 8; ++r) {
    payloads.push_back(Bytes(5 + 1777 * r % 3001,
                             static_cast<std::byte>(0x31 + r)));
  }
  MultilevelManager mgr(cfg);
  const auto id = mgr.commit(views(payloads));
  for (std::uint32_t first = 0; first < 8; first += 4) {
    std::vector<Bytes> padded;
    std::size_t width = 0;
    for (std::uint32_t r = first; r < first + 4; ++r) {
      const ByteSpan image = *mgr.local_store(r).get(id);
      padded.emplace_back(image.begin(), image.end());
      width = std::max(width, image.size());
    }
    for (auto& p : padded) p.resize(width, std::byte{0});
    const auto stored = partner[mgr.parity_host(first)]->get(first, id);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, xor_parity(padded)) << "group " << first / 4;
  }
  mgr.fail_node(1);  // rebuilt by folding survivors into the parity
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->levels[1], RecoveryLevel::kPartner);
  EXPECT_EQ(rec->payloads[1], payloads[1]);
}

TEST(Multilevel, AdaptiveIncompressibleRankStoresAcceleratedNlz4) {
  // The probe picks accelerated nlz4 for random bytes; the stored IO
  // stream must be that codec's output, not plain nlz4's.
  auto cfg = small_config(2);
  cfg.partner_every = 0;
  cfg.io_every = 1;
  cfg.io_codec_adaptive = true;
  cfg.nvm_capacity_bytes = 8 << 20;
  // Random bytes with a sparse sprinkle of repeats: the probe still calls
  // them incompressible, but plain nlz4 finds matches the accelerated
  // skip-stride passes over, so the two streams differ.
  Rng rng(12);
  std::vector<Bytes> payloads(2, Bytes(300000));
  for (auto& p : payloads) {
    for (auto& b : p) b = static_cast<std::byte>(rng.next_below(256));
    for (std::size_t at = 8192; at + 64 < p.size(); at += 4096) {
      std::copy_n(p.begin() + static_cast<std::ptrdiff_t>(at - 3000), 64,
                  p.begin() + static_cast<std::ptrdiff_t>(at));
    }
  }
  MultilevelManager mgr(cfg);
  const auto id = mgr.commit(views(payloads));
  ASSERT_EQ(compress::choose_codec(*mgr.local_store(0).get(id)),
            (compress::CodecChoice{compress::CodecId::kLz4Style, 1, true}));
  const compress::ChunkedCodec accel(compress::CodecId::kLz4Style, 1,
                                     cfg.io_chunk_bytes, 1,
                                     /*accelerate=*/true);
  const compress::ChunkedCodec plain(compress::CodecId::kLz4Style, 1,
                                     cfg.io_chunk_bytes, 1);
  for (std::uint32_t r = 0; r < 2; ++r) {
    const ByteSpan image = *mgr.local_store(r).get(id);
    const auto stored = mgr.io_store().get(r, id);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, accel.compress(image)) << "rank " << r;
    EXPECT_NE(*stored, plain.compress(image)) << "rank " << r;
  }
  mgr.fail_node(0);
  mgr.fail_node(1);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(rec->levels[r], RecoveryLevel::kIo);
    EXPECT_EQ(rec->payloads[r], payloads[r]);
  }
}

TEST(Multilevel, ByteLedgerPinsTouchesPerPayloadByte) {
  // Host-independent regression gate for the commit path's byte passes:
  // 8 ranks x 1 MiB through local NVM + XOR partners (groups of 4), with
  // write verify. Per payload byte: image build copies once and CRCs
  // twice (NDCI header, write digest); local copies once and CRCs the
  // stored entry once; the partner level copies each group's first image,
  // folds the other three (0.25 + 0.75) and CRCs each parity twice
  // (digest, verify read: 2 x 0.25). The readback-compare path this
  // replaced touched 6.75 bytes per payload byte.
  auto cfg = small_config(8);
  cfg.nvm_capacity_bytes = 4 << 20;
  cfg.io_every = 0;
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;
  std::vector<Bytes> payloads(8, Bytes(1 << 20));
  for (std::uint32_t r = 0; r < 8; ++r) {
    payloads[r][r] = static_cast<std::byte>(r);
  }
  MultilevelManager mgr(cfg);
  mgr.commit(views(payloads));
  const DataPathStats& d = mgr.data_path();
  const std::uint64_t payload = 8ull << 20;
  EXPECT_EQ(d.image.copied, payload);
  EXPECT_EQ(d.image.compared + d.image.hashed + d.image.xored, 0u);
  EXPECT_EQ(d.local.crc, d.local.copied);
  EXPECT_EQ(d.partner.xored, 3 * d.partner.copied);
  EXPECT_EQ(d.partner.compared + d.local.compared, 0u);
  EXPECT_NEAR(d.touches_per_payload_byte(), 6.5, 1e-3);
  EXPECT_LT(d.touches_per_payload_byte(), 6.75);

  obs::MetricsRegistry metrics;
  record_data_path(metrics, d, "ckpt.data");
  EXPECT_EQ(metrics.counter("ckpt.data.ledger.partner.xored").value(),
            d.partner.xored);
  EXPECT_EQ(metrics.counter("ckpt.data.ledger.local.crc").value(),
            d.local.crc);
  EXPECT_DOUBLE_EQ(
      metrics.gauge("ckpt.data.ledger.touches_per_payload_byte").value(),
      d.touches_per_payload_byte());
}

TEST(Multilevel, XorGroupValidatesGeometry) {
  auto cfg = small_config(4);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;  // spans the whole machine: rejected
  EXPECT_THROW(MultilevelManager{cfg}, std::invalid_argument);
  cfg.xor_group_size = 0;
  EXPECT_THROW(MultilevelManager{cfg}, std::invalid_argument);
}

TEST(Multilevel, CommitValidatesPayloadCount) {
  MultilevelManager mgr(small_config(2));
  const auto p1 = make_payloads(1, 1);
  EXPECT_THROW(mgr.commit(views(p1)), std::invalid_argument);
}

}  // namespace
}  // namespace ndpcr::ckpt
