#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "ckpt/image.hpp"
#include "ckpt/multilevel.hpp"
#include "ckpt/nvm_store.hpp"
#include "ckpt/region.hpp"
#include "ckpt/stores.hpp"
#include "ckpt/tenant_store.hpp"
#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "exec/task_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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

TEST(Image, ParseBorrowsASpanAndOwnsMovedBytes) {
  // parse(ByteSpan) validates in place: the payload points into the raw
  // bytes. parse(Bytes&&) takes the buffer over without copying it, and
  // its payload stays valid across moves of the image (under ASan, a
  // payload left pointing at a freed buffer fails here).
  const Bytes payload = payload_of("state that must not be copied");
  Bytes raw = CheckpointImage::build(
      CheckpointMeta{.app_id = 1, .rank = 0, .checkpoint_id = 5}, payload);
  const std::size_t header = raw.size() - payload.size();
  const std::byte* const buffer = raw.data();
  {
    const CheckpointImage borrowed = CheckpointImage::parse(ByteSpan(raw));
    EXPECT_EQ(borrowed.payload().data(), buffer + header);
    EXPECT_EQ(borrowed.payload().size(), payload.size());
  }
  std::optional<CheckpointImage> owned;
  {
    CheckpointImage parsed = CheckpointImage::parse(std::move(raw));
    EXPECT_EQ(parsed.payload().data(), buffer + header);
    owned.emplace(std::move(parsed));
  }
  const CheckpointImage moved = std::move(*owned);
  owned.reset();
  EXPECT_EQ(moved.meta().checkpoint_id, 5u);
  EXPECT_EQ(moved.payload().data(), buffer + header);
  EXPECT_EQ(Bytes(moved.payload().begin(), moved.payload().end()), payload);
  EXPECT_THROW(CheckpointImage::parse(Bytes{}), ImageError);
}

TEST(Image, PeekMetaWithoutFullValidation) {
  const Bytes raw = CheckpointImage::build(
      CheckpointMeta{.app_id = 1, .rank = 2, .checkpoint_id = 3, .step = 4},
      payload_of("x"));
  const CheckpointMeta meta = CheckpointImage::peek_meta(raw);
  EXPECT_EQ(meta.rank, 2u);
  EXPECT_EQ(meta.checkpoint_id, 3u);
}

TEST(Image, BuildReportsTheFramedImageCrc) {
  // The write digest build() derives from its single payload pass must
  // be the CRC of the framed bytes, for empty and odd-sized payloads too.
  for (const std::size_t size : {0u, 1u, 13u, 4099u}) {
    Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::byte>(i * 37 + 5);
    }
    std::uint32_t framed_crc = 0;
    const Bytes raw = CheckpointImage::build(
        CheckpointMeta{.app_id = 2, .rank = 1, .checkpoint_id = 8}, payload,
        &framed_crc);
    EXPECT_EQ(framed_crc, digest_of(raw).crc) << size;
    EXPECT_EQ(raw, CheckpointImage::build(CheckpointMeta{.app_id = 2,
                                                         .rank = 1,
                                                         .checkpoint_id = 8},
                                          payload));
    EXPECT_NO_THROW(CheckpointImage::parse(raw));
  }
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

  field.resize(8);  // back to the registered size: usable again
  reg.restore(snap);
  EXPECT_EQ(field[3], 1.0);
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

// fits() answers what put() would do, and moves nothing: a locked front
// entry also pins the unlocked ones queued behind it.
TEST(NvmStore, FitsAgreesWithPutBehindALockedEntry) {
  NvmStore store(100);
  ASSERT_TRUE(store.put(1, Bytes(30)));
  ASSERT_TRUE(store.put(2, Bytes(30)));
  store.lock(1);
  EXPECT_TRUE(store.fits(40));   // free space alone
  EXPECT_FALSE(store.fits(41));  // would need entry 2, behind locked 1
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.eviction_count(), 0u);
  EXPECT_FALSE(store.fits(101));
  store.unlock(1);
  EXPECT_TRUE(store.fits(100));
  EXPECT_EQ(store.count(), 2u);
  EXPECT_TRUE(store.put(3, Bytes(70)));
  EXPECT_EQ(store.ids(), (std::vector<std::uint64_t>{2, 3}));
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
  ASSERT_TRUE(store.put(3, Bytes(100)));
  EXPECT_EQ(store.used_bytes(), 100u);
}

// --- buffer lifecycle (common/buffer_pool.hpp) ---

#if defined(__SANITIZE_ADDRESS__)
#define NDPCR_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NDPCR_TEST_ASAN 1
#endif
#endif

// Capacities unique to each test: the global pool outlives every test in
// this binary, and its bins are keyed by exact capacity.
TEST(BufferPool, CaptureNvmEvictCycleStopsAllocatingAfterTheFirstTurn) {
  // The paper's circular buffer reuses the space of the checkpoint it
  // overwrites. A capture -> put -> FIFO-evict ring of K entries needs
  // K + 1 buffers (K stored, one being captured); once the first turn has
  // made them, the pool serves every later capture from retired ones.
  std::vector<double> state(3001, 1.5);
  RegionRegistry registry;
  registry.register_vector("state", state);
  const std::size_t image = registry.capture().size();
  constexpr std::size_t kRing = 4;
  BufferPool& pool = BufferPool::global();
  {
    NvmStore nvm(kRing * image);
    std::uint64_t id = 0;
    const auto turn = [&] {
      for (std::size_t i = 0; i < kRing; ++i) {
        state[i] += 1.0;
        Bytes bytes = registry.capture();
        ASSERT_EQ(bytes.capacity(), image);
        ASSERT_TRUE(nvm.put(++id, std::move(bytes)));
      }
    };
    turn();
    Bytes in_flight = registry.capture();  // the ring's (K + 1)-th buffer
    ASSERT_TRUE(nvm.put(++id, std::move(in_flight)));
    const BufferPool::Stats warm = pool.stats();
    for (int t = 0; t < 3; ++t) turn();
    const BufferPool::Stats after = pool.stats();
    EXPECT_EQ(after.misses, warm.misses);
    EXPECT_EQ(after.hits - warm.hits, 3 * kRing);
    EXPECT_EQ(nvm.eviction_count(), 3 * kRing + 1);
    // Recycled buffers hold this capture's bytes, not an earlier tenant's.
    RegionRegistry check;
    std::vector<double> restored(state.size());
    check.register_vector("state", restored);
    check.restore(*nvm.get(id));
    EXPECT_EQ(restored, state);
  }
  // ~NvmStore retires what it held: the next ring turn allocates nothing.
  const BufferPool::Stats retired = pool.stats();
  NvmStore next(kRing * image);
  for (std::uint64_t id = 1; id <= kRing; ++id) {
    ASSERT_TRUE(next.put(id, registry.capture()));
  }
  EXPECT_EQ(pool.stats().misses, retired.misses);
  EXPECT_EQ(pool.stats().hits - retired.hits, kRing);
}

TEST(BufferPool, KvStoreRetiresWhatItDrops) {
  // Overwrite, erase, clear and destruction each hand the dropped buffer
  // back; the next acquire of that capacity is a hit.
  constexpr std::size_t kCap = 70001;
  BufferPool& pool = BufferPool::global();
  std::vector<Bytes> made;
  for (int i = 0; i < 5; ++i) made.push_back(pool.acquire(kCap));
  const BufferPool::Stats before = pool.stats();
  {
    KvStore store;
    store.put(0, 1, std::move(made[0]));
    store.put(0, 1, std::move(made[1]));  // overwrite retires made[0]
    store.put(0, 2, std::move(made[2]));
    store.erase(0, 2);
    store.put(1, 1, std::move(made[3]));
    store.clear();                        // retires made[1] and made[3]
    store.put(2, 1, std::move(made[4]));
  }                                       // destruction retires made[4]
  const BufferPool::Stats after = pool.stats();
  EXPECT_EQ(after.kept - before.kept, 5u);
  EXPECT_EQ(after.retained_bytes - before.retained_bytes, 5 * kCap);
  for (int i = 0; i < 5; ++i) {
    const Bytes again = pool.acquire(kCap);
    EXPECT_EQ(again.size(), 0u);
    EXPECT_EQ(again.capacity(), kCap);
  }
  EXPECT_EQ(pool.stats().hits - after.hits, 5u);
  EXPECT_EQ(pool.stats().misses, after.misses);
}

TEST(BufferPool, RetainedBytesNeverExceedTheBound) {
  // Seeded acquire/retire traffic over a few capacities, plus buffers the
  // pool never made (same capacities): a bin never keeps more buffers
  // than the pool created for it, so retained <= sum(capacity x created).
  BufferPool pool;
  const std::size_t caps[] = {4096, 5000, 123457};
  Rng rng(11);
  std::vector<Bytes> live;
  std::map<std::size_t, std::uint64_t> created;
  for (int op = 0; op < 4000; ++op) {
    const std::size_t cap = caps[rng.next_u64() % 3];
    switch (rng.next_u64() % 3) {
      case 0: {
        const BufferPool::Stats s = pool.stats();
        live.push_back(pool.acquire(cap));
        if (pool.stats().misses > s.misses) ++created[cap];
        ASSERT_EQ(live.back().capacity(), cap);
        ASSERT_TRUE(live.back().empty());
        live.back().resize(cap / 2, std::byte{0x5A});
        break;
      }
      case 1:
        if (!live.empty()) {
          const std::size_t i = rng.next_u64() % live.size();
          pool.retire(std::move(live[i]));
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      default: {
        Bytes foreign;
        foreign.reserve(cap);
        pool.retire(std::move(foreign));
        break;
      }
    }
    const BufferPool::Stats s = pool.stats();
    std::size_t bound = 0;
    for (const auto& [c, n] : created) bound += c * n;
    ASSERT_EQ(s.bound_bytes, bound);
    ASSERT_LE(s.retained_bytes, s.bound_bytes) << "op " << op;
  }
  const BufferPool::Stats s = pool.stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.dropped, 0u);  // foreign buffers beyond a bin's share
}

TEST(BufferPool, ACapacityNoAcquireAskedForIsNotKept) {
  BufferPool pool;
  Bytes stranger;
  stranger.reserve(9999);
  pool.retire(std::move(stranger));
  EXPECT_EQ(pool.stats().kept, 0u);
  EXPECT_EQ(pool.stats().dropped, 1u);
  EXPECT_EQ(pool.stats().retained_bytes, 0u);
  // A pooled buffer that outgrew its capacity no longer matches its bin.
  Bytes grown = pool.acquire(100);
  grown.resize(101);
  pool.retire(std::move(grown));
  EXPECT_EQ(pool.stats().kept, 0u);
  EXPECT_EQ(pool.stats().retained_bytes, 0u);
  // One that kept its capacity comes back empty.
  Bytes kept = pool.acquire(100);
  kept.assign(100, std::byte{7});
  pool.retire(std::move(kept));
  EXPECT_EQ(pool.stats().retained_bytes, 100u);
  const Bytes again = pool.acquire(100);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(again.capacity(), 100u);
}

TEST(BufferPool, ConcurrentAcquireRetireFromTaskPoolWorkers) {
  // Workers share one pool (the agents and the manager's fan-out do):
  // every acquire is counted once, every buffer comes back empty and
  // exact, and the bound holds when the traffic settles.
  BufferPool pool;
  exec::TaskPool workers(4);
  constexpr std::size_t kTasks = 64;
  constexpr int kRounds = 50;
  std::atomic<int> bad{0};
  workers.parallel_for(kTasks, [&](std::size_t t) {
    for (int r = 0; r < kRounds; ++r) {
      const std::size_t cap =
          1024 * (1 + (t + static_cast<std::size_t>(r)) % 3);
      Bytes b = pool.acquire(cap);
      if (!b.empty() || b.capacity() != cap) ++bad;
      b.assign(cap, static_cast<std::byte>(t));
      pool.retire(std::move(b));
    }
  });
  EXPECT_EQ(bad.load(), 0);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, kTasks * kRounds);
  EXPECT_EQ(s.kept + s.dropped, kTasks * kRounds);
  EXPECT_EQ(s.dropped, 0u);  // every buffer came back to its own bin
  EXPECT_EQ(s.retained_bytes, s.bound_bytes);
}

TEST(BufferPool, StaleSpanIntoAnEvictedEntryIsPoisoned) {
#ifdef NDPCR_TEST_ASAN
  // A retained buffer's storage stays poisoned until it is handed out
  // again, so a span kept past eviction still trips AddressSanitizer.
  const Bytes payload(33333, std::byte{1});
  NvmStore nvm(CheckpointImage::kHeaderSize + payload.size());
  ASSERT_TRUE(nvm.put(1, CheckpointImage::build(
                             CheckpointMeta{.checkpoint_id = 1}, payload)));
  const ByteSpan stale = *nvm.get(1);
  ASSERT_TRUE(nvm.put(2, CheckpointImage::build(
                             CheckpointMeta{.checkpoint_id = 2}, payload)));
  EXPECT_NE(__asan_address_is_poisoned(stale.data()), 0);
  EXPECT_NE(__asan_address_is_poisoned(stale.data() + stale.size() - 1), 0);
#else
  GTEST_SKIP() << "AddressSanitizer build only";
#endif
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
  // once (the NDCI header CRC and the write digest both derive from that
  // pass via Crc32::combine); local takes the built image over without a
  // copy and CRCs the stored entry once; the partner level copies each
  // group's first image, folds the other three (0.25 + 0.75) and CRCs
  // each parity twice (digest, verify read: 2 x 0.25). The
  // readback-compare path touched 6.75 bytes per payload byte, the
  // two-pass image build 6.5, the copying local write 5.5.
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
  EXPECT_EQ(d.local.copied, 0u);
  EXPECT_EQ(d.local.crc, d.local_bytes_written);
  EXPECT_EQ(d.partner.xored, 3 * d.partner.copied);
  EXPECT_EQ(d.partner.compared + d.local.compared, 0u);
  EXPECT_EQ(d.image.crc, payload);
  EXPECT_NEAR(d.touches_per_payload_byte(), 4.5, 1e-3);
  EXPECT_LT(d.touches_per_payload_byte(), 5.5);

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

TEST(Multilevel, LocalRetryRebuildsTheImageItHandedOver) {
  // The local level moves each built image into its NVM on attempt 0. A
  // hook that tears every rank's first write of a commit forces a retry,
  // which must rebuild the image from the caller's payload - a delta
  // against the previous commit for delta commits - and leave the NVM
  // byte-identical to a fault-free manager's. A retry that reused the
  // moved-from buffer would write nothing verifiable.
  for (const bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "delta" : "full");
    auto cfg = small_config(4);
    cfg.io_every = 0;
    cfg.delta.enabled = delta;
    cfg.delta.block_bytes = 64;
    MultilevelManager clean(cfg);
    auto torn_cfg = cfg;
    // Each commit writes every rank twice (torn, then the retry), so the
    // even write-op indices are the first attempts.
    torn_cfg.local_write_hook = [](std::uint32_t, std::uint64_t op,
                                   Bytes& image) {
      if (op % 2 == 0) image.resize(image.size() / 2);
    };
    MultilevelManager torn(torn_cfg);
    std::vector<Bytes> payloads(4, Bytes(1000));
    constexpr int kCommits = 3;
    for (int c = 0; c < kCommits; ++c) {
      for (std::uint32_t r = 0; r < 4; ++r) {
        payloads[r][(c * 131 + r * 17) % 1000] =
            static_cast<std::byte>(c + 1);
      }
      const std::uint64_t id = clean.commit(views(payloads));
      ASSERT_EQ(torn.commit(views(payloads)), id);
      for (std::uint32_t r = 0; r < 4; ++r) {
        const auto want = clean.local_store(r).get(id);
        const auto got = torn.local_store(r).get(id);
        ASSERT_TRUE(want && got) << "commit " << c << " rank " << r;
        EXPECT_TRUE(std::equal(want->begin(), want->end(), got->begin(),
                               got->end()))
            << "commit " << c << " rank " << r;
      }
    }
    const LevelHealth& local = torn.health().local;
    EXPECT_EQ(local.put_retries, 4u * kCommits);
    EXPECT_EQ(local.verify_failures, 4u * kCommits);
    EXPECT_EQ(local.put_failures, 0u);
    EXPECT_FALSE(local.degraded());
    EXPECT_EQ(clean.data_path().commits_delta, delta ? 2u : 0u);
    // A first attempt copies nothing; each retry pays its rebuild.
    EXPECT_EQ(clean.data_path().local.copied, 0u);
    EXPECT_GT(torn.data_path().local.copied, 0u);
    EXPECT_EQ(torn.data_path().local_bytes_written,
              clean.data_path().local_bytes_written);
    const auto rec = torn.recover();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->payloads, payloads);
  }
}

// IO space whose device is down for good: every put fails permanently.
class DownIoStore final : public KvStore {
 public:
  StoreStatus put(std::uint32_t, std::uint64_t, Bytes) override {
    ++puts;
    return StoreStatus::failure(StoreErrorKind::kPermanent, "down");
  }
  std::uint32_t puts = 0;
};

TEST(Multilevel, DegradedIoProbeBuildsOnlyTheContainerItPuts) {
  // The first commit finds the IO level healthy: it builds and digests
  // all 8 containers, every put fails and the level degrades. The next
  // commit only probes - one single-attempt put that stops at rank 0 -
  // so it must build and digest rank 0's container alone. The ledger
  // folds a rank's bytes only when the put loop reaches it, so the
  // trace's io_compress spans are what show the containers built.
  constexpr std::uint32_t kNodes = 8;
  auto cfg = small_config(kNodes);
  cfg.io_every = 1;
  cfg.partner_every = 0;
  cfg.io_codec = compress::CodecId::kLz4Style;
  cfg.io_codec_level = 1;
  obs::Tracer tracer(true);
  cfg.trace = &tracer;
  DownIoStore* io = nullptr;
  cfg.store_factory = [&](StoreLevel level,
                          std::uint32_t) -> std::unique_ptr<KvStore> {
    if (level != StoreLevel::kIo) return std::make_unique<KvStore>();
    auto store = std::make_unique<DownIoStore>();
    io = store.get();
    return store;
  };
  MultilevelManager mgr(cfg);
  ASSERT_NE(io, nullptr);
  const compress::ChunkedCodec codec(cfg.io_codec, cfg.io_codec_level,
                                     cfg.io_chunk_bytes);
  std::vector<Bytes> payloads;
  for (std::uint32_t r = 0; r < kNodes; ++r) {
    payloads.emplace_back(4000 + 100 * r, static_cast<std::byte>(r));
  }
  // Sum of the containers rank [0, ranks) of checkpoint `id` compresses
  // to; the local level holds each rank's image.
  const auto container_bytes = [&](std::uint64_t id, std::uint32_t ranks) {
    std::uint64_t sum = 0;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const auto image = mgr.local_store(r).get(id);
      EXPECT_TRUE(image.has_value());
      if (image) sum += codec.compress(*image).size();
    }
    return sum;
  };
  const auto containers_built = [&] {
    return std::count_if(tracer.events().begin(), tracer.events().end(),
                         [](const obs::TraceEvent& e) {
                           return e.name == "io_compress" &&
                                  e.phase == obs::Phase::kBegin;
                         });
  };

  const std::uint64_t first = mgr.commit(views(payloads));
  EXPECT_TRUE(mgr.health().io.degraded());
  EXPECT_EQ(io->puts, kNodes);
  const std::uint64_t crc_healthy = mgr.data_path().io.crc;
  EXPECT_EQ(crc_healthy, container_bytes(first, kNodes));
  EXPECT_EQ(containers_built(), kNodes);

  const std::uint64_t probe = mgr.commit(views(payloads));
  EXPECT_TRUE(mgr.health().io.degraded());
  EXPECT_EQ(io->puts, kNodes + 1);
  EXPECT_EQ(mgr.data_path().io.crc - crc_healthy,
            container_bytes(probe, 1));
  EXPECT_EQ(containers_built(), kNodes + 1);
}

// Partner space that fails a transient put once per host, then refuses
// every put of checkpoint `down_id` (an outage that degrades the level
// until the next commit's probe heals it).
class FlakyPartnerStore final : public KvStore {
 public:
  explicit FlakyPartnerStore(std::uint64_t down_id) : down_id_(down_id) {}
  StoreStatus put(std::uint32_t rank, std::uint64_t id, Bytes data) override {
    if (!failed_once_) {
      failed_once_ = true;
      return StoreStatus::failure(StoreErrorKind::kTransient, "flaky");
    }
    if (id == down_id_) {
      return StoreStatus::failure(StoreErrorKind::kPermanent, "down");
    }
    return KvStore::put(rank, id, std::move(data));
  }

 private:
  std::uint64_t down_id_;
  bool failed_once_ = false;
};

struct PartnerRun {
  // (host, key, id, bytes) of every partner entry left after the run.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, Bytes>>
      partner;
  std::optional<MultilevelManager::Recovery> rec;
  HealthReport health;
  DataPathStats data;
  std::uint32_t metrics_fp = 0;  // every HealthReport/DataPathStats field
};

// Four commits through a flaky partner level (retry, outage, probe heal),
// then node loss plus a corrupted partner entry, then recovery.
PartnerRun run_partner_level(PartnerScheme scheme, std::uint32_t group) {
  constexpr std::uint32_t kNodes = 5;
  auto cfg = small_config(kNodes);
  cfg.partner_scheme = scheme;
  cfg.xor_group_size = group;
  std::vector<KvStore*> partner(kNodes, nullptr);
  cfg.store_factory = [&](StoreLevel level,
                          std::uint32_t host) -> std::unique_ptr<KvStore> {
    if (level == StoreLevel::kIo) return std::make_unique<KvStore>();
    auto store = std::make_unique<FlakyPartnerStore>(/*down_id=*/2);
    partner[host] = store.get();
    return store;
  };
  MultilevelManager mgr(cfg);
  for (int tag = 1; tag <= 4; ++tag) {
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < kNodes; ++r) {
      payloads.emplace_back(100 + 37 * r + 11 * tag,
                            static_cast<std::byte>(0x40 + r + tag));
    }
    mgr.commit(views(payloads));
  }
  mgr.fail_node(0);
  mgr.fail_node(2);
  EXPECT_TRUE(mgr.corrupt_partner(2));
  PartnerRun run;
  run.rec = mgr.recover();
  for (std::uint32_t host = 0; host < kNodes; ++host) {
    for (std::uint32_t key = 0; key < kNodes; ++key) {
      for (const std::uint64_t at : partner[host]->list(key)) {
        run.partner.emplace_back(host, key, at, *partner[host]->get(key, at));
      }
    }
  }
  run.health = mgr.health();
  run.data = mgr.data_path();
  obs::MetricsRegistry metrics;
  record_health(metrics, run.health, "ckpt");
  record_data_path(metrics, run.data, "ckpt.data");
  run.metrics_fp = metrics.fingerprint();
  return run;
}

TEST(Multilevel, CopySchemeIsXorGroupOfOne) {
  // A copy partner is the XOR group of one: same stored bytes, recovery,
  // health and byte ledger - including the partner CRC, since a group of
  // one's parity is its image and reuses the image's digest.
  const PartnerRun copy = run_partner_level(PartnerScheme::kCopy, 4);
  const PartnerRun xor1 = run_partner_level(PartnerScheme::kXorGroup, 1);
  ASSERT_TRUE(copy.rec.has_value());
  ASSERT_TRUE(xor1.rec.has_value());
  EXPECT_EQ(copy.rec->levels[0], RecoveryLevel::kPartner);
  EXPECT_EQ(copy.rec->levels[2], RecoveryLevel::kIo);  // partner corrupted
  EXPECT_EQ(copy.health.partner.put_retries, 5u);
  EXPECT_EQ(copy.health.partner.repairs, 1u);
  EXPECT_FALSE(copy.partner.empty());
  EXPECT_EQ(copy.partner, xor1.partner);
  EXPECT_EQ(copy.rec->checkpoint_id, xor1.rec->checkpoint_id);
  EXPECT_EQ(copy.rec->payloads, xor1.rec->payloads);
  EXPECT_EQ(copy.rec->levels, xor1.rec->levels);
  EXPECT_EQ(copy.data.partner.crc, xor1.data.partner.crc);
  EXPECT_EQ(copy.metrics_fp, xor1.metrics_fp);

  // Groups {0,1} {2,3} {4}: each pair digests its parity before the
  // verify read; the trailing singleton stores its image and only pays
  // the verify read.
  auto cfg = small_config(5);
  cfg.io_every = 0;
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 2;
  MultilevelManager mgr(cfg);
  std::vector<Bytes> payloads;
  for (std::uint32_t r = 0; r < 5; ++r) {
    payloads.emplace_back(300 - 40 * r, static_cast<std::byte>(r));
  }
  const auto id = mgr.commit(views(payloads));
  std::vector<std::size_t> s;
  for (std::uint32_t r = 0; r < 5; ++r) {
    s.push_back(mgr.local_store(r).get(id)->size());
  }
  const ByteLedger& ledger = mgr.data_path().partner;
  EXPECT_EQ(ledger.copied, s[0] + s[2] + s[4]);
  EXPECT_EQ(ledger.xored, s[1] + s[3]);
  EXPECT_EQ(ledger.crc, 2 * (s[0] + s[2]) + s[4]);
}

TEST(Multilevel, XorGroupValidatesGeometry) {
  auto cfg = small_config(4);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;  // spans the whole machine: rejected
  EXPECT_THROW(MultilevelManager{cfg}, std::invalid_argument);
  cfg.xor_group_size = 0;
  EXPECT_THROW(MultilevelManager{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Retention: after every commit each level holds exactly the generations
// recovery can still reach first (DESIGN.md section 5, "Retention").

using Ids = std::vector<std::uint64_t>;

Bytes random_payload(Rng& rng, std::size_t size) {
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  return data;
}

TEST(Retention, EachLevelHoldsExactlyTheKeptGenerations) {
  // 8 ranks, XOR groups of 4 (parity hosts 4 and 0), IO every 4th.
  auto cfg = small_config(8);
  cfg.partner_scheme = PartnerScheme::kXorGroup;
  cfg.xor_group_size = 4;
  cfg.io_every = 4;
  std::vector<KvStore*> partner(8, nullptr);
  cfg.store_factory = [&](StoreLevel level, std::uint32_t host) {
    auto store = std::make_unique<KvStore>();
    if (level == StoreLevel::kPartner) partner[host] = store.get();
    return store;
  };
  MultilevelManager mgr(cfg);
  Rng rng(5);
  std::vector<std::vector<Bytes>> committed(1);
  const auto commit_next = [&] {
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < 8; ++r) {
      payloads.push_back(random_payload(rng, 600 + 40 * r));
    }
    committed.push_back(payloads);
    return mgr.commit(views(payloads));
  };
  const auto expect_levels = [&](const Ids& local, const Ids& partners,
                                 const Ids& io) {
    for (std::uint32_t r = 0; r < 8; ++r) {
      EXPECT_EQ(mgr.local_store(r).count(), local.size()) << "rank " << r;
      EXPECT_EQ(mgr.local_store(r).ids(), local) << "rank " << r;
      EXPECT_EQ(mgr.io_store().list(r), io) << "rank " << r;
    }
    EXPECT_EQ(mgr.io_store().count(), 8 * io.size());
    for (std::uint32_t host = 0; host < 8; ++host) {
      const bool hosts_parity = host == 0 || host == 4;
      EXPECT_EQ(partner[host]->count(), hosts_parity ? partners.size() : 0u)
          << "host " << host;
    }
    EXPECT_EQ(partner[4]->list(0), partners);
    EXPECT_EQ(partner[0]->list(4), partners);
  };

  for (int c = 0; c < 20; ++c) commit_next();
  // Newest (20) and fallback (19) everywhere; IO's fallback is the
  // previous IO generation.
  expect_levels({19, 20}, {19, 20}, {16, 20});
  commit_next();
  expect_levels({20, 21}, {20, 21}, {16, 20});
  commit_next();
  // 20 stays on local and partner as IO's newest: a two-node loss in one
  // group rolls back there, and the survivors restore it locally.
  expect_levels({20, 21, 22}, {20, 21, 22}, {16, 20});

  mgr.fail_node(1);
  mgr.fail_node(2);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 20u);
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(rec->levels[r], r == 1 || r == 2 ? RecoveryLevel::kIo
                                               : RecoveryLevel::kLocal);
    EXPECT_EQ(rec->payloads[r], committed[20][r]);
  }
}

TEST(Retention, DeltaChainsOfBothRestorePointsStayWhole) {
  // Chains of three links: 1F 2D 3D 4D 5F 6D 7D 8D 9F 10D.
  auto cfg = small_config(2);
  cfg.partner_every = 0;
  cfg.io_every = 0;
  cfg.delta.enabled = true;
  cfg.delta.chain_length = 3;
  cfg.delta.block_bytes = 64;
  MultilevelManager mgr(cfg);
  Rng rng(9);
  std::vector<std::vector<Bytes>> committed(1);
  std::vector<Bytes> payloads = {random_payload(rng, 2048),
                                 random_payload(rng, 2048)};
  for (std::uint64_t id = 1; id <= 10; ++id) {
    for (Bytes& p : payloads) p[rng.next_below(p.size())] ^= std::byte{1};
    committed.push_back(payloads);
    ASSERT_EQ(mgr.commit(views(payloads)), id);
    Ids expect;
    switch (id) {
      case 8:  // newest 8 (anchor 5) + fallback 4 with its chain from 1
        expect = {1, 2, 3, 4, 5, 6, 7, 8};
        break;
      case 9:  // newest 9 is an anchor; fallback 8 needs 5..7
        expect = {5, 6, 7, 8, 9};
        break;
      case 10:
        expect = {5, 6, 7, 8, 9, 10};
        break;
      default:
        continue;
    }
    for (std::uint32_t r = 0; r < 2; ++r) {
      EXPECT_EQ(mgr.local_store(r).ids(), expect) << "id " << id;
    }
  }
  // Killing the newest chain's anchor on one rank falls back to 8, whose
  // whole chain (5..8) was kept.
  ASSERT_TRUE(mgr.local_store(1).corrupt_entry(9, 77));
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 8u);
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(rec->payloads[r], committed[8][r]);
  }
}

TEST(Retention, DedupIoStaysBoundedAndKeptGenerationsAssemble) {
  // Each image shares a fixed 32 KiB prefix across commits (shared dedup
  // blocks) and ends in 16 KiB of fresh bytes (blocks released with
  // their recipe).
  auto cfg = small_config(2);
  cfg.partner_every = 0;
  cfg.io_every = 1;
  cfg.delta.io_dedup = true;
  cfg.delta.cdc.min_bytes = 512;
  cfg.delta.cdc.avg_bytes = 2048;
  cfg.delta.cdc.max_bytes = 8192;
  MultilevelManager mgr(cfg);
  Rng rng(13);
  const std::vector<Bytes> prefix = {random_payload(rng, 32 << 10),
                                     random_payload(rng, 32 << 10)};
  std::vector<std::vector<Bytes>> committed(1);
  std::size_t peak = 0;
  for (int c = 0; c < 30; ++c) {
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < 2; ++r) {
      Bytes p = prefix[r];
      const Bytes tail = random_payload(rng, 16 << 10);
      p.insert(p.end(), tail.begin(), tail.end());
      payloads.push_back(std::move(p));
    }
    committed.push_back(payloads);
    mgr.commit(views(payloads));
    peak = std::max(peak, mgr.io_store().used_bytes());
  }
  // Two kept generations per rank: the shared prefixes once plus two
  // tails each, and recipes. Without retention this grows to ~1 MiB.
  EXPECT_LT(peak, 2 * (32u << 10) + 2 * 4 * (16u << 10));
  EXPECT_EQ(mgr.io_store().list(0), (Ids{29, 30}));
  EXPECT_EQ(mgr.io_store().list(1), (Ids{29, 30}));
  // Both kept generations still assemble from IO alone.
  mgr.fail_node(0);
  mgr.fail_node(1);
  auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 30u);
  EXPECT_EQ(rec->payloads, committed[30]);
  ASSERT_TRUE(mgr.corrupt_io(1));
  rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 29u);
  EXPECT_EQ(rec->payloads, committed[29]);
}

// A plain store that counts get() calls per (rank, id) key.
class CountingStore final : public KvStore {
 public:
  [[nodiscard]] StoreResult<Bytes> get(std::uint32_t rank,
                                       std::uint64_t id) const override {
    ++gets_[{rank, id}];
    return KvStore::get(rank, id);
  }
  [[nodiscard]] const std::map<std::pair<std::uint32_t, std::uint64_t>,
                               std::uint64_t>&
  gets() const {
    return gets_;
  }

 private:
  mutable std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t>
      gets_;
};

using GetCounts =
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t>;

TEST(RemoteWalk, RecoverReadsEachRemoteEntryOnce) {
  // Copy partners, chains 1F 2D 3D: after node 0 dies its whole chain
  // comes off the partner host, one get per link (the delta head is not
  // fetched twice), and IO is never tried.
  auto cfg = small_config(2);
  cfg.io_every = 0;
  cfg.delta.enabled = true;
  cfg.delta.chain_length = 3;
  cfg.delta.block_bytes = 64;
  std::vector<CountingStore*> partner(2, nullptr);
  CountingStore* io = nullptr;
  const auto counting = [&](StoreLevel level, std::uint32_t host) {
    auto store = std::make_unique<CountingStore>();
    (level == StoreLevel::kIo ? io : partner[host]) = store.get();
    return store;
  };
  cfg.store_factory = counting;
  Rng rng(17);
  std::vector<Bytes> payloads = {random_payload(rng, 2048),
                                 random_payload(rng, 2048)};
  {
    MultilevelManager mgr(cfg);
    for (int c = 0; c < 3; ++c) {
      for (Bytes& p : payloads) p[rng.next_below(p.size())] ^= std::byte{1};
      mgr.commit(views(payloads));
    }
    mgr.fail_node(0);
    const auto rec = mgr.recover();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->checkpoint_id, 3u);
    EXPECT_EQ(rec->levels[0], RecoveryLevel::kPartner);
    EXPECT_EQ(rec->payloads, payloads);
    EXPECT_EQ(mgr.data_path().chain_links, 4u);  // two links per rank
    EXPECT_EQ(partner[1]->gets(), (GetCounts{{{0, 1}, 1}, {{0, 2}, 1},
                                             {{0, 3}, 1}}));
    EXPECT_TRUE(partner[0]->gets().empty());
    EXPECT_TRUE(io->gets().empty());
  }

  // IO dedup, no partner level: the lost rank tries its (empty) partner
  // slot once, then reads its recipe once and every block it names once.
  cfg = small_config(2);
  cfg.partner_every = 0;
  cfg.io_every = 1;
  cfg.delta.io_dedup = true;
  cfg.delta.cdc.min_bytes = 512;
  cfg.delta.cdc.avg_bytes = 2048;
  cfg.delta.cdc.max_bytes = 8192;
  cfg.store_factory = counting;
  MultilevelManager mgr(cfg);
  payloads = {random_payload(rng, 24 << 10), random_payload(rng, 24 << 10)};
  const auto id = mgr.commit(views(payloads));
  mgr.fail_node(0);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, id);
  EXPECT_EQ(rec->levels[0], RecoveryLevel::kIo);
  EXPECT_EQ(rec->payloads, payloads);
  EXPECT_EQ(partner[1]->gets(), (GetCounts{{{0, id}, 1}}));
  const GetCounts& io_gets = io->gets();
  EXPECT_EQ(io_gets.count({0, id}), 1u);
  EXPECT_EQ(io_gets.at({0, id}), 1u);
  std::size_t blocks = 0;
  for (const auto& [key, count] : io_gets) {
    if (key.first != kDedupBlockRank) continue;
    ++blocks;
    EXPECT_EQ(count, 1u) << "block " << key.second;
  }
  EXPECT_GE(blocks, 4u);  // 24 KiB over ~2 KiB CDC blocks
  EXPECT_EQ(io_gets.size(), 1 + blocks);
}

// A restart whose io_chunk_bytes differs from the previous life's still
// reads that life's IO containers: they record their own chunk geometry.
// Checkpoint 1 is one chunk at either size, checkpoint 2 five 4 KiB
// chunks, so a reader applying its own chunk size rolls back to 1.
TEST(MultilevelDelta, AdoptExistingReadsAnotherChunkSize) {
  KvStore pfs;  // outlives both lives
  auto cfg = small_config(2);
  cfg.partner_every = 0;
  cfg.io_every = 1;
  cfg.io_codec = compress::CodecId::kLz4Style;
  cfg.io_codec_level = 1;
  cfg.io_chunk_bytes = 4096;
  cfg.store_factory = [&](StoreLevel level, std::uint32_t) {
    return level == StoreLevel::kIo ? std::make_unique<ForwardingKvStore>(pfs)
                                    : std::make_unique<KvStore>();
  };
  Rng rng(29);
  std::vector<Bytes> small;  // one chunk at any chunk size
  std::vector<Bytes> large;  // five chunks of 4 KiB
  for (std::uint32_t r = 0; r < 2; ++r) {
    small.push_back(random_payload(rng, 1000));
    large.push_back(random_payload(rng, 20000));
  }
  {
    MultilevelManager first(cfg);
    first.commit(views(small));
    first.commit(views(large));
  }
  ASSERT_EQ(pfs.list(0), (std::vector<std::uint64_t>{1, 2}));

  // The node memory died with the first life; only the PFS survives.
  cfg.io_chunk_bytes = 1 << 20;
  cfg.adopt_existing = true;
  const MultilevelManager restarted(cfg);
  const auto rec = restarted.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 2u);
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(rec->levels[r], RecoveryLevel::kIo);
    EXPECT_EQ(rec->payloads[r], large[r]);
  }
}

TEST(Multilevel, CommitValidatesPayloadCount) {
  MultilevelManager mgr(small_config(2));
  const auto p1 = make_payloads(1, 1);
  EXPECT_THROW(mgr.commit(views(p1)), std::invalid_argument);
}

}  // namespace
}  // namespace ndpcr::ckpt
