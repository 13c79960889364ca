#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "ckpt/tenant_store.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "exec/task_pool.hpp"
#include "faults/chaos.hpp"
#include "faults/fault_plan.hpp"
#include "faults/faulty_stores.hpp"
#include "ndp/agent.hpp"

namespace ndpcr::faults {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: the schedule itself must be pure and overridable.

TEST(FaultPlan, DecideIsPure) {
  const FaultRates rates{0.2, 0.2, 0.2, 0.2};
  FaultPlan a(42, rates);
  FaultPlan b(42, rates);
  for (std::uint64_t op = 0; op < 200; ++op) {
    EXPECT_EQ(a.decide(io_target(), StoreOp::kPut, op),
              b.decide(io_target(), StoreOp::kPut, op));
    EXPECT_EQ(a.salt(io_target(), op), b.salt(io_target(), op));
  }
}

TEST(FaultPlan, ZeroRatesInjectNothing) {
  FaultPlan plan(7);
  for (std::uint64_t op = 0; op < 100; ++op) {
    EXPECT_EQ(plan.decide(local_target(0), StoreOp::kPut, op),
              FaultKind::kNone);
    EXPECT_EQ(plan.decide(io_target(), StoreOp::kGet, op),
              FaultKind::kNone);
  }
}

TEST(FaultPlan, ForcedFaultsOverrideOutages) {
  FaultPlan plan(7);
  plan.add_outage(io_target(), 0, 10);
  plan.force(io_target(), 5, FaultKind::kTorn);
  EXPECT_EQ(plan.decide(io_target(), StoreOp::kPut, 0), FaultKind::kOutage);
  EXPECT_EQ(plan.decide(io_target(), StoreOp::kPut, 5), FaultKind::kTorn);
  EXPECT_EQ(plan.decide(io_target(), StoreOp::kPut, 10), FaultKind::kOutage);
  EXPECT_EQ(plan.decide(io_target(), StoreOp::kPut, 11), FaultKind::kNone);
  // The outage is scoped to one target.
  EXPECT_EQ(plan.decide(partner_target(0), StoreOp::kPut, 0),
            FaultKind::kNone);
}

// ---------------------------------------------------------------------------
// Self-healing multilevel data path under exact forced schedules.

ckpt::MultilevelConfig faulty_config(std::shared_ptr<const FaultPlan> plan,
                                     std::uint32_t nodes,
                                     std::uint32_t partner_every,
                                     std::uint32_t io_every) {
  ckpt::MultilevelConfig cfg;
  cfg.node_count = nodes;
  cfg.nvm_capacity_bytes = 1 << 20;
  cfg.partner_every = partner_every;
  cfg.io_every = io_every;
  cfg.store_factory = [plan](ckpt::StoreLevel level, std::uint32_t host)
      -> std::unique_ptr<ckpt::KvStore> {
    const Target target = level == ckpt::StoreLevel::kIo
                              ? io_target()
                              : partner_target(host);
    return std::make_unique<FaultyKvStore>(plan, target);
  };
  return cfg;
}

std::vector<Bytes> two_payloads(std::byte tag) {
  std::vector<Bytes> payloads;
  payloads.push_back(Bytes(512, tag));
  payloads.push_back(Bytes(640, tag));
  return payloads;
}

std::vector<ByteSpan> views(const std::vector<Bytes>& payloads) {
  return {payloads.begin(), payloads.end()};
}

TEST(SelfHealing, TransientErrorsRetryWithBackoff) {
  auto plan = std::make_shared<FaultPlan>(7);
  // The first two IO operations (both put attempts of rank 0's first
  // write) fail transiently; the third attempt succeeds.
  plan->force(io_target(), 0, FaultKind::kTransient);
  plan->force(io_target(), 1, FaultKind::kTransient);
  ckpt::MultilevelManager mgr(faulty_config(plan, 2, 0, 1));

  const auto payloads = two_payloads(std::byte{0x5A});
  mgr.commit(views(payloads));

  const ckpt::LevelHealth& io = mgr.health().io;
  EXPECT_EQ(io.put_retries, 2u);
  EXPECT_EQ(io.put_failures, 0u);
  EXPECT_FALSE(io.degraded());
  // Two virtual backoffs: 0.01 then 0.01 * 2.
  EXPECT_NEAR(io.backoff_seconds, 0.03, 1e-12);
  EXPECT_TRUE(mgr.io_store().contains(0, 1));
  EXPECT_TRUE(mgr.io_store().contains(1, 1));
}

TEST(SelfHealing, TornWriteQuarantinedAndRewritten) {
  auto plan = std::make_shared<FaultPlan>(11);
  // Rank 0's first IO put lands truncated but reports success; only the
  // verify readback can catch it.
  plan->force(io_target(), 0, FaultKind::kTorn);
  ckpt::MultilevelManager mgr(faulty_config(plan, 2, 0, 1));

  const auto payloads = two_payloads(std::byte{0x33});
  mgr.commit(views(payloads));

  const ckpt::LevelHealth& io = mgr.health().io;
  EXPECT_EQ(io.verify_failures, 1u);
  EXPECT_EQ(io.quarantined, 1u);
  EXPECT_EQ(io.put_retries, 1u);
  EXPECT_EQ(io.put_failures, 0u);
  EXPECT_FALSE(io.degraded());

  // The rewritten entry is intact: lose both nodes and restore from IO.
  mgr.fail_node(0);
  mgr.fail_node(1);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 1u);
  EXPECT_EQ(rec->levels[0], ckpt::RecoveryLevel::kIo);
  EXPECT_EQ(rec->payloads[0], payloads[0]);
  EXPECT_EQ(rec->payloads[1], payloads[1]);
}

TEST(SelfHealing, IoOutageDegradesThenRepairs) {
  auto plan = std::make_shared<FaultPlan>(3);
  // IO device down for ops 0..3: commit 1 burns two put attempts (one per
  // rank), commits 2 and 3 burn one probe each. Commit 4 probes op 4,
  // which succeeds, and the level heals.
  plan->add_outage(io_target(), 0, 3);
  ckpt::MultilevelManager mgr(faulty_config(plan, 2, 1, 1));

  const auto payloads = two_payloads(std::byte{0x77});
  mgr.commit(views(payloads));  // id 1: IO down, level degrades
  EXPECT_TRUE(mgr.health().io.degraded());
  EXPECT_GE(mgr.health().io.put_failures, 2u);
  EXPECT_EQ(mgr.health().io.repairs, 0u);

  mgr.commit(views(payloads));  // id 2: probe fails, commit still succeeds
  mgr.commit(views(payloads));  // id 3: probe fails
  EXPECT_TRUE(mgr.health().io.degraded());
  EXPECT_EQ(mgr.health().degraded_commits, 3u);
  EXPECT_EQ(mgr.health().commits, 3u);

  // Mid-outage the application is still fully recoverable from the
  // surviving levels.
  const auto mid = mgr.recover();
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->checkpoint_id, 3u);
  EXPECT_EQ(mid->payloads[0], payloads[0]);

  mgr.commit(views(payloads));  // id 4: outage cleared, probe repairs
  EXPECT_FALSE(mgr.health().io.degraded());
  EXPECT_EQ(mgr.health().io.repairs, 1u);
  EXPECT_TRUE(mgr.io_store().contains(0, 4));
  EXPECT_TRUE(mgr.io_store().contains(1, 4));
  EXPECT_EQ(mgr.health().degraded_commits, 3u);  // no new degraded commits
}

TEST(SelfHealing, LocalTornWriteCaughtByVerify) {
  auto plan = std::make_shared<FaultPlan>(19);
  plan->force(local_target(0), 0, FaultKind::kTorn);
  auto stats = std::make_shared<FaultStats>();

  ckpt::MultilevelConfig cfg;
  cfg.node_count = 2;
  cfg.nvm_capacity_bytes = 1 << 20;
  cfg.partner_every = 1;
  cfg.io_every = 0;
  cfg.local_write_hook = make_local_write_hook(plan, stats);
  ckpt::MultilevelManager mgr(cfg);

  const auto payloads = two_payloads(std::byte{0x21});
  mgr.commit(views(payloads));

  EXPECT_EQ(stats->torn_writes, 1u);
  EXPECT_EQ(mgr.health().local.verify_failures, 1u);
  EXPECT_EQ(mgr.health().local.quarantined, 1u);
  // The rewrite verified: recovery still comes from local NVM.
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->levels[0], ckpt::RecoveryLevel::kLocal);
  EXPECT_EQ(rec->payloads[0], payloads[0]);
}

// ---------------------------------------------------------------------------
// NDP agent: drain retries and host fallback.

Bytes compressible_image(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(4));
  return data;
}

ndp::AgentConfig agent_config() {
  ndp::AgentConfig cfg;
  cfg.uncompressed_capacity = 1 << 20;
  cfg.compressed_capacity = 1 << 20;
  cfg.compress_bw = 1e6;
  cfg.io_bw = 0.5e6;
  return cfg;
}

TEST(NdpAgentFaults, TransientIoErrorRetriedWithBackoff) {
  auto plan = std::make_shared<FaultPlan>(23);
  plan->force(io_target(), 0, FaultKind::kTransient);
  FaultyKvStore io(plan, io_target());
  ndp::NdpAgent agent(agent_config(), io);

  const Bytes image = compressible_image(100 * 1024, 1);
  ASSERT_TRUE(agent.host_commit(1, image));
  agent.pump(1e9);

  EXPECT_EQ(agent.stats().drain_put_retries, 1u);
  EXPECT_EQ(agent.stats().drain_put_failures, 0u);
  EXPECT_NEAR(agent.stats().retry_backoff_seconds, 0.05, 1e-12);
  ASSERT_TRUE(agent.newest_on_io().has_value());
  EXPECT_EQ(agent.newest_on_io().value(), 1u);
  EXPECT_TRUE(io.contains(0, 1));
  EXPECT_EQ(io.stats().transient_errors, 1u);
}

TEST(NdpAgentFaults, TornIoWriteQuarantinedAndRetried) {
  auto plan = std::make_shared<FaultPlan>(29);
  plan->force(io_target(), 0, FaultKind::kTorn);
  FaultyKvStore io(plan, io_target());
  ndp::NdpAgent agent(agent_config(), io);

  const Bytes image = compressible_image(100 * 1024, 2);
  ASSERT_TRUE(agent.host_commit(1, image));
  agent.pump(1e9);

  EXPECT_EQ(agent.stats().drain_put_retries, 1u);
  EXPECT_EQ(agent.stats().drains_completed, 1u);
  // The landed copy is the intact compressed image.
  const auto packed = io.get(0, 1);
  ASSERT_TRUE(packed.ok());
  const compress::ChunkedCodec codec(compress::CodecId::kDeflateStyle, 1);
  EXPECT_EQ(codec.decompress(*packed), image);
}

TEST(NdpAgentFaults, PermanentOutageFallsBackToHostPath) {
  auto plan = std::make_shared<FaultPlan>(31);
  plan->add_outage(io_target(), 0, std::uint64_t{0} - 1);
  FaultyKvStore io(plan, io_target());
  ndp::NdpAgent agent(agent_config(), io);

  const Bytes image = compressible_image(100 * 1024, 3);
  ASSERT_TRUE(agent.host_commit(1, image));
  agent.pump(1e9);

  // No retries against a permanent outage: the drain hands the compressed
  // image back to the host immediately.
  EXPECT_EQ(agent.stats().drain_put_retries, 0u);
  EXPECT_EQ(agent.stats().drain_put_failures, 1u);
  EXPECT_FALSE(agent.newest_on_io().has_value());
  EXPECT_FALSE(agent.busy());

  auto fallback = agent.take_host_fallback();
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->checkpoint_id, 1u);
  const compress::ChunkedCodec codec(compress::CodecId::kDeflateStyle, 1);
  EXPECT_EQ(codec.decompress(fallback->compressed), image);
  // Collected once.
  EXPECT_FALSE(agent.take_host_fallback().has_value());
}

// ---------------------------------------------------------------------------
// Chaos soak: seeded schedules across schemes/codecs/outages, run through
// the engine pool, must hold every recovery invariant and reproduce
// bit-identically at any thread count.

std::vector<ChaosConfig> small_suite(std::size_t count) {
  const compress::CodecId codecs[] = {
      compress::CodecId::kNull, compress::CodecId::kRle,
      compress::CodecId::kLz4Style, compress::CodecId::kDeflateStyle};
  std::vector<ChaosConfig> configs;
  configs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    ChaosConfig cfg;
    cfg.seed = exec::sub_seed(20170101, k);
    cfg.commits = 16;
    cfg.scheme = (k % 2 == 0) ? ckpt::PartnerScheme::kCopy
                              : ckpt::PartnerScheme::kXorGroup;
    cfg.io_codec = codecs[(k / 2) % 4];
    cfg.io_outage = (k % 5) == 4;
    configs.push_back(cfg);
  }
  return configs;
}

TEST(Chaos, SoakHoldsRecoveryInvariants) {
  exec::TaskPool pool(4);
  const auto configs = small_suite(48);
  const auto reports = run_chaos_suite(configs, pool);
  ASSERT_EQ(reports.size(), configs.size());

  std::uint64_t injected = 0;
  std::uint64_t recoveries = 0;
  for (const auto& r : reports) {
    EXPECT_EQ(r.violations, 0u)
        << (r.violation_notes.empty() ? "(no note)"
                                      : r.violation_notes.front());
    injected += r.faults.injected();
    recoveries += r.recoveries;
  }
  // The soak genuinely exercised the fault and recovery paths.
  EXPECT_GT(injected, 0u);
  EXPECT_GT(recoveries, 0u);
}

TEST(Chaos, FingerprintIsThreadCountInvariant) {
  const auto configs = small_suite(24);
  exec::TaskPool one(1);
  exec::TaskPool four(4);
  const auto a = run_chaos_suite(configs, one);
  const auto b = run_chaos_suite(configs, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint) << "schedule " << i;
  }
  EXPECT_EQ(suite_fingerprint(a), suite_fingerprint(b));
}

// ---------------------------------------------------------------------------
// Thread invariance: the parallel commit/recover data path must be an
// execution detail. Payload bytes, checkpoint ids, stored IO containers,
// recovery results and every health counter (fingerprinted bit-for-bit,
// backoff doubles included) must match across pool sizes, with and
// without a seeded fault schedule.

struct DataPathTrace {
  std::vector<std::uint64_t> ids;
  std::vector<Bytes> io_bytes;  // newest id's per-rank IO containers
  std::uint64_t recovered_id = 0;
  std::vector<Bytes> recovered;
  std::vector<ckpt::RecoveryLevel> levels;
  std::uint64_t put_retries = 0;
  std::uint32_t health_fp = 0;
};

DataPathTrace run_data_path(unsigned pool_threads, bool with_faults) {
  exec::TaskPool pool(pool_threads);
  ckpt::MultilevelConfig mc;
  mc.node_count = 6;
  mc.nvm_capacity_bytes = 1 << 20;
  mc.partner_every = 1;
  mc.io_every = 1;
  mc.partner_scheme = ckpt::PartnerScheme::kXorGroup;
  mc.xor_group_size = 3;
  mc.io_codec = compress::CodecId::kDeflateStyle;
  mc.io_codec_level = 1;
  mc.io_chunk_bytes = 2048;  // several chunks per rank
  mc.io_threads = 0;         // resolve to the pool's size
  mc.pool = &pool;
  if (with_faults) {
    auto plan = std::make_shared<FaultPlan>(
        777, FaultRates{0.05, 0.03, 0.02, 0.02});
    mc.store_factory = [plan](ckpt::StoreLevel level, std::uint32_t host) {
      const Target target = level == ckpt::StoreLevel::kIo
                                ? io_target()
                                : partner_target(host);
      return std::make_unique<FaultyKvStore>(plan, target);
    };
    mc.local_write_hook = make_local_write_hook(plan, nullptr);
  }
  ckpt::MultilevelManager manager(mc);

  DataPathTrace trace;
  Rng rng(31337);
  for (int i = 0; i < 6; ++i) {
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < mc.node_count; ++r) {
      Bytes p(6000 + rng.next_below(500));
      for (auto& b : p) b = static_cast<std::byte>(rng.next_below(7));
      payloads.push_back(std::move(p));
    }
    const std::vector<ByteSpan> views(payloads.begin(), payloads.end());
    trace.ids.push_back(manager.commit(views));
  }
  for (std::uint32_t r = 0; r < mc.node_count; ++r) {
    const auto got = manager.io_store().get(r, trace.ids.back());
    trace.io_bytes.push_back(got.ok() ? *got : Bytes{});
  }
  if (const auto recovery = manager.recover()) {
    trace.recovered_id = recovery->checkpoint_id;
    trace.recovered = recovery->payloads;
    trace.levels = recovery->levels;
  }
  const auto& health = manager.health();
  trace.put_retries = health.local.put_retries +
                      health.partner.put_retries + health.io.put_retries;
  trace.health_fp = health_fingerprint(health);
  return trace;
}

TEST(ThreadInvariance, CleanDataPathBitIdenticalAcrossPoolSizes) {
  const auto base = run_data_path(1, /*with_faults=*/false);
  ASSERT_EQ(base.recovered_id, base.ids.back());
  for (unsigned threads : {2u, 8u}) {
    const auto other = run_data_path(threads, false);
    EXPECT_EQ(other.ids, base.ids) << threads << " threads";
    EXPECT_EQ(other.io_bytes, base.io_bytes) << threads << " threads";
    EXPECT_EQ(other.recovered_id, base.recovered_id);
    EXPECT_EQ(other.recovered, base.recovered) << threads << " threads";
    EXPECT_EQ(other.levels, base.levels) << threads << " threads";
    EXPECT_EQ(other.health_fp, base.health_fp) << threads << " threads";
  }
}

TEST(ThreadInvariance, FaultReplayBitIdenticalAcrossPoolSizes) {
  const auto base = run_data_path(1, /*with_faults=*/true);
  // The schedule genuinely fired (otherwise this test proves nothing).
  EXPECT_GT(base.put_retries, 0u);
  for (unsigned threads : {2u, 8u}) {
    const auto other = run_data_path(threads, true);
    EXPECT_EQ(other.ids, base.ids) << threads << " threads";
    EXPECT_EQ(other.io_bytes, base.io_bytes) << threads << " threads";
    EXPECT_EQ(other.recovered_id, base.recovered_id);
    EXPECT_EQ(other.recovered, base.recovered) << threads << " threads";
    EXPECT_EQ(other.levels, base.levels) << threads << " threads";
    EXPECT_EQ(other.put_retries, base.put_retries);
    EXPECT_EQ(other.health_fp, base.health_fp) << threads << " threads";
  }
}

TEST(ThreadInvariance, ChaosFingerprintInvariantAcrossManagerPools) {
  // Whole chaos schedules driven through differently-sized manager pools
  // (not suite pools: the manager's own data path is what varies here).
  ChaosConfig cfg;
  cfg.seed = 555;
  cfg.commits = 16;
  cfg.io_codec = compress::CodecId::kDeflateStyle;
  cfg.io_chunk_bytes = 1024;
  cfg.io_threads = 0;
  exec::TaskPool one(1);
  exec::TaskPool two(2);
  exec::TaskPool eight(8);
  cfg.pool = &one;
  const auto a = run_chaos(cfg);
  cfg.pool = &two;
  const auto b = run_chaos(cfg);
  cfg.pool = &eight;
  const auto c = run_chaos(cfg);
  EXPECT_GT(a.faults.injected(), 0u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
  EXPECT_EQ(a.violations, 0u);
}

// ---------------------------------------------------------------------------
// Incremental commit path under chaos (docs/DELTA.md): torn mid-chain
// deltas, killed anchor fulls, seeded soaks with delta + dedup enabled,
// and thread-invariance of the delta-mode fingerprint at pools 1/2/8.

// Evolving per-rank payloads: each commit rewrites one small region, so
// consecutive commits genuinely delta-encode.
std::vector<std::vector<Bytes>> evolving_payloads(std::uint32_t ranks,
                                                  std::uint32_t commits,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> state;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    Bytes p(2048);
    for (auto& b : p) b = static_cast<std::byte>(rng.next_below(256));
    state.push_back(std::move(p));
  }
  std::vector<std::vector<Bytes>> history;
  for (std::uint32_t c = 0; c < commits; ++c) {
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const std::size_t at = rng.next_below(state[r].size() - 64);
      for (std::size_t i = 0; i < 64; ++i) {
        state[r][at + i] = static_cast<std::byte>(rng.next_below(256));
      }
    }
    history.push_back(state);
  }
  return history;
}

TEST(ChaosDelta, TornMidChainDeltaFallsBackToIntactAnchor) {
  // IO is the only surviving level after both nodes die; the newest IO
  // entry for rank 0 (a mid-chain delta) is torn. Recovery must abandon
  // the broken chain tip and settle on the newest checkpoint whose whole
  // chain is intact - never return a wrong payload.
  ckpt::MultilevelConfig mc;
  mc.node_count = 2;
  mc.nvm_capacity_bytes = 1 << 20;
  mc.partner_every = 0;
  mc.io_every = 1;
  mc.delta.enabled = true;
  mc.delta.chain_length = 3;
  mc.delta.block_bytes = 128;
  ckpt::MultilevelManager mgr(mc);

  const auto history = evolving_payloads(2, 4, 71);  // kinds: F D D D
  for (const auto& payloads : history) mgr.commit(views(payloads));

  ASSERT_TRUE(mgr.corrupt_io(0));  // tears the id-4 delta link
  mgr.fail_node(0);
  mgr.fail_node(1);
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 3u);
  EXPECT_EQ(rec->payloads, history[2]);
  EXPECT_EQ(rec->levels[0], ckpt::RecoveryLevel::kIo);
  EXPECT_EQ(rec->levels[1], ckpt::RecoveryLevel::kIo);
}

TEST(ChaosDelta, KilledAnchorFullRecoversOlderCheckpoint) {
  // Local NVM only. Kill one rank's anchor full and tear the other
  // rank's chain tip: every checkpoint above the previous intact chain
  // is unrecoverable, and recovery walks back to it.
  ckpt::MultilevelConfig mc;
  mc.node_count = 2;
  mc.nvm_capacity_bytes = 1 << 20;
  mc.partner_every = 0;
  mc.io_every = 0;
  mc.delta.enabled = true;
  mc.delta.chain_length = 2;
  mc.delta.block_bytes = 128;
  ckpt::MultilevelManager mgr(mc);

  const auto history = evolving_payloads(2, 5, 73);  // kinds: F D D F D
  for (const auto& payloads : history) mgr.commit(views(payloads));

  mgr.local_store(0).erase(4);       // rank 0 loses the second anchor
  ASSERT_TRUE(mgr.corrupt_local(1));  // rank 1's newest delta is torn
  const auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 3u);  // newest id whose chains all replay
  EXPECT_EQ(rec->payloads, history[2]);
}

TEST(ChaosDelta, SoakWithDeltaDedupHoldsInvariants) {
  exec::TaskPool pool(4);
  std::vector<ChaosConfig> configs;
  for (std::size_t k = 0; k < 16; ++k) {
    ChaosConfig cfg;
    cfg.seed = exec::sub_seed(20250808, k);
    cfg.commits = 16;
    cfg.delta_chain = 2 + static_cast<std::uint32_t>(k % 3);
    cfg.io_dedup = (k % 2) == 0;
    cfg.sparse_updates = true;
    cfg.io_codec = (k % 4 < 2) ? compress::CodecId::kNull
                               : compress::CodecId::kLz4Style;
    cfg.io_outage = (k % 5) == 4;
    configs.push_back(cfg);
  }
  const auto reports = run_chaos_suite(configs, pool);
  ASSERT_EQ(reports.size(), configs.size());
  std::uint64_t injected = 0, recoveries = 0, deltas = 0, dup_bytes = 0;
  for (const auto& r : reports) {
    EXPECT_EQ(r.violations, 0u)
        << (r.violation_notes.empty() ? "(no note)"
                                      : r.violation_notes.front());
    injected += r.faults.injected();
    recoveries += r.recoveries;
    deltas += r.data.commits_delta;
    dup_bytes += r.data.dedup_dup_bytes;
  }
  // The soak exercised faults, recoveries, delta chains and dedup hits.
  EXPECT_GT(injected, 0u);
  EXPECT_GT(recoveries, 0u);
  EXPECT_GT(deltas, 0u);
  EXPECT_GT(dup_bytes, 0u);
}

TEST(ChaosDelta, FingerprintThreadInvariantAtPools128) {
  // The delta + dedup + sparse-update data path must stay an execution
  // detail: whole chaos schedules fingerprint identically (DataPathStats
  // included) through 1-, 2- and 8-thread manager pools.
  ChaosConfig cfg;
  cfg.seed = 808;
  cfg.commits = 16;
  cfg.delta_chain = 3;
  cfg.io_dedup = true;
  cfg.sparse_updates = true;
  cfg.io_codec = compress::CodecId::kDeflateStyle;
  cfg.io_chunk_bytes = 1024;
  cfg.io_threads = 0;
  exec::TaskPool one(1);
  exec::TaskPool two(2);
  exec::TaskPool eight(8);
  cfg.pool = &one;
  const auto a = run_chaos(cfg);
  cfg.pool = &two;
  const auto b = run_chaos(cfg);
  cfg.pool = &eight;
  const auto c = run_chaos(cfg);
  EXPECT_GT(a.faults.injected(), 0u);
  EXPECT_GT(a.data.commits_delta, 0u);
  EXPECT_EQ(a.violations, 0u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
}

TEST(Chaos, RerunReproducesBitIdentically) {
  ChaosConfig cfg;
  cfg.seed = 99;
  cfg.commits = 20;
  cfg.io_outage = true;
  const ChaosReport a = run_chaos(cfg);
  const ChaosReport b = run_chaos(cfg);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.violations, 0u);
  EXPECT_EQ(b.recoveries, a.recoveries);
  EXPECT_EQ(b.faults.injected(), a.faults.injected());
}

// ---------------------------------------------------------------------------
// Verify by digest (KvStore::digest): the write verify reads a CRC + size
// instead of a copy, through every decorator. It must be the same read
// the readback-compare path made - one op index, one metered read, the
// same typed errors, the flipped bytes' digest under a read bit flip - so
// these scenarios pin PutOutcome flags, HealthReport counters, fault-store
// op counts and TenantStoreView metering at the values the
// readback-compare implementation produced.

const FaultKind kDigestKinds[] = {FaultKind::kTransient, FaultKind::kTorn,
                                  FaultKind::kBitFlip, FaultKind::kStall,
                                  FaultKind::kOutage};

std::string outcome_bits(const ckpt::PutOutcome& o) {
  std::string s;
  for (const bool b : {o.ok, o.accepted, o.put_permanent, o.verify_failed,
                       o.read_error_permanent, o.quarantined}) {
    s += b ? '1' : '0';
  }
  return s;
}

// One write-verify attempt against a FaultyKvStore with `kind` forced at
// op `at` (0 = the put, 1 = the verify read).
std::string one_attempt(FaultKind kind, std::uint64_t at) {
  auto plan = std::make_shared<FaultPlan>(17);
  plan->force(io_target(), at, kind);
  FaultyKvStore store(plan, io_target());
  Bytes data(3000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7 + 1);
  }
  const ckpt::PutOutcome out = ckpt::verified_put_once(
      store, 2, 5, Bytes(data), ckpt::digest_of(ByteSpan(data)), true);
  return outcome_bits(out) + " ops=" + std::to_string(store.stats().ops) +
         " kept=" + std::to_string(store.contains(2, 5) ? 1 : 0);
}

// Three commits of four ranks (copy partners, IO every commit) with
// `kind` forced at ops 0, 1, 3 and 6 of one device: partner host 1 or the
// IO store. The device is a FaultyKvStore, or - `proxy` - a
// FaultyStoreProxy over a quota-metered TenantStoreView of a shared store.
std::string digest_scenario(FaultKind kind, bool io, bool proxy) {
  auto plan = std::make_shared<FaultPlan>(23);
  const Target target = io ? io_target() : partner_target(1);
  for (const std::uint64_t op : {0u, 1u, 3u, 6u}) plan->force(target, op, kind);
  ckpt::KvStore shared;
  ckpt::StoreQuota quota;
  std::vector<const FaultStats*> stats;
  ckpt::MultilevelConfig cfg;
  cfg.node_count = 4;
  cfg.partner_every = 1;
  cfg.io_every = 1;
  cfg.io_writer_depth = 0;
  cfg.store_factory = [&](ckpt::StoreLevel level, std::uint32_t host)
      -> std::unique_ptr<ckpt::KvStore> {
    const Target t = level == ckpt::StoreLevel::kIo ? io_target()
                                                    : partner_target(host);
    if (proxy && t == target) {
      auto view = std::make_unique<ckpt::TenantStoreView>(shared, 3, 4,
                                                          &quota);
      auto store = std::make_unique<FaultyStoreProxy>(plan, t,
                                                      std::move(view));
      stats.push_back(&store->stats());
      return store;
    }
    auto store = std::make_unique<FaultyKvStore>(plan, t);
    if (t == target) stats.push_back(&store->stats());
    return store;
  };
  ckpt::MultilevelManager mgr(cfg);
  for (int c = 0; c < 3; ++c) {
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < 4; ++r) {
      payloads.emplace_back(1500 + 300 * r,
                            static_cast<std::byte>(0x21 + 16 * c + r));
    }
    mgr.commit(views(payloads));
  }
  const ckpt::LevelHealth& h = io ? mgr.health().io : mgr.health().partner;
  std::uint64_t ops = 0;
  std::uint64_t injected = 0;
  for (const FaultStats* s : stats) {
    ops += s->ops;
    injected += s->injected();
  }
  std::string out = "puts=" + std::to_string(h.puts) +
                    " retries=" + std::to_string(h.put_retries) +
                    " failures=" + std::to_string(h.put_failures) +
                    " verify=" + std::to_string(h.verify_failures) +
                    " quarantined=" + std::to_string(h.quarantined) +
                    " degraded_commits=" +
                    std::to_string(h.degraded_commits) +
                    " repairs=" + std::to_string(h.repairs) +
                    " ops=" + std::to_string(ops) +
                    " injected=" + std::to_string(injected);
  if (proxy) {
    out += " quota_ops=" + std::to_string(quota.ops_charged) +
           " quota_bytes=" + std::to_string(quota.bytes_charged);
  }
  return out;
}

// Values recorded from the readback-compare implementation (put, then
// get() a copy and compare it with the source) on the same scenarios.
struct DigestCase {
  const char* attempt_put;     // kind forced on the put (op 0)
  const char* attempt_verify;  // kind forced on the verify read (op 1)
  const char* partner;
  const char* partner_proxy;
  const char* io;
  const char* io_proxy;
};

const DigestCase kReadbackCompareValues[] = {
    {"000000 ops=1 kept=0",
     "010100 ops=2 kept=1",
     "puts=16 retries=4 failures=0 verify=1 quarantined=0 degraded_commits=0 repairs=0 ops=11 injected=4",
     "puts=16 retries=4 failures=0 verify=1 quarantined=0 degraded_commits=0 repairs=0 ops=11 injected=4 quota_ops=7 quota_bytes=6224",
     "puts=16 retries=4 failures=0 verify=1 quarantined=0 degraded_commits=0 repairs=0 ops=29 injected=4",
     "puts=16 retries=4 failures=0 verify=1 quarantined=0 degraded_commits=0 repairs=0 ops=29 injected=4 quota_ops=25 quota_bytes=25628"},
    {"010101 ops=2 kept=0",
     "110000 ops=2 kept=1",
     "puts=14 retries=2 failures=0 verify=2 quarantined=2 degraded_commits=0 repairs=0 ops=10 injected=2",
     "puts=14 retries=2 failures=0 verify=2 quarantined=2 degraded_commits=0 repairs=0 ops=10 injected=2 quota_ops=10 quota_bytes=6421",
     "puts=14 retries=2 failures=0 verify=2 quarantined=2 degraded_commits=0 repairs=0 ops=28 injected=2",
     "puts=14 retries=2 failures=0 verify=2 quarantined=2 degraded_commits=0 repairs=0 ops=28 injected=2 quota_ops=28 quota_bytes=25638"},
    {"010101 ops=2 kept=0",
     "010101 ops=2 kept=0",
     "puts=15 retries=3 failures=0 verify=3 quarantined=3 degraded_commits=0 repairs=0 ops=12 injected=4",
     "puts=15 retries=3 failures=0 verify=3 quarantined=3 degraded_commits=0 repairs=0 ops=12 injected=4 quota_ops=12 quota_bytes=9336",
     "puts=15 retries=3 failures=0 verify=3 quarantined=3 degraded_commits=0 repairs=0 ops=30 injected=4",
     "puts=15 retries=3 failures=0 verify=3 quarantined=3 degraded_commits=0 repairs=0 ops=30 injected=4 quota_ops=30 quota_bytes=29040"},
    {"110000 ops=2 kept=1",
     "110000 ops=2 kept=1",
     "puts=12 retries=0 failures=0 verify=0 quarantined=0 degraded_commits=0 repairs=0 ops=6 injected=3",
     "puts=12 retries=0 failures=0 verify=0 quarantined=0 degraded_commits=0 repairs=0 ops=6 injected=3 quota_ops=6 quota_bytes=4668",
     "puts=12 retries=0 failures=0 verify=0 quarantined=0 degraded_commits=0 repairs=0 ops=24 injected=4",
     "puts=12 retries=0 failures=0 verify=0 quarantined=0 degraded_commits=0 repairs=0 ops=24 injected=4 quota_ops=24 quota_bytes=24072"},
    {"001000 ops=1 kept=0",
     "010110 ops=2 kept=1",
     "puts=6 retries=0 failures=3 verify=1 quarantined=0 degraded_commits=3 repairs=0 ops=4 injected=3",
     "puts=6 retries=0 failures=3 verify=1 quarantined=0 degraded_commits=3 repairs=0 ops=4 injected=3 quota_ops=1 quota_bytes=1556",
     "puts=13 retries=1 failures=3 verify=1 quarantined=0 degraded_commits=1 repairs=1 ops=23 injected=4",
     "puts=13 retries=1 failures=3 verify=1 quarantined=0 degraded_commits=1 repairs=1 ops=23 injected=4 quota_ops=19 quota_bytes=20360"},
};

TEST(VerifyByDigest, AttemptOutcomesMatchReadbackCompare) {
  for (std::size_t i = 0; i < std::size(kDigestKinds); ++i) {
    const FaultKind kind = kDigestKinds[i];
    EXPECT_EQ(one_attempt(kind, 0), kReadbackCompareValues[i].attempt_put)
        << to_string(kind);
    EXPECT_EQ(one_attempt(kind, 1), kReadbackCompareValues[i].attempt_verify)
        << to_string(kind);
  }
}

TEST(VerifyByDigest, HealthOpsAndMeteringMatchReadbackCompare) {
  for (std::size_t i = 0; i < std::size(kDigestKinds); ++i) {
    const FaultKind kind = kDigestKinds[i];
    const DigestCase& want = kReadbackCompareValues[i];
    EXPECT_EQ(digest_scenario(kind, false, false), want.partner)
        << to_string(kind);
    EXPECT_EQ(digest_scenario(kind, false, true), want.partner_proxy)
        << to_string(kind);
    EXPECT_EQ(digest_scenario(kind, true, false), want.io) << to_string(kind);
    EXPECT_EQ(digest_scenario(kind, true, true), want.io_proxy)
        << to_string(kind);
  }
}

TEST(VerifyByDigest, FlippedReadDigestsTheFlippedCopy) {
  // A read bit flip must reach the digest exactly as it reaches get():
  // the digest is the digest of the bytes get() would have returned.
  for (const bool proxy : {false, true}) {
    auto plan = std::make_shared<FaultPlan>(31);
    plan->force(io_target(), 1, FaultKind::kBitFlip);
    ckpt::KvStore shared;
    std::unique_ptr<ckpt::KvStore> store;
    if (proxy) {
      store = std::make_unique<FaultyStoreProxy>(
          plan, io_target(),
          std::make_unique<ckpt::TenantStoreView>(shared, 1, 4));
    } else {
      store = std::make_unique<FaultyKvStore>(plan, io_target());
    }
    const Bytes data(777, std::byte{0x6C});
    ASSERT_TRUE(store->put(0, 9, data).ok());
    const auto digest = store->digest(0, 9);  // op 1: flipped
    ASSERT_TRUE(digest.ok());
    EXPECT_NE(*digest, ckpt::digest_of(ByteSpan(data)));
    EXPECT_EQ(digest->size, data.size());
    // Replay op 1 as a get() on a fresh device: the same flip.
    auto replay_plan = std::make_shared<FaultPlan>(31);
    replay_plan->force(io_target(), 1, FaultKind::kBitFlip);
    FaultyKvStore replay(replay_plan, io_target());
    ASSERT_TRUE(replay.put(0, 9, data).ok());
    const auto flipped = replay.get(0, 9);
    ASSERT_TRUE(flipped.ok());
    EXPECT_EQ(*digest, ckpt::digest_of(ByteSpan(*flipped)));
  }
}

}  // namespace
}  // namespace ndpcr::faults
