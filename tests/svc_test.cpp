#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exec/task_pool.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"
#include "svc/svc_chaos.hpp"

namespace ndpcr::svc {
namespace {

Bytes pattern(std::size_t size, std::uint8_t fill) {
  return Bytes(size, std::byte{fill});
}

std::vector<ByteSpan> spans(const std::vector<Bytes>& payloads) {
  return {payloads.begin(), payloads.end()};
}

// ---------------------------------------------------------------------------
// SCR-style session API: latest-pointer semantics and restart.

TEST(SvcSession, LatestPointerAdvancesOnlyAtCommit) {
  CheckpointService service(SvcConfig{});
  TenantSpec spec;
  spec.ranks = 2;
  Session& s = service.open_session(std::move(spec));

  EXPECT_EQ(s.commit(), SvcStatus::kNoCheckpoint);
  EXPECT_FALSE(s.restart().has_value());

  const std::vector<Bytes> wave1{pattern(500, 0x1), pattern(300, 0x2)};
  ASSERT_EQ(s.start_checkpoint(spans(wave1)), SvcStatus::kQueued);
  // Staged, not committed: the latest-pointer must not move yet.
  EXPECT_EQ(s.latest(), 0u);
  EXPECT_EQ(s.pending_jobs(), 1u);
  EXPECT_EQ(s.commit(), SvcStatus::kOk);
  EXPECT_EQ(s.latest(), 1u);
  EXPECT_EQ(s.stats().committed, 1u);
  EXPECT_EQ(s.stats().committed_bytes, 800u);

  const std::vector<Bytes> wave2{pattern(500, 0x3), pattern(300, 0x4)};
  ASSERT_EQ(s.start_checkpoint(spans(wave2)), SvcStatus::kQueued);
  ASSERT_EQ(s.commit(), SvcStatus::kOk);
  EXPECT_EQ(s.latest(), 2u);

  const auto restart = s.restart();
  ASSERT_TRUE(restart.has_value());
  EXPECT_EQ(restart->checkpoint_id, 2u);
  ASSERT_EQ(restart->payloads.size(), 2u);
  EXPECT_EQ(restart->payloads[0], wave2[0]);
  EXPECT_EQ(restart->payloads[1], wave2[1]);
}

TEST(SvcSession, ValidatesPayloadCountAndRankRange) {
  CheckpointService service(SvcConfig{});
  TenantSpec spec;
  spec.ranks = 2;
  Session& s = service.open_session(std::move(spec));
  const std::vector<Bytes> one{pattern(100, 0x1)};
  EXPECT_THROW((void)s.start_checkpoint(spans(one)), std::invalid_argument);

  TenantSpec zero;
  zero.ranks = 0;
  EXPECT_THROW(service.open_session(std::move(zero)), std::invalid_argument);
  TenantSpec wide;
  wide.ranks = ckpt::kTenantSubSlotStride;
  EXPECT_THROW(service.open_session(std::move(wide)), std::invalid_argument);
}

TEST(SvcSession, TenantsShareDevicesWithoutCollisions) {
  // Two tenants, identical rank/id keys: both live on the shared IO and
  // partner devices yet each restarts its own bytes.
  CheckpointService service(SvcConfig{});
  Session& a = service.open_session(TenantSpec{});
  Session& b = service.open_session(TenantSpec{});
  const std::vector<Bytes> pa{pattern(400, 0xAA)};
  const std::vector<Bytes> pb{pattern(400, 0xBB)};
  ASSERT_EQ(a.start_checkpoint(spans(pa)), SvcStatus::kQueued);
  ASSERT_EQ(b.start_checkpoint(spans(pb)), SvcStatus::kQueued);
  service.drain();
  EXPECT_EQ(a.latest(), 1u);
  EXPECT_EQ(b.latest(), 1u);
  EXPECT_EQ(a.restart()->payloads[0], pa[0]);
  EXPECT_EQ(b.restart()->payloads[0], pb[0]);
}

// ---------------------------------------------------------------------------
// Quotas: the admission gate and the store seam.

TEST(SvcQuota, ExhaustedOpGrantIsRefusedAtAdmission) {
  CheckpointService service(SvcConfig{});
  TenantSpec spec;
  spec.qos.quota_ops = 2;  // an IO grant of two operations
  Session& s = service.open_session(std::move(spec));

  // Commit until the grant is spent; admission must then refuse with
  // kDeniedQuota (typed, no exception) while restart keeps working.
  const std::vector<Bytes> payload{pattern(600, 0x5)};
  SvcStatus status = SvcStatus::kQueued;
  int commits = 0;
  for (; commits < 10; ++commits) {
    status = s.start_checkpoint(spans(payload));
    if (status != SvcStatus::kQueued) break;
    s.commit();
  }
  EXPECT_EQ(status, SvcStatus::kDeniedQuota);
  EXPECT_GT(commits, 0);
  EXPECT_GE(s.stats().denied_quota, 1u);
  EXPECT_FALSE(s.can_admit(600));
  EXPECT_TRUE(s.quota().exhausted());
  const auto restart = s.restart();
  ASSERT_TRUE(restart.has_value());
  EXPECT_EQ(restart->checkpoint_id, s.latest());
}

TEST(SvcQuota, SeamDenialDegradesIoAndCommitsContinue) {
  CheckpointService service(SvcConfig{});
  TenantSpec spec;
  // Room for roughly one checkpoint image on IO, then the seam denies.
  spec.qos.quota_bytes = 1200;
  Session& s = service.open_session(std::move(spec));

  const std::vector<Bytes> payload{pattern(900, 0x6)};
  ASSERT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  EXPECT_EQ(s.commit(), SvcStatus::kOk);

  // Second checkpoint: the IO put exceeds the grant's remaining bytes,
  // the typed permanent error degrades the IO level, and the commit
  // still lands on the surviving levels.
  ASSERT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  EXPECT_EQ(s.commit(), SvcStatus::kDegraded);
  EXPECT_EQ(s.latest(), 2u);
  EXPECT_GE(s.quota().write_denials, 1u);
  EXPECT_TRUE(s.manager().health().any_degraded());
  const auto restart = s.restart();
  ASSERT_TRUE(restart.has_value());
  EXPECT_EQ(restart->checkpoint_id, 2u);
  EXPECT_EQ(restart->payloads[0], payload[0]);
}

// ---------------------------------------------------------------------------
// Backpressure: soft throttling and the hard watermark.

SvcConfig tight_nvm_config() {
  SvcConfig cfg;
  cfg.per_rank_nvm_bytes = 64 << 10;
  cfg.shared_nvm_bytes = 4000;  // tiny aggregate budget
  cfg.soft_fraction = 0.25;     // soft watermark at 1000 bytes
  cfg.hard_fraction = 0.75;     // hard watermark at 3000 bytes
  cfg.degrade_factor = 3;
  return cfg;
}

TEST(SvcBackpressure, SoftWatermarkThrottlesToLowerFrequency) {
  CheckpointService service(tight_nvm_config());
  Session& s = service.open_session(TenantSpec{});
  const std::vector<Bytes> payload{pattern(800, 0x7)};

  // First checkpoint: below the soft watermark, clean admit.
  ASSERT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  s.commit();

  // Resident NVM (~800B + image header) now projects past the soft
  // watermark: the next admit succeeds but arms the throttle, and the
  // following degrade_factor - 1 = 2 attempts are refused.
  ASSERT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  s.commit();
  EXPECT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kThrottled);
  EXPECT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kThrottled);
  EXPECT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  s.commit();
  EXPECT_EQ(s.stats().throttled, 2u);
  EXPECT_EQ(s.latest(), 3u);
}

TEST(SvcBackpressure, HardWatermarkDeniesOutright) {
  CheckpointService service(tight_nvm_config());
  Session& s = service.open_session(TenantSpec{});
  // A single staged checkpoint whose projected residency clears the hard
  // watermark (3000 bytes) is denied, stages nothing, and can_admit
  // previews the same answer without advancing any state.
  const std::vector<Bytes> big{pattern(3500, 0x8)};
  EXPECT_FALSE(s.can_admit(3500));
  EXPECT_EQ(s.start_checkpoint(spans(big)), SvcStatus::kDeniedBackpressure);
  EXPECT_EQ(s.pending_jobs(), 0u);
  EXPECT_EQ(s.stats().denied_backpressure, 1u);
  EXPECT_EQ(s.stats().accepted, 0u);
  // A small one still fits.
  EXPECT_TRUE(s.can_admit(500));
  const std::vector<Bytes> small{pattern(500, 0x9)};
  EXPECT_EQ(s.start_checkpoint(spans(small)), SvcStatus::kQueued);
}

TEST(SvcBackpressure, PreviewDoesNotAdvanceThrottleState) {
  CheckpointService service(tight_nvm_config());
  Session& s = service.open_session(TenantSpec{});
  const std::vector<Bytes> payload{pattern(800, 0xA)};
  ASSERT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  s.commit();
  ASSERT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  s.commit();
  // Throttle armed. Previews in the throttle band report false but must
  // not consume the skip counter...
  EXPECT_FALSE(s.can_admit(800));
  EXPECT_FALSE(s.can_admit(800));
  EXPECT_FALSE(s.can_admit(800));
  // ...so the real attempts still see exactly two refusals.
  EXPECT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kThrottled);
  EXPECT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kThrottled);
  EXPECT_EQ(s.start_checkpoint(spans(payload)), SvcStatus::kQueued);
}

// ---------------------------------------------------------------------------
// Fair-share scheduling: QoS weights shift shared-IO throughput.

TEST(SvcScheduler, WeightsShiftSharedIoThroughput) {
  SvcConfig cfg;
  cfg.scheduler_quantum = 1024;  // one weight-1 checkpoint per round
  CheckpointService service(cfg);
  TenantSpec starved;
  starved.qos.weight = 1;
  TenantSpec favored;
  favored.qos.weight = 4;
  Session& lo = service.open_session(std::move(starved));
  Session& hi = service.open_session(std::move(favored));

  // Both tenants stage 20 equal checkpoints (cost 1024 = one quantum).
  const std::vector<Bytes> payload{pattern(1024, 0xB)};
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(lo.start_checkpoint(spans(payload)), SvcStatus::kQueued);
    ASSERT_EQ(hi.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  }

  // Deficit round robin, exact arithmetic: per round the weight-1 tenant
  // earns one checkpoint's deficit, the weight-4 tenant four. After 4
  // contended rounds the committed counts sit at exactly 1:4.
  for (int round = 0; round < 4; ++round) service.pump_round();
  EXPECT_EQ(lo.stats().committed, 4u);
  EXPECT_EQ(hi.stats().committed, 16u);
  // The shared-IO byte split matches the weights while contended.
  const auto lo_io = lo.manager().data_path().io_bytes_written;
  const auto hi_io = hi.manager().data_path().io_bytes_written;
  EXPECT_EQ(hi_io, 4 * lo_io);
  // Weight-normalized fairness is perfect mid-contention; raw is not.
  EXPECT_DOUBLE_EQ(service.jain_io_weighted(), 1.0);
  EXPECT_LT(service.jain_io(), 0.8);

  // The starved tenant pays in queueing latency on the virtual clock.
  service.drain();
  EXPECT_EQ(lo.stats().committed, 20u);
  EXPECT_EQ(hi.stats().committed, 20u);
  EXPECT_GT(lo.commit_latency().p99(), hi.commit_latency().p99());
  // Fully drained, equal work: the raw index recovers to ~1.
  EXPECT_GT(service.jain_io(), 0.99);
}

TEST(SvcScheduler, LightTenantsProgressEveryRound) {
  // Work conservation: a weight-1 tenant behind a weight-8 neighbor
  // still commits at least one checkpoint per round once its deficit
  // covers one job - DRR shares, it does not starve.
  SvcConfig cfg;
  cfg.scheduler_quantum = 512;
  CheckpointService service(cfg);
  TenantSpec light;
  light.qos.weight = 1;
  TenantSpec heavy;
  heavy.qos.weight = 8;
  Session& lo = service.open_session(std::move(light));
  Session& hi = service.open_session(std::move(heavy));
  const std::vector<Bytes> payload{pattern(512, 0xC)};
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(lo.start_checkpoint(spans(payload)), SvcStatus::kQueued);
    ASSERT_EQ(hi.start_checkpoint(spans(payload)), SvcStatus::kQueued);
  }
  std::uint64_t lo_last = 0;
  for (int round = 0; round < 3; ++round) {
    service.pump_round();
    EXPECT_GT(lo.stats().committed, lo_last);
    lo_last = lo.stats().committed;
  }
}

// ---------------------------------------------------------------------------
// Determinism and isolation: the service fingerprint contract.

SvcChaosConfig chaos_config(std::uint64_t seed, bool faults,
                            exec::TaskPool* pool) {
  SvcChaosConfig cfg;
  cfg.seed = seed;
  cfg.tenants = 24;
  cfg.waves = 5;
  cfg.faults = faults;
  cfg.pool = pool;
  return cfg;
}

TEST(SvcDeterminism, FingerprintsPoolInvariantClean) {
  exec::TaskPool p1(1);
  const SvcChaosReport base = run_svc_chaos(chaos_config(11, false, &p1));
  EXPECT_EQ(base.violations, 0u);
  EXPECT_GT(base.committed, 0u);
  for (const std::size_t threads : {2ul, 8ul}) {
    exec::TaskPool pool(threads);
    const SvcChaosReport r = run_svc_chaos(chaos_config(11, false, &pool));
    EXPECT_EQ(r.fingerprint, base.fingerprint) << threads << " threads";
    EXPECT_EQ(r.service_fingerprint, base.service_fingerprint);
    EXPECT_EQ(r.tenant_fingerprints, base.tenant_fingerprints);
  }
}

TEST(SvcDeterminism, FingerprintsPoolInvariantUnderFaults) {
  exec::TaskPool p1(1);
  const SvcChaosReport base = run_svc_chaos(chaos_config(12, true, &p1));
  EXPECT_EQ(base.violations, 0u);
  EXPECT_GT(base.fault_injections, 0u);
  EXPECT_GT(base.restored, 0u);
  for (const std::size_t threads : {2ul, 8ul}) {
    exec::TaskPool pool(threads);
    const SvcChaosReport r = run_svc_chaos(chaos_config(12, true, &pool));
    EXPECT_EQ(r.fingerprint, base.fingerprint) << threads << " threads";
    EXPECT_EQ(r.service_fingerprint, base.service_fingerprint);
    EXPECT_EQ(r.tenant_fingerprints, base.tenant_fingerprints);
  }
}

// Report fingerprints recorded before the tenant fault decorator became
// the one forwarding fault class: the clean and the faulted soak replay
// bit for bit.
TEST(SvcDeterminism, PinnedReportFingerprints) {
  exec::TaskPool pool(2);
  const SvcChaosReport clean = run_svc_chaos(chaos_config(11, false, &pool));
  const SvcChaosReport faulted = run_svc_chaos(chaos_config(12, true, &pool));
  EXPECT_EQ(faulted.violations, 0u);
  EXPECT_GT(faulted.fault_injections, 0u);
  const std::vector<std::uint64_t> got = {
      clean.fingerprint, clean.service_fingerprint, faulted.fingerprint,
      faulted.service_fingerprint, faulted.fault_injections};
  const std::vector<std::uint64_t> want = {1719879236u, 728770194u,
                                           1179065899u, 3427245943u, 21u};
  EXPECT_EQ(got, want);
}

TEST(SvcIsolation, CleanTenantsUnaffectedByNeighborFaults) {
  // The isolation property: tenant fingerprints of the clean (even-id)
  // tenants must be bit-identical between a run with no faults anywhere
  // and a run where every odd tenant is under a seeded fault plan.
  exec::TaskPool pool(4);
  const SvcChaosReport clean = run_svc_chaos(chaos_config(13, false, &pool));
  const SvcChaosReport faulted = run_svc_chaos(chaos_config(13, true, &pool));
  EXPECT_EQ(clean.violations, 0u);
  EXPECT_EQ(faulted.violations, 0u);
  EXPECT_GT(faulted.fault_injections, 0u);
  ASSERT_EQ(clean.tenant_fingerprints.size(),
            faulted.tenant_fingerprints.size());
  bool any_odd_differs = false;
  for (std::size_t t = 0; t < clean.tenant_fingerprints.size(); ++t) {
    if (t % 2 == 0) {
      EXPECT_EQ(clean.tenant_fingerprints[t], faulted.tenant_fingerprints[t])
          << "clean tenant " << t << " was perturbed by neighbor faults";
    } else if (clean.tenant_fingerprints[t] !=
               faulted.tenant_fingerprints[t]) {
      any_odd_differs = true;
    }
  }
  // Sanity: the faulted half did actually take different paths.
  EXPECT_TRUE(any_odd_differs);
}

TEST(SvcChaos, InvariantsHoldAcrossSeeds) {
  exec::TaskPool pool(4);
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    SvcChaosConfig cfg = chaos_config(seed, true, &pool);
    const SvcChaosReport r = run_svc_chaos(cfg);
    EXPECT_EQ(r.violations, 0u) << "seed " << seed
                                << (r.violation_notes.empty()
                                        ? ""
                                        : ": " + r.violation_notes.front());
    EXPECT_GT(r.committed, 0u) << "seed " << seed;
    EXPECT_EQ(r.restored + r.no_checkpoint, r.restarts) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Observability: fairness and latency surfaced through the registry.

TEST(SvcMetrics, ExportsFairnessLatencyAndPerTenantCounters) {
  exec::TaskPool pool(2);
  obs::MetricsRegistry metrics;
  SvcChaosConfig cfg = chaos_config(17, true, &pool);
  cfg.metrics = &metrics;
  const SvcChaosReport r = run_svc_chaos(cfg);
  ASSERT_EQ(r.violations, 0u);

  EXPECT_EQ(metrics.counter("svc.chaos.committed").value(), r.committed);
  EXPECT_GT(metrics.counter("svc.t0000.commits").value(), 0u);
  EXPECT_GT(metrics.counter("svc.t0000.io_bytes").value(), 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("svc.fairness.jain_io").value(), r.jain_io);
  EXPECT_DOUBLE_EQ(metrics.gauge("svc.fairness.jain_io_weighted").value(),
                   r.jain_io_weighted);
  EXPECT_GT(metrics.gauge("svc.t0000.latency_p99").value(), 0.0);
  EXPECT_GE(metrics.gauge("svc.t0000.latency_p99").value(),
            metrics.gauge("svc.t0000.latency_p50").value());
  // Registries are name-sorted: the export fingerprint is deterministic.
  obs::MetricsRegistry again;
  SvcChaosConfig cfg2 = chaos_config(17, true, &pool);
  cfg2.metrics = &again;
  (void)run_svc_chaos(cfg2);
  EXPECT_EQ(metrics.fingerprint(), again.fingerprint());
}

TEST(SvcMetrics, JainIndexProperties) {
  EXPECT_DOUBLE_EQ(obs::jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(obs::jain_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(obs::jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  // One tenant hogging everything: 1/n.
  EXPECT_NEAR(obs::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

}  // namespace
}  // namespace ndpcr::svc
