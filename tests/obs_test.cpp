#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "exec/reporter.hpp"
#include "exec/task_pool.hpp"
#include "faults/chaos.hpp"
#include "faults/fault_plan.hpp"
#include "faults/faulty_stores.hpp"
#include "ndp/agent.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ndpcr::obs {
namespace {

using faults::FaultPlan;
using faults::FaultRates;
using faults::FaultyKvStore;
using faults::io_target;
using faults::partner_target;

// ---------------------------------------------------------------------------
// Metrics: histogram bucketing, quantiles, registry export.

TEST(Histogram, ExactMomentsAndClampedQuantiles) {
  Histogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 31.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 6.2);
  // Bucket-resolution estimates, always inside the observed range.
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), 1.0) << q;
    EXPECT_LE(h.quantile(q), 16.0) << q;
  }
  // The median of a power-of-two ladder lands within a factor of 2.
  EXPECT_GE(h.p50(), 2.0);
  EXPECT_LE(h.p50(), 8.0);
}

TEST(Histogram, EmptyAndDegenerate) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  h.record(3.5);
  EXPECT_DOUBLE_EQ(h.p50(), 3.5);  // clamped to [min, max]
  EXPECT_DOUBLE_EQ(h.p99(), 3.5);
}

TEST(Summary, ExactPercentilesOnKnownSamples) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const Summary s = summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 0.51);
  EXPECT_GE(s.p95, 95.0);
  EXPECT_LE(s.p95, 96.0);
  EXPECT_GE(s.p99, 99.0);
}

TEST(MetricsRegistry, ExportsValidJsonInNameOrder) {
  MetricsRegistry m;
  m.counter("b.count").add(2);
  m.counter("a.count").add(1);
  m.gauge("x.level").set(0.25);
  m.histogram("lat").record(0.001);
  m.histogram("lat").record(0.004);

  exec::Reporter reporter({"obs_test", 1, 1, 1, "cfg"});
  m.add_to(reporter);
  ASSERT_EQ(reporter.sections().size(), 3u);
  EXPECT_EQ(reporter.sections()[0].name, "metrics.counters");
  // std::map ordering: "a.count" exports before "b.count".
  EXPECT_EQ(reporter.sections()[0].rows[0][0], "a.count");
  EXPECT_TRUE(json_valid(reporter.json()));
}

TEST(MetricsRegistry, FingerprintTracksState) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("x").add(1);
  b.counter("x").add(1);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.counter("x").add(1);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------------
// Tracer: span structure, exporter validity, disabled behaviour.

TEST(Tracer, SpansNestAndExportAsValidChromeJson) {
  Tracer tracer;
  tracer.set_track_name(0, "main");
  {
    auto outer = tracer.span("outer", "test", 0, {u64("n", 1)});
    auto inner = tracer.span("inner", "test", 0,
                             {f64("x", 0.5), str("tag", "a\"b\\c")});
    tracer.instant("tick", "test", 0);
  }
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 5u);  // 2x begin, instant, 2x end (LIFO)
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, Phase::kBegin);
  EXPECT_EQ(events[2].phase, Phase::kInstant);
  EXPECT_EQ(events[3].name, "inner");
  EXPECT_EQ(events[3].phase, Phase::kEnd);
  EXPECT_EQ(events[4].name, "outer");
  EXPECT_TRUE(json_valid(tracer.chrome_json()));
}

TEST(Tracer, DisabledTracerRecordsNothingCheaply) {
  Tracer off(false);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.root(), nullptr);
  EXPECT_TRUE(off.task_buffers(8).empty());
  {
    auto span = off.span("ignored", "test");
    off.instant("ignored", "test");
    off.instant_at(1.0, "ignored", "test");
  }
  EXPECT_TRUE(off.events().empty());
  EXPECT_TRUE(json_valid(off.chrome_json()));
  // The shared null tracer behaves the same and never accumulates.
  Tracer::null().instant("ignored", "test");
  EXPECT_FALSE(Tracer::null().enabled());
}

TEST(Tracer, WallEventsExcludedFromFingerprint) {
  Tracer tracer;
  tracer.instant("a", "test");
  const std::uint32_t before = tracer.fingerprint();
  { auto w = tracer.wall_span("timed", "bench"); }
  EXPECT_GT(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.fingerprint(), before);
}

TEST(Tracer, SpliceMergesTaskBuffersInIndexOrder) {
  Tracer tracer;
  auto parts = tracer.task_buffers(3);
  ASSERT_EQ(parts.size(), 3u);
  // Fill out of order: splice must restore index order.
  parts[2].instant("t2", "test");
  parts[0].instant("t0", "test");
  parts[1].instant("t1", "test");
  tracer.splice(parts);
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[0].name, "t0");
  EXPECT_EQ(tracer.events()[1].name, "t1");
  EXPECT_EQ(tracer.events()[2].name, "t2");
}

// ---------------------------------------------------------------------------
// Determinism: the traced data path mirrors chaos_test's ThreadInvariance
// suite - trace and metrics fingerprints must be bit-identical at pool
// sizes 1/2/8, clean and under a seeded fault schedule.

struct ObsRun {
  std::uint32_t trace_fp = 0;
  std::uint32_t metrics_fp = 0;
  std::size_t events = 0;
  std::string json;
};

ObsRun run_traced_data_path(unsigned pool_threads, bool with_faults) {
  exec::TaskPool pool(pool_threads);
  Tracer tracer;
  MetricsRegistry metrics;

  ckpt::MultilevelConfig mc;
  mc.node_count = 6;
  mc.nvm_capacity_bytes = 1 << 20;
  mc.partner_every = 1;
  mc.io_every = 1;
  mc.partner_scheme = ckpt::PartnerScheme::kXorGroup;
  mc.xor_group_size = 3;
  mc.io_codec = compress::CodecId::kDeflateStyle;
  mc.io_codec_level = 1;
  mc.io_chunk_bytes = 2048;
  mc.pool = &pool;
  mc.trace = &tracer;
  if (with_faults) {
    auto plan = std::make_shared<FaultPlan>(
        777, FaultRates{0.05, 0.03, 0.02, 0.02});
    mc.store_factory = [plan](ckpt::StoreLevel level, std::uint32_t host) {
      const faults::Target target = level == ckpt::StoreLevel::kIo
                                        ? io_target()
                                        : partner_target(host);
      return std::make_unique<FaultyKvStore>(plan, target);
    };
    mc.local_write_hook = faults::make_local_write_hook(plan, nullptr);
  }
  ckpt::MultilevelManager manager(mc);

  Rng rng(31337);
  for (int i = 0; i < 6; ++i) {
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < mc.node_count; ++r) {
      Bytes p(6000 + rng.next_below(500));
      for (auto& b : p) b = static_cast<std::byte>(rng.next_below(7));
      payloads.push_back(std::move(p));
    }
    const std::vector<ByteSpan> views(payloads.begin(), payloads.end());
    (void)manager.commit(views);
  }
  (void)manager.recover();
  ckpt::record_health(metrics, manager.health(), "ckpt");

  ObsRun run;
  run.trace_fp = tracer.fingerprint();
  run.metrics_fp = metrics.fingerprint();
  run.events = tracer.events().size();
  run.json = tracer.chrome_json();
  return run;
}

bool has_event(const std::string& json, const std::string& name) {
  return json.find("\"name\":\"" + name + "\"") != std::string::npos;
}

TEST(ObsDeterminism, CleanTraceBitIdenticalAtPoolSizes128) {
  const auto base = run_traced_data_path(1, /*with_faults=*/false);
  EXPECT_GT(base.events, 0u);
  EXPECT_TRUE(json_valid(base.json));
  // Every commit phase and the recovery walk appear in the trace. The
  // IO leg emits per-rank io_compress/io_put and one io_settle span
  // around the level settle.
  for (const char* name : {"commit", "image_build", "local", "partner",
                           "io", "io_compress", "io_put", "io_settle",
                           "recover", "try_checkpoint"}) {
    EXPECT_TRUE(has_event(base.json, name)) << name;
  }
  for (unsigned threads : {2u, 8u}) {
    const auto other = run_traced_data_path(threads, false);
    EXPECT_EQ(other.trace_fp, base.trace_fp) << threads << " threads";
    EXPECT_EQ(other.metrics_fp, base.metrics_fp) << threads << " threads";
    EXPECT_EQ(other.events, base.events) << threads << " threads";
  }
}

TEST(ObsDeterminism, FaultedTraceBitIdenticalAtPoolSizes128) {
  const auto base = run_traced_data_path(1, /*with_faults=*/true);
  EXPECT_TRUE(json_valid(base.json));
  // The schedule genuinely perturbed the path: retry/quarantine events
  // are in the trace, not just counters.
  EXPECT_TRUE(has_event(base.json, "put_retry") ||
              has_event(base.json, "read_retry") ||
              has_event(base.json, "verify_fail"));
  for (unsigned threads : {2u, 8u}) {
    const auto other = run_traced_data_path(threads, true);
    EXPECT_EQ(other.trace_fp, base.trace_fp) << threads << " threads";
    EXPECT_EQ(other.metrics_fp, base.metrics_fp) << threads << " threads";
  }
}

TEST(ObsDeterminism, TracedChaosRunMatchesUntracedFingerprint) {
  faults::ChaosConfig cfg;
  cfg.seed = 555;
  cfg.commits = 16;
  cfg.io_codec = compress::CodecId::kDeflateStyle;
  cfg.io_chunk_bytes = 1024;

  exec::TaskPool one(1);
  cfg.pool = &one;
  const auto untraced = faults::run_chaos(cfg);

  std::uint32_t base_trace_fp = 0;
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::TaskPool pool(threads);
    Tracer tracer;
    MetricsRegistry metrics;
    faults::ChaosConfig traced_cfg = cfg;
    traced_cfg.pool = &pool;
    traced_cfg.trace = &tracer;
    traced_cfg.metrics = &metrics;
    const auto report = faults::run_chaos(traced_cfg);
    // Observation must not perturb the run.
    EXPECT_EQ(report.fingerprint, untraced.fingerprint)
        << threads << " threads";
    EXPECT_EQ(report.violations, 0u);
    EXPECT_TRUE(json_valid(tracer.chrome_json()));
    EXPECT_EQ(metrics.counter("chaos.run.commits").value(), report.commits);
    if (threads == 1) {
      base_trace_fp = tracer.fingerprint();
      // Injections appear as instants on the fault tracks.
      EXPECT_GT(report.faults.injected(), 0u);
      EXPECT_TRUE(has_event(tracer.chrome_json(), "fault_transient") ||
                  has_event(tracer.chrome_json(), "fault_torn") ||
                  has_event(tracer.chrome_json(), "fault_stall"));
    } else {
      EXPECT_EQ(tracer.fingerprint(), base_trace_fp)
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// NDP agent: drain pipeline spans on the virtual clock, health counters.

Bytes compressible_image(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(4));
  return data;
}

ndp::AgentConfig agent_config(Tracer* tracer) {
  ndp::AgentConfig cfg;
  cfg.uncompressed_capacity = 1 << 20;
  cfg.compressed_capacity = 1 << 20;
  cfg.compress_bw = 1e6;
  cfg.io_bw = 0.5e6;
  cfg.trace = tracer;
  return cfg;
}

TEST(ObsNdpAgent, DrainEmitsOverlappedStageSpans) {
  Tracer tracer;
  ckpt::KvStore io;
  ndp::NdpAgent agent(agent_config(&tracer), io);
  ASSERT_TRUE(agent.host_commit(1, compressible_image(100 * 1024, 1)));
  agent.pump(1e9);

  const std::string json = tracer.chrome_json();
  EXPECT_TRUE(json_valid(json));
  for (const char* name :
       {"host_commit", "drain_start", "compress_chunk", "write_chunk",
        "drain"}) {
    EXPECT_TRUE(has_event(json, name)) << name;
  }
  EXPECT_EQ(agent.stats().io_put_attempts, 1u);
  EXPECT_EQ(agent.stats().drain_put_failures, 0u);
  EXPECT_EQ(agent.drain_health().state, ckpt::LevelState::kHealthy);
}

TEST(ObsNdpAgent, FallbackCountedAndTraced) {
  Tracer tracer;
  auto plan = std::make_shared<FaultPlan>(31);
  plan->add_outage(io_target(), 0, std::uint64_t{0} - 1);
  FaultyKvStore io(plan, io_target());
  ndp::NdpAgent agent(agent_config(&tracer), io);
  ASSERT_TRUE(agent.host_commit(1, compressible_image(100 * 1024, 3)));
  agent.pump(1e9);

  EXPECT_EQ(agent.stats().drain_put_failures, 1u);
  EXPECT_EQ(agent.stats().io_put_attempts, 1u);
  const auto health = agent.drain_health();
  EXPECT_EQ(health.state, ckpt::LevelState::kDegraded);
  EXPECT_EQ(health.put_failures, 1u);
  const std::string json = tracer.chrome_json();
  EXPECT_TRUE(has_event(json, "drain_failed"));
  EXPECT_TRUE(has_event(json, "host_fallback"));
}

TEST(ObsNdpAgent, RetryCountersFeedDrainHealth) {
  Tracer tracer;
  auto plan = std::make_shared<FaultPlan>(23);
  plan->force(io_target(), 0, faults::FaultKind::kTransient);
  FaultyKvStore io(plan, io_target());
  ndp::NdpAgent agent(agent_config(&tracer), io);
  ASSERT_TRUE(agent.host_commit(1, compressible_image(100 * 1024, 1)));
  agent.pump(1e9);

  EXPECT_EQ(agent.stats().io_put_attempts, 2u);  // failed put + retry
  const auto health = agent.drain_health();
  EXPECT_EQ(health.put_retries, 1u);
  EXPECT_EQ(health.put_failures, 0u);
  EXPECT_NEAR(health.backoff_seconds, 0.05, 1e-12);
  EXPECT_TRUE(has_event(tracer.chrome_json(), "io_put_retry"));
}

}  // namespace
}  // namespace ndpcr::obs
