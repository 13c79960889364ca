#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/failure_analysis.hpp"
#include "cluster/replicates.hpp"
#include "common/units.hpp"
#include "exec/task_pool.hpp"
#include "obs/metrics.hpp"

namespace ndpcr::cluster {
namespace {

using namespace ndpcr::units;

TEST(FailureAnalysis, ObservedMttiMatchesTheory) {
  FailureAnalysisConfig cfg;
  cfg.node_count = 1000;
  cfg.node_mttf = years(5);
  cfg.target_failures = 20000;
  const auto r = analyze_failures(cfg);
  EXPECT_EQ(r.failures, 20000u);
  // System MTTI = node MTTF / N.
  EXPECT_NEAR(r.observed_system_mtti / (cfg.node_mttf / cfg.node_count), 1.0,
              0.05);
}

TEST(FailureAnalysis, MostFailuresRecoverableFromPartner) {
  // With a 5-year node MTTF and a 10-minute rebuild window, double
  // failures within a partner pair are rare: P(local) should be very
  // high - the regime behind the paper's 85-96% inputs.
  FailureAnalysisConfig cfg;
  cfg.node_count = 1000;
  cfg.node_mttf = years(5);
  cfg.rebuild_time = 600.0;
  cfg.target_failures = 50000;
  const auto r = analyze_failures(cfg);
  EXPECT_GT(r.p_local(), 0.99);
  EXPECT_EQ(r.failures, r.local_recoverable + r.io_required);
}

TEST(FailureAnalysis, LongerRebuildWindowNeedsMoreIoRecoveries) {
  FailureAnalysisConfig cfg;
  cfg.node_count = 500;
  cfg.node_mttf = days(10);  // compressed time scale to get statistics
  cfg.target_failures = 50000;

  cfg.rebuild_time = 60.0;
  const double p_short = analyze_failures(cfg).p_local();
  cfg.rebuild_time = 3600.0;
  const double p_long = analyze_failures(cfg).p_local();
  EXPECT_LT(p_long, p_short);
  EXPECT_GT(analyze_failures(cfg).io_required, 0u);
}

TEST(FailureAnalysis, InvalidInputsThrow) {
  FailureAnalysisConfig cfg;
  cfg.node_count = 1;
  EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
  cfg.node_count = 2;
  cfg.node_mttf = 0;
  EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);

  cfg = {};
  cfg.distribution = FailureDistribution::kWeibull;
  cfg.weibull_shape = 0.0;
  EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);

  cfg = {};
  cfg.cascade.probability = 1.5;
  EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);

  cfg = {};
  cfg.placement = PartnerPlacement::kCrossRack;  // but no rack structure
  EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);

  cfg = {};
  cfg.engine = FailureEngine::kSuperposition;  // not memoryless: cascades
  cfg.cascade.probability = 0.1;
  EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);

  cfg = {};
  cfg.energy.enabled = true;
  cfg.energy.checkpoint_interval = 0.0;
  EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);

  // Non-finite inputs: NaN slips through every `x <= 0` test, so each
  // bound must reject it (and infinity) explicitly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    SCOPED_TRACE(bad);
    cfg = {};
    cfg.node_mttf = bad;
    EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
    cfg = {};
    cfg.rebuild_time = bad;
    EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
    cfg = {};
    cfg.distribution = FailureDistribution::kWeibull;
    cfg.weibull_shape = bad;
    EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
    cfg = {};
    cfg.cascade.probability = 0.1;
    cfg.cascade.window = bad;
    EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
    cfg = {};
    cfg.racks.rack_size = 16;
    cfg.racks.outage_mttf = bad;
    EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
    cfg = {};
    cfg.racks.rack_size = 16;
    cfg.racks.outage_mttf = days(365);
    cfg.racks.outage_duration = bad;
    EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
    cfg = {};
    cfg.energy.enabled = true;
    cfg.energy.checkpoint_interval = bad;
    EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
    cfg = {};
    cfg.energy.enabled = true;
    cfg.energy.restart_time_io = bad;
    EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
  }
  cfg = {};
  cfg.cascade.probability = nan;
  EXPECT_THROW(analyze_failures(cfg), std::invalid_argument);
  // A NaN or infinite sim_duration is rejected too. It is not exercised
  // here: a build that accepted it would never return.
}

// Golden counters for the calendar DES across the scenario grid. The
// binary-heap engine these were first recorded from consumed the RNG
// identically and popped the same sequence, so the pins keep the DES's
// results bit-identical to it after its deletion. `elapsed` and
// `observed_system_mtti` are exact (hex-float) doubles.
TEST(FailureAnalysis, CalendarEngineMatchesGoldenCounters) {
  struct Golden {
    bool weibull, cascade, racks;
    std::uint64_t failures, local_recoverable, io_required, cascade_failures,
        rack_outages, rack_node_failures, events_processed;
    double elapsed, observed_system_mtti;
  };
  const Golden goldens[] = {
      {false, false, false, 4000u, 3998u, 2u, 0u, 0u, 0u, 4000u,
       0x1.347fc6620d97bp+25, 0x1.3be7318b5180bp+13},
      {false, false, true, 4000u, 3999u, 1u, 0u, 20u, 320u, 3993u,
       0x1.19cdd2ab7a8d5p+25, 0x1.20913a07a8805p+13},
      {false, true, false, 4000u, 3874u, 126u, 1193u, 0u, 0u, 5139u,
       0x1.a48b36b35ecb5p+24, 0x1.aea308e8d3c1ep+12},
      {false, true, true, 4000u, 3922u, 78u, 1118u, 13u, 208u, 5038u,
       0x1.93500a973b617p+24, 0x1.9cfdfe8e92d26p+12},
      {true, false, false, 4000u, 3998u, 2u, 0u, 0u, 0u, 4000u,
       0x1.212fe7ce30bf8p+25, 0x1.2820abd52fdecp+13},
      {true, false, true, 4000u, 3993u, 7u, 0u, 18u, 288u, 3948u,
       0x1.0405d2e947e63p+25, 0x1.0a4367554793ap+13},
      {true, true, false, 4000u, 3876u, 124u, 1214u, 0u, 0u, 5109u,
       0x1.68e050452c2a3p+24, 0x1.7189897e20efdp+12},
      {true, true, true, 4000u, 3923u, 77u, 1158u, 9u, 144u, 5005u,
       0x1.4ec86c9135846p+24, 0x1.56d1548c80879p+12},
  };
  for (const Golden& g : goldens) {
    FailureAnalysisConfig cfg;
    cfg.node_count = 256;
    cfg.node_mttf = days(30);
    cfg.rebuild_time = 1800.0;
    cfg.target_failures = 4000;
    cfg.seed = 99;
    cfg.engine = FailureEngine::kCalendar;
    if (g.weibull) cfg.distribution = FailureDistribution::kWeibull;
    cfg.weibull_shape = 0.7;
    if (g.cascade) cfg.cascade.probability = 0.10;
    if (g.racks) {
      cfg.racks.rack_size = 16;
      cfg.racks.outage_mttf = days(365);
      cfg.placement = PartnerPlacement::kCrossRack;
    }
    const auto r = analyze_failures(cfg);
    SCOPED_TRACE(testing::Message() << "weibull=" << g.weibull
                                    << " cascade=" << g.cascade
                                    << " racks=" << g.racks);
    EXPECT_EQ(r.failures, g.failures);
    EXPECT_EQ(r.local_recoverable, g.local_recoverable);
    EXPECT_EQ(r.io_required, g.io_required);
    EXPECT_EQ(r.cascade_failures, g.cascade_failures);
    EXPECT_EQ(r.rack_outages, g.rack_outages);
    EXPECT_EQ(r.rack_node_failures, g.rack_node_failures);
    EXPECT_EQ(r.events_processed, g.events_processed);
    EXPECT_EQ(r.elapsed, g.elapsed);
    EXPECT_EQ(r.observed_system_mtti, g.observed_system_mtti);
  }
}

// The superposition fast path samples the same distribution the DES
// does (union of N Poisson processes); it must agree statistically on
// the physics even though the sample paths differ.
TEST(FailureAnalysis, SuperpositionAgreesWithDesStatistically) {
  FailureAnalysisConfig cfg;
  cfg.node_count = 1000;
  cfg.node_mttf = days(10);
  cfg.rebuild_time = 3600.0;
  cfg.target_failures = 50000;
  cfg.engine = FailureEngine::kSuperposition;
  const auto super = analyze_failures(cfg);
  cfg.engine = FailureEngine::kCalendar;
  const auto des = analyze_failures(cfg);
  EXPECT_NEAR(super.p_local(), des.p_local(), 0.02);
  EXPECT_NEAR(super.observed_system_mtti / des.observed_system_mtti, 1.0,
              0.05);
  EXPECT_EQ(super.failures, 50000u);
  EXPECT_EQ(super.failures, super.local_recoverable + super.io_required);
}

TEST(FailureAnalysis, AutoEngineSelection) {
  // Memoryless -> superposition (events == failures, no queue); any
  // widened scenario -> calendar (init events for every node count).
  FailureAnalysisConfig cfg;
  cfg.node_count = 100;
  cfg.node_mttf = days(10);
  cfg.target_failures = 1000;
  EXPECT_TRUE(cfg.memoryless());
  const auto fast = analyze_failures(cfg);
  EXPECT_EQ(fast.events_processed, fast.failures);

  cfg.distribution = FailureDistribution::kWeibull;
  EXPECT_FALSE(cfg.memoryless());
  const auto des = analyze_failures(cfg);
  EXPECT_GE(des.events_processed, des.failures);
}

TEST(FailureAnalysis, CascadesClusterFailures) {
  FailureAnalysisConfig cfg;
  cfg.node_count = 512;
  cfg.node_mttf = days(30);
  cfg.rebuild_time = 1800.0;
  cfg.target_failures = 20000;
  cfg.cascade.probability = 0.25;
  cfg.cascade.max_fanout = 4;
  cfg.cascade.radius = 8;
  cfg.cascade.window = 600.0;
  const auto with = analyze_failures(cfg);
  EXPECT_GT(with.cascade_failures, 0u);
  EXPECT_GT(with.p_cascade(), 0.0);
  EXPECT_LT(with.p_cascade(), 1.0);
  EXPECT_EQ(with.failures, with.local_recoverable + with.io_required);

  cfg.cascade.probability = 0.0;
  const auto without = analyze_failures(cfg);
  EXPECT_EQ(without.cascade_failures, 0u);
  // Cascade victims land within the radius of the origin while it (or
  // its neighbors) rebuild, so correlated bursts must hurt p_local.
  EXPECT_LT(with.p_local(), without.p_local());
}

TEST(FailureAnalysis, RackOutagesInteractWithPlacement) {
  FailureAnalysisConfig cfg;
  cfg.node_count = 512;
  cfg.node_mttf = days(365);  // node failures rare: outages dominate
  cfg.rebuild_time = 600.0;
  cfg.target_failures = 20000;
  cfg.racks.rack_size = 16;
  cfg.racks.outage_mttf = days(10);
  cfg.racks.outage_duration = 900.0;

  cfg.placement = PartnerPlacement::kRing;
  const auto ring = analyze_failures(cfg);
  EXPECT_GT(ring.rack_outages, 0u);
  EXPECT_GT(ring.rack_node_failures, 0u);
  EXPECT_NEAR(ring.mean_outage_width(), 16.0, 1e-9);

  cfg.placement = PartnerPlacement::kCrossRack;
  const auto cross = analyze_failures(cfg);
  // Ring keeps 15 of 16 partners inside the downed rack; cross-rack
  // keeps all 16 outside. The placement gap is the whole point.
  EXPECT_GT(cross.p_local(), ring.p_local() + 0.5);
}

TEST(FailureAnalysis, EnergyModelDerivesFromCounters) {
  FailureAnalysisConfig cfg;
  cfg.node_count = 256;
  cfg.node_mttf = days(30);
  cfg.rebuild_time = 1800.0;
  cfg.target_failures = 5000;
  cfg.energy.enabled = true;
  const auto r = analyze_failures(cfg);
  EXPECT_GT(r.energy.compute_joules, 0.0);
  EXPECT_GT(r.energy.checkpoint_joules, 0.0);
  EXPECT_GT(r.energy.rebuild_joules, 0.0);
  EXPECT_GT(r.energy.restart_joules, 0.0);
  EXPECT_GT(r.energy.total_joules(), 0.0);
  EXPECT_GT(r.energy.overhead_fraction(), 0.0);
  EXPECT_LT(r.energy.overhead_fraction(), 1.0);
  EXPECT_GT(r.energy_per_failure(), 0.0);

  cfg.energy.enabled = false;
  const auto off = analyze_failures(cfg);
  EXPECT_EQ(off.energy.total_joules(), 0.0);
  EXPECT_EQ(off.energy.overhead_fraction(), 0.0);
}

TEST(FailureAnalysis, DivisionGuardsOnEmptyResults) {
  const FailureAnalysisResult empty;
  EXPECT_EQ(empty.p_local(), 0.0);
  EXPECT_EQ(empty.p_cascade(), 0.0);
  EXPECT_EQ(empty.p_rack(), 0.0);
  EXPECT_EQ(empty.mean_outage_width(), 0.0);
  EXPECT_EQ(empty.energy_per_failure(), 0.0);
  const EnergyReport zero;
  EXPECT_EQ(zero.overhead_fraction(), 0.0);
  const FailureReplicateSummary none;
  EXPECT_EQ(none.p_local(), 0.0);
  EXPECT_EQ(none.p_cascade(), 0.0);
  EXPECT_EQ(none.p_rack(), 0.0);
  EXPECT_EQ(none.mean_system_mtti(), 0.0);
  EXPECT_EQ(none.mean_failures(), 0.0);
}

TEST(FailureAnalysis, PublishesMetrics) {
  obs::MetricsRegistry metrics;
  FailureAnalysisConfig cfg;
  cfg.node_count = 64;
  cfg.node_mttf = days(10);
  cfg.target_failures = 2000;
  cfg.energy.enabled = true;
  cfg.metrics = &metrics;
  const auto r = analyze_failures(cfg);
  EXPECT_EQ(metrics.counter("cluster.failures").value(), r.failures);
  EXPECT_EQ(metrics.counter("cluster.io_required").value(), r.io_required);
  EXPECT_EQ(metrics.gauge("cluster.p_local").value(), r.p_local());
  EXPECT_GT(metrics.gauge("cluster.energy.compute_joules").value(), 0.0);
}

// Replica fan-out must be a pure function of the base seed: identical
// summaries - bit for bit, integers and derived doubles - at pool sizes
// 1, 2 and 8, under both distributions.
TEST(FailureAnalysis, ReplicateAggregatesArePoolSizeInvariant) {
  for (const auto dist :
       {FailureDistribution::kExponential, FailureDistribution::kWeibull}) {
    FailureAnalysisConfig base;
    base.node_count = 256;
    base.node_mttf = days(30);
    base.rebuild_time = 1800.0;
    base.target_failures = 3000;
    base.seed = 7;
    base.distribution = dist;
    base.cascade.probability = dist == FailureDistribution::kWeibull ? 0.1
                                                                     : 0.0;

    exec::TaskPool pool1(1);
    exec::TaskPool pool2(2);
    exec::TaskPool pool8(8);
    const auto a = run_failure_replicates(base, 12, pool1);
    const auto b = run_failure_replicates(base, 12, pool2);
    const auto c = run_failure_replicates(base, 12, pool8);

    for (const auto* s : {&b, &c}) {
      EXPECT_EQ(a.total_failures, s->total_failures);
      EXPECT_EQ(a.total_local_recoverable, s->total_local_recoverable);
      EXPECT_EQ(a.total_io_required, s->total_io_required);
      EXPECT_EQ(a.total_cascade_failures, s->total_cascade_failures);
      EXPECT_EQ(a.total_events_processed, s->total_events_processed);
      EXPECT_EQ(a.total_elapsed, s->total_elapsed);
      EXPECT_EQ(a.total_energy_joules, s->total_energy_joules);
      EXPECT_EQ(a.p_local(), s->p_local());
      EXPECT_EQ(a.mean_system_mtti(), s->mean_system_mtti());
    }
    ASSERT_EQ(a.runs.size(), 12u);
    // Replicates are genuinely independent streams, not copies.
    EXPECT_NE(a.runs[0].elapsed, a.runs[1].elapsed);
  }
}

TEST(ClusterSim, CompletesWithFailuresAndVerifies) {
  ClusterSimConfig cfg;
  cfg.node_count = 4;
  cfg.state_bytes_per_rank = 32 * 1024;
  cfg.node_mttf = 800.0;  // aggressive failure rate for test coverage
  cfg.total_steps = 400;
  cfg.io_every = 3;
  const auto r = ClusterSim(cfg).run();
  // steps_completed counts every executed step, including re-execution
  // after rollbacks: it exceeds the target by exactly the rerun steps.
  EXPECT_EQ(r.steps_completed, 400u + r.steps_rerun);
  EXPECT_GT(r.failures, 0u);
  EXPECT_GT(r.recoveries, 0u);
  EXPECT_GT(r.checkpoints, 0u);
  EXPECT_TRUE(r.state_verified);
  // Healthy ranks recover from local; the victim uses partner (or IO).
  EXPECT_GT(r.local_level_ranks, 0u);
  EXPECT_GT(r.partner_level_ranks + r.io_level_ranks, 0u);
}

TEST(ClusterSim, NoFailuresIsCleanRun) {
  ClusterSimConfig cfg;
  cfg.node_count = 2;
  cfg.state_bytes_per_rank = 16 * 1024;
  cfg.node_mttf = 1e12;
  cfg.total_steps = 100;
  const auto r = ClusterSim(cfg).run();
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.steps_rerun, 0u);
  EXPECT_EQ(r.steps_completed, 100u);
  EXPECT_TRUE(r.state_verified);
}

TEST(ClusterSim, RerunAccountingIsConsistent) {
  ClusterSimConfig cfg;
  cfg.node_count = 3;
  cfg.state_bytes_per_rank = 16 * 1024;
  cfg.node_mttf = 500.0;
  cfg.total_steps = 300;
  cfg.seed = 21;
  const auto r = ClusterSim(cfg).run();
  EXPECT_EQ(r.steps_completed, 300u + r.steps_rerun);
  if (r.failures > 0) {
    // Rerun steps only arise from recoveries or scratch restarts.
    EXPECT_GT(r.recoveries + r.unrecoverable, 0u);
  }
}

TEST(ClusterSim, WorksAcrossWorkloads) {
  for (const char* app : {"hpccg", "minismac"}) {
    ClusterSimConfig cfg;
    cfg.app = app;
    cfg.node_count = 2;
    cfg.state_bytes_per_rank = 16 * 1024;
    cfg.node_mttf = 600.0;
    cfg.total_steps = 120;
    const auto r = ClusterSim(cfg).run();
    EXPECT_EQ(r.steps_completed, 120u) << app;
    EXPECT_TRUE(r.state_verified) << app;
  }
}

TEST(ClusterSim, InvalidConfigThrows) {
  ClusterSimConfig cfg;
  cfg.node_count = 0;
  EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace ndpcr::cluster
