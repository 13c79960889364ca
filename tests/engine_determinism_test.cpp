// The engine's central promise (docs/ENGINE.md): results computed through
// a TaskPool are bit-identical to the serial path for any thread count.
// These tests pin that promise for the layers refactored onto the engine:
// TimelineSimulator::run_trials, the Evaluator optimizers, and the cluster
// replicate drivers, at top level and called from inside a pool task.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/replicates.hpp"
#include "exec/task_pool.hpp"
#include "model/evaluator.hpp"
#include "sim/timeline.hpp"

namespace {

using ndpcr::exec::TaskPool;
using ndpcr::sim::TimelineConfig;
using ndpcr::sim::TimelineResult;
using ndpcr::sim::TimelineSimulator;

void expect_identical(const TimelineResult& a, const TimelineResult& b) {
  EXPECT_DOUBLE_EQ(a.breakdown.compute, b.breakdown.compute);
  EXPECT_DOUBLE_EQ(a.breakdown.ckpt_local, b.breakdown.ckpt_local);
  EXPECT_DOUBLE_EQ(a.breakdown.ckpt_io, b.breakdown.ckpt_io);
  EXPECT_DOUBLE_EQ(a.breakdown.restore_local, b.breakdown.restore_local);
  EXPECT_DOUBLE_EQ(a.breakdown.restore_io, b.breakdown.restore_io);
  EXPECT_DOUBLE_EQ(a.breakdown.rerun_local, b.breakdown.rerun_local);
  EXPECT_DOUBLE_EQ(a.breakdown.rerun_io, b.breakdown.rerun_io);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.local_recoveries, b.local_recoveries);
  EXPECT_EQ(a.io_recoveries, b.io_recoveries);
  EXPECT_EQ(a.scratch_restarts, b.scratch_restarts);
  EXPECT_EQ(a.local_checkpoints, b.local_checkpoints);
  EXPECT_EQ(a.io_checkpoints, b.io_checkpoints);
  EXPECT_EQ(a.trials, b.trials);
}

TimelineConfig test_config() {
  TimelineConfig cfg;
  cfg.strategy = ndpcr::sim::Strategy::kLocalIoHost;
  cfg.io_every = 6;
  cfg.compression_factor = 0.73;
  cfg.total_work = 4.0 * 3600;  // short timelines, many failures
  cfg.mtti = 600.0;
  return cfg;
}

TEST(EngineDeterminism, RunTrialsBitIdenticalAcrossThreadCounts) {
  const TimelineConfig cfg = test_config();
  constexpr int kTrials = 64;
  constexpr std::uint64_t kSeed = 12345;

  TaskPool one(1);
  const TimelineResult serial =
      TimelineSimulator::run_trials(cfg, kTrials, kSeed, one);
  EXPECT_EQ(serial.trials, kTrials);
  EXPECT_GT(serial.failures, 0u);  // the workload actually exercises failures

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    TaskPool pool(threads);
    const TimelineResult parallel =
        TimelineSimulator::run_trials(cfg, kTrials, kSeed, pool);
    SCOPED_TRACE(threads);
    expect_identical(serial, parallel);
  }
}

TEST(EngineDeterminism, RunTrialsRepeatable) {
  const TimelineConfig cfg = test_config();
  TaskPool pool(4);
  const auto a = TimelineSimulator::run_trials(cfg, 16, 99, pool);
  const auto b = TimelineSimulator::run_trials(cfg, 16, 99, pool);
  expect_identical(a, b);
}

TEST(EngineDeterminism, MeanCountersAreExactMeans) {
  const TimelineConfig cfg = test_config();
  constexpr int kTrials = 10;
  TaskPool serial(1);
  const auto r = TimelineSimulator::run_trials(cfg, kTrials, 7, serial);
  EXPECT_EQ(r.trials, kTrials);
  EXPECT_DOUBLE_EQ(r.mean_failures(),
                   static_cast<double>(r.failures) / kTrials);
  EXPECT_DOUBLE_EQ(r.mean_io_checkpoints(),
                   static_cast<double>(r.io_checkpoints) / kTrials);
  // The counters are totals across trials: a single run() can't exceed the
  // aggregate of kTrials runs in expectation, and the mean is not rounded.
  const auto one = TimelineSimulator(cfg, 7).run();
  EXPECT_EQ(one.trials, 1);
  EXPECT_GE(r.failures, one.failures);
}

TEST(EngineDeterminism, OptimizersInvariantUnderGlobalThreadCount) {
  ndpcr::model::CrScenario scenario;
  ndpcr::model::SimOptions opt;
  opt.trials = 2;
  opt.total_work = 50.0 * 3600;
  ndpcr::model::Evaluator ev(scenario, opt);
  ndpcr::model::CrConfig cfg{
      .kind = ndpcr::model::ConfigKind::kLocalIoHost,
      .compression_factor = 0.73,
      .p_local_recovery = 0.85};

  ndpcr::exec::set_global_threads(1);
  const auto ratio1 = ev.optimal_io_every(cfg);
  const auto tau1 = ev.optimal_local_interval(cfg, ratio1);
  ndpcr::exec::set_global_threads(4);
  const auto ratio4 = ev.optimal_io_every(cfg);
  const auto tau4 = ev.optimal_local_interval(cfg, ratio4);
  ndpcr::exec::set_global_threads(0);  // restore the default for later tests

  EXPECT_EQ(ratio1, ratio4);
  EXPECT_DOUBLE_EQ(tau1, tau4);
}

TEST(EngineDeterminism, ClusterReplicatesInvariantAcrossThreadCounts) {
  ndpcr::cluster::ClusterSimConfig base;
  base.node_count = 4;
  base.state_bytes_per_rank = 16 * 1024;
  base.node_mttf = 2500.0;
  base.total_steps = 400;
  base.io_every = 4;
  base.seed = 21;

  TaskPool one(1);
  TaskPool four(4);
  const auto a = ndpcr::cluster::run_cluster_replicates(base, 6, one);
  const auto b = ndpcr::cluster::run_cluster_replicates(base, 6, four);
  ASSERT_EQ(a.runs.size(), 6u);
  ASSERT_EQ(b.runs.size(), 6u);
  EXPECT_EQ(a.total_failures, b.total_failures);
  EXPECT_EQ(a.total_unrecoverable, b.total_unrecoverable);
  EXPECT_DOUBLE_EQ(a.mean_steps_rerun, b.mean_steps_rerun);
  EXPECT_DOUBLE_EQ(a.mean_local_level_ranks, b.mean_local_level_ranks);
  EXPECT_DOUBLE_EQ(a.mean_partner_level_ranks, b.mean_partner_level_ranks);
  EXPECT_DOUBLE_EQ(a.mean_io_level_ranks, b.mean_io_level_ranks);
  EXPECT_TRUE(a.all_verified);
  EXPECT_TRUE(b.all_verified);
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].failures, b.runs[r].failures) << "replicate " << r;
    EXPECT_EQ(a.runs[r].steps_rerun, b.runs[r].steps_rerun)
        << "replicate " << r;
  }
  // Distinct sub-seeds: replicates are not all clones of replicate 0.
  bool any_difference = false;
  for (std::size_t r = 1; r < a.runs.size(); ++r) {
    if (a.runs[r].failures != a.runs[0].failures ||
        a.runs[r].steps_rerun != a.runs[0].steps_rerun) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(EngineDeterminism, LayersCalledFromInsideAPoolTaskMatchTopLevel) {
  // Every layer calls its pool unconditionally; called from a task, its
  // batches run inline and must reproduce the top-level result exactly.
  ndpcr::model::CrScenario scenario;
  ndpcr::model::SimOptions opt;
  opt.trials = 2;
  opt.total_work = 50.0 * 3600;
  const ndpcr::model::Evaluator ev(scenario, opt);
  const ndpcr::model::CrConfig host{
      .kind = ndpcr::model::ConfigKind::kLocalIoHost,
      .compression_factor = 0.73,
      .p_local_recovery = 0.85};
  const TimelineConfig cfg = test_config();

  ndpcr::cluster::FailureAnalysisConfig failures;
  failures.node_count = 2000;
  failures.node_mttf = 3.0e6;
  failures.rebuild_time = 1800.0;
  failures.target_failures = 2000;
  failures.seed = 5;

  ndpcr::exec::set_global_threads(4);
  const auto top_eval = ev.evaluate(host);
  const auto top_trials = TimelineSimulator::run_trials(cfg, 16, 77);
  const auto top_replicates =
      ndpcr::cluster::run_failure_replicates(failures, 6);

  TaskPool outer(2);
  std::vector<ndpcr::model::Evaluation> evals(2);
  std::vector<TimelineResult> trials(2);
  std::vector<ndpcr::cluster::FailureReplicateSummary> replicates(2);
  outer.parallel_for(2, [&](std::size_t i) {
    evals[i] = ev.evaluate(host);
    trials[i] = TimelineSimulator::run_trials(cfg, 16, 77);
    replicates[i] = ndpcr::cluster::run_failure_replicates(failures, 6);
  });
  ndpcr::exec::set_global_threads(0);  // restore the default for later tests

  EXPECT_GT(top_eval.io_every, 0u);  // the ratio search ran
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(evals[i].io_every, top_eval.io_every);
    EXPECT_DOUBLE_EQ(evals[i].interval, top_eval.interval);
    expect_identical(evals[i].result, top_eval.result);
    expect_identical(trials[i], top_trials);
    ASSERT_EQ(replicates[i].runs.size(), top_replicates.runs.size());
    EXPECT_EQ(replicates[i].total_failures, top_replicates.total_failures);
    EXPECT_EQ(replicates[i].total_local_recoverable,
              top_replicates.total_local_recoverable);
    EXPECT_EQ(replicates[i].total_io_required,
              top_replicates.total_io_required);
    EXPECT_EQ(replicates[i].total_events_processed,
              top_replicates.total_events_processed);
    EXPECT_DOUBLE_EQ(replicates[i].total_elapsed,
                     top_replicates.total_elapsed);
  }
}

}  // namespace
