#include <gtest/gtest.h>

#include <limits>

#include "cluster/ndp_cluster_sim.hpp"
#include "sim/timeline.hpp"
#include "workloads/miniapp.hpp"

namespace ndpcr::cluster {
namespace {

NdpClusterConfig small_config() {
  NdpClusterConfig cfg;
  cfg.node_count = 3;
  cfg.state_bytes_per_rank = 32 * 1024;
  cfg.total_steps = 400;
  cfg.node_mttf = 900.0;
  cfg.ndp_compress_bw = 512e3;
  cfg.aggregate_io_bw = 384e3;
  return cfg;
}

TEST(NdpClusterSim, CompletesUnderFailuresWithExactState) {
  const auto r = NdpClusterSim(small_config()).run();
  EXPECT_GT(r.failures, 0u);
  EXPECT_GT(r.checkpoints, 0u);
  EXPECT_GT(r.io_checkpoints, 0u);  // drains really reached the PFS
  EXPECT_TRUE(r.state_verified);
  EXPECT_GT(r.progress_rate(), 0.3);
  EXPECT_LT(r.progress_rate(), 1.0);
}

TEST(NdpClusterSim, RecoveryMixFollowsPLocal) {
  auto cfg = small_config();
  cfg.total_steps = 1200;
  cfg.p_local_recovery = 1.0;
  const auto all_local = NdpClusterSim(cfg).run();
  EXPECT_EQ(all_local.io_recoveries, 0u);
  EXPECT_GT(all_local.local_recoveries, 0u);

  cfg.p_local_recovery = 0.0;
  const auto all_io = NdpClusterSim(cfg).run();
  EXPECT_EQ(all_io.local_recoveries, 0u);
  EXPECT_GT(all_io.io_recoveries, 0u);
}

// A node loss restores the lost rank from its agent's drained IO copy.
// The containers record the chunk size the agents wrote with
// (ndp_chunk_bytes, not the codec default), so recover() decodes them.
TEST(NdpClusterSim, NodeLossRestoresFromIo) {
  auto cfg = small_config();
  cfg.p_local_recovery = 0.0;
  const auto r = NdpClusterSim(cfg).run();
  EXPECT_GT(r.failures, 0u);
  EXPECT_GT(r.io_recoveries, 0u);
  EXPECT_EQ(r.scratch_restarts, 0u);
  EXPECT_TRUE(r.state_verified);
}

// A flaky PFS: drains retry, then hand their bytes back to the host,
// whose verified write lands or drops each one.
TEST(NdpClusterSim, IoFaultsFallBackThroughHostWrites) {
  auto cfg = small_config();
  cfg.io_fault_rates.transient = 0.3;
  cfg.io_fault_rates.torn = 0.1;
  cfg.io_fault_rates.bitflip = 0.1;
  const auto a = NdpClusterSim(cfg).run();
  EXPECT_GT(a.host_fallbacks, 0u);
  EXPECT_GT(a.drain_put_retries, 0u);
  EXPECT_EQ(a.host_fallback_writes + a.host_fallback_drops, a.host_fallbacks);
  EXPECT_TRUE(a.state_verified);

  const auto b = NdpClusterSim(cfg).run();
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.io_recoveries, b.io_recoveries);
  EXPECT_EQ(a.steps_rerun, b.steps_rerun);
  EXPECT_DOUBLE_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.drain_put_retries, b.drain_put_retries);
  EXPECT_EQ(a.drain_put_failures, b.drain_put_failures);
  EXPECT_EQ(a.host_fallback_writes, b.host_fallback_writes);
  EXPECT_EQ(a.host_fallback_drops, b.host_fallback_drops);
  EXPECT_EQ(a.io_put_attempts, b.io_put_attempts);
  EXPECT_EQ(a.io_verify_failures, b.io_verify_failures);
  EXPECT_EQ(a.io_quarantined, b.io_quarantined);
  EXPECT_EQ(a.host_fallbacks, b.host_fallbacks);
}

// One grid point of bench/ablation_fullstack_validation (MTTF 1500 s,
// P(local) 85%), scaled down: a quarter of the bytes and bandwidths, so
// transfers take about as long, and 1500 steps instead of 4000. The
// byte-moving cluster and the timeline model, given the same parameters,
// must agree within 2 points of progress rate.
TEST(NdpClusterSim, FullStackMatchesTimelineModel) {
  NdpClusterConfig fc;
  fc.node_count = 4;
  fc.state_bytes_per_rank = 32 * 1024;
  fc.total_steps = 1500;
  fc.steps_per_checkpoint = 10;
  fc.ndp_compress_bw = 128e3;
  fc.aggregate_io_bw = 4 * 16e3;
  fc.codec = compress::CodecId::kLz4Style;
  fc.node_mttf = 1500.0;
  fc.p_local_recovery = 0.85;
  const auto full = NdpClusterSim(fc).run();
  EXPECT_TRUE(full.state_verified);

  const double image_bytes = static_cast<double>(fc.state_bytes_per_rank);
  sim::TimelineConfig tc;
  tc.strategy = sim::Strategy::kLocalIoNdp;
  tc.mtti = fc.node_mttf / fc.node_count;
  tc.checkpoint_bytes = image_bytes;
  tc.local_bw = image_bytes / fc.local_commit_time;
  tc.io_bw = fc.aggregate_io_bw / fc.node_count;
  tc.local_interval =
      static_cast<double>(fc.steps_per_checkpoint) * fc.step_time;
  tc.compression_factor = 0.5;  // lz4-class, as in the bench
  tc.ndp_compress_bw = fc.ndp_compress_bw;
  tc.p_local_recovery = fc.p_local_recovery;
  tc.total_work = 20000.0;
  const auto model = sim::TimelineSimulator::run_trials(tc, 5, 3);
  EXPECT_NEAR(full.progress_rate(), model.progress_rate(), 0.02);
}

TEST(NdpClusterSim, NoFailuresIsPureComputePlusCommits) {
  auto cfg = small_config();
  cfg.node_mttf = 1e15;
  cfg.total_steps = 200;
  const auto r = NdpClusterSim(cfg).run();
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.steps_rerun, 0u);
  EXPECT_TRUE(r.state_verified);
  // Overhead is exactly the commits: 25 commits x 0.5 s over 200 s work.
  const double expected =
      200.0 / (200.0 + static_cast<double>(r.checkpoints) *
                           cfg.local_commit_time);
  EXPECT_NEAR(r.progress_rate(), expected, 1e-9);
}

TEST(NdpClusterSim, FasterIoRaisesIoCheckpointCadence) {
  auto cfg = small_config();
  cfg.node_mttf = 1e15;
  cfg.total_steps = 600;
  const auto slow = NdpClusterSim(cfg).run();
  cfg.aggregate_io_bw *= 8;
  const auto fast = NdpClusterSim(cfg).run();
  EXPECT_GE(fast.io_checkpoints, slow.io_checkpoints);
}

TEST(NdpClusterSim, DeterministicForSeed) {
  const auto a = NdpClusterSim(small_config()).run();
  const auto b = NdpClusterSim(small_config()).run();
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_DOUBLE_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.io_checkpoints, b.io_checkpoints);
}

TEST(NdpClusterSim, InvalidConfigThrows) {
  auto cfg = small_config();
  cfg.node_count = 0;
  EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.aggregate_io_bw = 0;
  EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument);

  // Each of these used to make run() spin forever or fail silently; they
  // are only constructed here, never run.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -5.0, nan, inf}) {
    cfg = small_config();
    cfg.node_mttf = bad;
    EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument) << bad;
    cfg = small_config();
    cfg.step_time = bad;
    EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument) << bad;
    cfg = small_config();
    cfg.aggregate_io_bw = bad;
    EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument) << bad;
    cfg = small_config();
    cfg.ndp_compress_bw = bad;
    EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument) << bad;
  }
  for (const double bad : {-0.5, nan, inf}) {
    cfg = small_config();
    cfg.local_commit_time = bad;
    EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument) << bad;
    cfg = small_config();
    cfg.local_restore_time = bad;
    EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument) << bad;
  }
  for (const double bad : {-0.1, 1.5, nan}) {
    cfg = small_config();
    cfg.p_local_recovery = bad;
    EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument) << bad;
  }
  cfg = small_config();
  cfg.steps_per_checkpoint = 0;
  EXPECT_THROW(NdpClusterSim{cfg}, std::invalid_argument);
  // The bounds are inclusive where the value is meaningful.
  cfg = small_config();
  cfg.local_commit_time = 0.0;
  cfg.local_restore_time = 0.0;
  cfg.p_local_recovery = 1.0;
  EXPECT_NO_THROW(NdpClusterSim{cfg});
  cfg.p_local_recovery = 0.0;
  EXPECT_NO_THROW(NdpClusterSim{cfg});
}

// An image that can never fit the agent's NVM is an error, not a wait.
TEST(NdpClusterSim, OversizedImageThrows) {
  auto cfg = small_config();
  cfg.nvm_capacity_bytes = cfg.state_bytes_per_rank / 2;
  EXPECT_THROW(NdpClusterSim(cfg).run(), std::runtime_error);
}

// Two images fit the NVM but three do not, and a drain outlasts two
// checkpoint intervals: the drain pins the oldest entry, and everything
// behind it, when the next commit arrives. The host waits for the drain
// to let go, as it would for a full circular buffer; nothing throws.
TEST(NdpClusterSim, HostStallsBehindAPinnedDrain) {
  auto cfg = small_config();
  const std::size_t image =
      workloads::make_miniapp(cfg.app, cfg.state_bytes_per_rank, cfg.seed)
          ->checkpoint()
          .size();
  cfg.nvm_capacity_bytes = image * 5 / 2;
  cfg.ndp_compress_bw = 4e3;  // ~27 s per drain, 8.5 s per interval
  cfg.aggregate_io_bw = cfg.node_count * 4e3;
  cfg.node_mttf = 1e15;
  cfg.total_steps = 200;
  NdpClusterResult r;
  ASSERT_NO_THROW(r = NdpClusterSim(cfg).run());
  EXPECT_EQ(r.failures, 0u);
  EXPECT_TRUE(r.state_verified);
  EXPECT_GT(r.io_checkpoints, 0u);
  // Every second beyond compute and commits is a stall.
  const double unstalled =
      200.0 + static_cast<double>(r.checkpoints) * cfg.local_commit_time;
  EXPECT_GT(r.virtual_seconds, unstalled + 1.0);
}

}  // namespace
}  // namespace ndpcr::cluster
