#include <gtest/gtest.h>

#include <limits>

#include "cluster/cluster_sim.hpp"
#include "cluster/replicates.hpp"
#include "sim/timeline.hpp"
#include "workloads/miniapp.hpp"

namespace ndpcr::cluster {
namespace {

// The NDP configuration these tests pin: agents drain the IO level, the
// manager writes local NVM only, and commits and restores block the host
// for half a step.
ClusterSimConfig ndp_config() {
  ClusterSimConfig cfg;
  cfg.ndp_agents = true;
  cfg.io_every = 0;
  cfg.partner_every = 0;
  cfg.node_count = 4;
  cfg.app = "hpccg";
  cfg.state_bytes_per_rank = 128 * 1024;
  cfg.steps_per_checkpoint = 8;
  cfg.local_commit_time = 0.5;
  cfg.local_restore_time = 0.5;
  cfg.nvm_capacity_bytes = 4ull << 20;
  cfg.node_mttf = 3000.0;
  cfg.p_local_recovery = 0.85;
  cfg.total_steps = 1500;
  cfg.seed = 13;
  return cfg;
}

ClusterSimConfig small_config() {
  ClusterSimConfig cfg = ndp_config();
  cfg.node_count = 3;
  cfg.state_bytes_per_rank = 32 * 1024;
  cfg.total_steps = 400;
  cfg.node_mttf = 900.0;
  cfg.ndp_compress_bw = 512e3;
  cfg.aggregate_io_bw = 384e3;
  return cfg;
}

TEST(NdpClusterSim, CompletesUnderFailuresWithExactState) {
  const auto r = ClusterSim(small_config()).run();
  EXPECT_GT(r.failures, 0u);
  EXPECT_GT(r.checkpoints, 0u);
  EXPECT_GT(r.newest_io_checkpoint, 0u);  // drains really reached the PFS
  EXPECT_TRUE(r.state_verified);
  EXPECT_GT(r.progress_rate(), 0.3);
  EXPECT_LT(r.progress_rate(), 1.0);
}

TEST(NdpClusterSim, RecoveryMixFollowsPLocal) {
  auto cfg = small_config();
  cfg.total_steps = 1200;
  cfg.p_local_recovery = 1.0;
  const auto all_local = ClusterSim(cfg).run();
  EXPECT_EQ(all_local.io_recoveries, 0u);
  // Local recoveries are the ones that read no rank from IO.
  EXPECT_GT(all_local.recoveries - all_local.io_recoveries, 0u);

  cfg.p_local_recovery = 0.0;
  const auto all_io = ClusterSim(cfg).run();
  EXPECT_EQ(all_io.recoveries - all_io.io_recoveries, 0u);
  EXPECT_GT(all_io.io_recoveries, 0u);
}

// A node loss restores the lost rank from its agent's drained IO copy.
// The containers record the chunk size the agents wrote with (32 KiB,
// not the codec default), so recover() decodes them.
TEST(NdpClusterSim, NodeLossRestoresFromIo) {
  auto cfg = small_config();
  cfg.p_local_recovery = 0.0;
  const auto r = ClusterSim(cfg).run();
  EXPECT_GT(r.failures, 0u);
  EXPECT_GT(r.io_recoveries, 0u);
  EXPECT_EQ(r.unrecoverable, 0u);
  EXPECT_TRUE(r.state_verified);
}

// Agents drain IO while the manager also writes a partner copy of every
// checkpoint: a single node loss restores the victim from its partner,
// the others from their NVM, and nothing comes from IO.
TEST(NdpClusterSim, NodeLossRestoresFromPartner) {
  auto cfg = small_config();
  cfg.partner_every = 1;
  cfg.p_local_recovery = 0.0;
  const auto r = ClusterSim(cfg).run();
  EXPECT_GT(r.failures, 0u);
  EXPECT_GT(r.partner_level_ranks, 0u);
  EXPECT_EQ(r.io_level_ranks, 0u);
  EXPECT_EQ(r.unrecoverable, 0u);
  EXPECT_TRUE(r.state_verified);
}

// A flaky PFS: drains retry, then hand their bytes back to the host,
// whose verified write lands or drops each one.
TEST(NdpClusterSim, IoFaultsFallBackThroughHostWrites) {
  auto cfg = small_config();
  cfg.io_faults.transient = 0.3;
  cfg.io_faults.torn = 0.1;
  cfg.io_faults.bitflip = 0.1;
  const auto a = ClusterSim(cfg).run();
  // The agents' summed drain health is the IO level's report.
  const ckpt::LevelHealth& drain = a.health.io;
  EXPECT_GT(drain.put_failures, 0u);
  EXPECT_GT(drain.put_retries, 0u);
  EXPECT_EQ(a.host_fallback_writes + a.host_fallback_drops,
            drain.put_failures);
  EXPECT_TRUE(a.state_verified);

  const auto b = ClusterSim(cfg).run();
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.io_recoveries, b.io_recoveries);
  EXPECT_EQ(a.steps_rerun, b.steps_rerun);
  EXPECT_DOUBLE_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.health.io.put_retries, b.health.io.put_retries);
  EXPECT_EQ(a.health.io.put_failures, b.health.io.put_failures);
  EXPECT_EQ(a.host_fallback_writes, b.host_fallback_writes);
  EXPECT_EQ(a.host_fallback_drops, b.host_fallback_drops);
  EXPECT_EQ(a.health.io.puts, b.health.io.puts);
  EXPECT_EQ(a.health.io.verify_failures, b.health.io.verify_failures);
  EXPECT_EQ(a.health.io.quarantined, b.health.io.quarantined);
}

// One grid point of bench/ablation_fullstack_validation (MTTF 1500 s,
// P(local) 85%), scaled down: a quarter of the bytes and bandwidths, so
// transfers take about as long, and 1500 steps instead of 4000. The
// byte-moving cluster and the timeline model, given the same parameters,
// must agree within 2 points of progress rate.
TEST(NdpClusterSim, FullStackMatchesTimelineModel) {
  ClusterSimConfig fc = ndp_config();
  fc.node_count = 4;
  fc.state_bytes_per_rank = 32 * 1024;
  fc.total_steps = 1500;
  fc.steps_per_checkpoint = 10;
  fc.ndp_compress_bw = 128e3;
  fc.aggregate_io_bw = 4 * 16e3;
  fc.io_codec = compress::CodecId::kLz4Style;
  fc.node_mttf = 1500.0;
  fc.p_local_recovery = 0.85;
  const auto full = ClusterSim(fc).run();
  EXPECT_TRUE(full.state_verified);

  const double image_bytes = static_cast<double>(fc.state_bytes_per_rank);
  sim::TimelineConfig tc;
  tc.strategy = sim::Strategy::kLocalIoNdp;
  tc.mtti = fc.node_mttf / fc.node_count;
  tc.checkpoint_bytes = image_bytes;
  tc.local_bw = image_bytes / *fc.local_commit_time;
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
  const auto r = ClusterSim(cfg).run();
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.steps_rerun, 0u);
  EXPECT_TRUE(r.state_verified);
  // Overhead is exactly the commits: 25 commits x 0.5 s over 200 s work.
  const double expected =
      200.0 / (200.0 + static_cast<double>(r.checkpoints) *
                           *cfg.local_commit_time);
  EXPECT_NEAR(r.progress_rate(), expected, 1e-9);

  // Host mode's default commit charge is a tenth of a step.
  ClusterSimConfig host;
  host.node_count = 2;
  host.state_bytes_per_rank = 16 * 1024;
  host.node_mttf = 1e15;
  host.step_time = 2.0;
  host.total_steps = 200;
  const auto h = ClusterSim(host).run();
  EXPECT_EQ(h.failures, 0u);
  EXPECT_NEAR(h.virtual_seconds,
              400.0 + static_cast<double>(h.checkpoints) * 0.2, 1e-9);
}

TEST(NdpClusterSim, FasterIoRaisesIoCheckpointCadence) {
  auto cfg = small_config();
  cfg.node_mttf = 1e15;
  cfg.total_steps = 600;
  const auto slow = ClusterSim(cfg).run();
  cfg.aggregate_io_bw *= 8;
  const auto fast = ClusterSim(cfg).run();
  EXPECT_GE(fast.newest_io_checkpoint, slow.newest_io_checkpoint);
}

TEST(NdpClusterSim, DeterministicForSeed) {
  const auto a = ClusterSim(small_config()).run();
  const auto b = ClusterSim(small_config()).run();
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_DOUBLE_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.newest_io_checkpoint, b.newest_io_checkpoint);
}

// NDP runs are ClusterSim runs, so the replicate driver takes them as is.
TEST(NdpClusterSim, ReplicatesRunNdpConfigs) {
  auto cfg = small_config();
  cfg.total_steps = 200;
  const auto sum = run_cluster_replicates(cfg, 2);
  ASSERT_EQ(sum.runs.size(), 2u);
  EXPECT_TRUE(sum.all_verified);
  for (const ClusterSimResult& run : sum.runs) {
    EXPECT_GT(run.health.io.puts, 0u);  // the agents drained
    EXPECT_GT(run.newest_io_checkpoint, 0u);
  }
}

// Every check applies to both configurations, host (the ClusterSim
// defaults) and NDP. Each case is only constructed, never run: unchecked,
// several would make run() spin forever or fail silently.
TEST(NdpClusterSim, InvalidConfigThrows) {
  ClusterSimConfig host;
  host.total_steps = 100;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const ClusterSimConfig& base : {host, small_config()}) {
    const char* mode = base.ndp_agents ? "ndp" : "host";
    auto cfg = base;
    cfg.node_count = 0;
    EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode;
    cfg = base;
    cfg.total_steps = 0;
    EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode;
    cfg = base;
    cfg.steps_per_checkpoint = 0;
    EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode;
    for (const double bad : {0.0, -5.0, nan, inf}) {
      cfg = base;
      cfg.node_mttf = bad;
      EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode << bad;
      cfg = base;
      cfg.step_time = bad;
      EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode << bad;
      cfg = base;
      cfg.aggregate_io_bw = bad;
      EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode << bad;
      cfg = base;
      cfg.ndp_compress_bw = bad;
      EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode << bad;
    }
    for (const double bad : {-0.5, nan, inf}) {
      cfg = base;
      cfg.local_commit_time = bad;
      EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode << bad;
      cfg = base;
      cfg.local_restore_time = bad;
      EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode << bad;
    }
    for (const double bad : {-0.1, 1.5, nan}) {
      cfg = base;
      cfg.p_local_recovery = bad;
      EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << mode << bad;
    }
    // The bounds are inclusive where the value is meaningful.
    cfg = base;
    cfg.local_commit_time = 0.0;
    cfg.local_restore_time = 0.0;
    cfg.p_local_recovery = 1.0;
    EXPECT_NO_THROW(ClusterSim{cfg}) << mode;
    cfg.p_local_recovery = 0.0;
    EXPECT_NO_THROW(ClusterSim{cfg}) << mode;
  }
  // The IO level has one writer: the manager or the agents.
  auto cfg = small_config();
  cfg.io_every = 4;
  EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument);
}

// An image that can never fit the agent's NVM is an error, not a wait.
TEST(NdpClusterSim, OversizedImageThrows) {
  auto cfg = small_config();
  cfg.nvm_capacity_bytes = cfg.state_bytes_per_rank / 2;
  EXPECT_THROW(ClusterSim(cfg).run(), std::runtime_error);
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
  ClusterSimResult r;
  ASSERT_NO_THROW(r = ClusterSim(cfg).run());
  EXPECT_EQ(r.failures, 0u);
  EXPECT_TRUE(r.state_verified);
  EXPECT_GT(r.newest_io_checkpoint, 0u);
  // Every second beyond compute and commits is a stall.
  const double unstalled =
      200.0 + static_cast<double>(r.checkpoints) * *cfg.local_commit_time;
  EXPECT_GT(r.virtual_seconds, unstalled + 1.0);
}

}  // namespace
}  // namespace ndpcr::cluster
