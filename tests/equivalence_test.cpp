#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "common/rng.hpp"
#include "exec/task_pool.hpp"
#include "faults/crash.hpp"
#include "harness/equivalence.hpp"

namespace ndpcr::harness {
namespace {

// Every failing crash point is its own test failure, so a broken sweep
// reports WHICH mutation sites lose data, not just that one did.
void ExpectCleanSweep(const SweepReport& report) {
  EXPECT_GT(report.points_total, 0u);
  EXPECT_GT(report.points_run, 0u);
  for (const CrashRunResult& f : report.failed) {
    ADD_FAILURE() << "crash point " << f.point
                  << " (crashed=" << f.crashed
                  << " recovered_id=" << f.recovered_id
                  << "): " << f.failure;
  }
  EXPECT_TRUE(report.ok());
}

EquivalenceConfig SmokeConfig(PayloadMode mode, const std::string& kernel) {
  EquivalenceConfig config;
  config.kernel = kernel;
  config.mode = mode;
  config.node_count = 3;
  config.iterations = 6;
  config.cadence = 2;
  config.state_bytes = 8 << 10;
  config.seed = 11;
  return config;
}

class EquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("ndpcr-equiv-" +
             std::to_string(Rng(::testing::UnitTest::GetInstance()
                                    ->random_seed())
                                .next_u64()));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  std::filesystem::path root_;
};

TEST_F(EquivalenceTest, FullPayloadEveryCrashPoint) {
  ExpectCleanSweep(run_sweep(SmokeConfig(PayloadMode::kFull, "cg")));
}

TEST_F(EquivalenceTest, DeltaPayloadSweep) {
  ExpectCleanSweep(run_sweep(SmokeConfig(PayloadMode::kDelta, "mg"), 2));
}

TEST_F(EquivalenceTest, DedupPayloadSweep) {
  ExpectCleanSweep(run_sweep(SmokeConfig(PayloadMode::kDedup, "ft"), 2));
}

// Online codec selection under crash: a dying run's probe choices are
// recorded in the stream containers, so any restart - which re-probes
// nothing - must decode whatever the victim wrote.
TEST_F(EquivalenceTest, AdaptiveCodecSweep) {
  EquivalenceConfig config = SmokeConfig(PayloadMode::kDelta, "ft");
  config.io_codec_adaptive = true;
  ExpectCleanSweep(run_sweep(config, 2));
}

// Seeded device faults (transient failures, torn writes, bitflips) layer
// under the crash gates, so crash points land inside retry and quarantine
// sequences too.
TEST_F(EquivalenceTest, SeededFaultScheduleSweep) {
  EquivalenceConfig config = SmokeConfig(PayloadMode::kFull, "cg");
  config.rates.transient = 0.05;
  config.rates.torn = 0.03;
  config.rates.bitflip = 0.02;
  config.fault_seed = 77;
  ExpectCleanSweep(run_sweep(config, 2));
}

// File-backed IO level: latest-pointer updates become crash points, so
// this sweeps the pointer's write-temp/fsync/rename atomicity end to end.
TEST_F(EquivalenceTest, FileBackedIoPointerSweep) {
  EquivalenceConfig config = SmokeConfig(PayloadMode::kFull, "cg");
  config.node_count = 2;
  config.io_root = root_;
  ExpectCleanSweep(run_sweep(config, 2));
}

// The soak's seeded-fault sweep over a file-backed IO level, pinned at
// the values recorded before the fault decorator and the crash
// simulator's views became one forwarding class. The crash points are
// the gated mutations the fault schedule lets through, so their count
// pins the schedule too.
TEST_F(EquivalenceTest, FaultedFileBackedSweepReplaysBitForBit) {
  EquivalenceConfig faulty = SmokeConfig(PayloadMode::kDelta, "mg");
  faulty.rates.transient = 0.05;
  faulty.rates.torn = 0.03;
  faulty.rates.bitflip = 0.02;
  faulty.io_root = root_;
  const SweepReport report = run_sweep(faulty);
  ExpectCleanSweep(report);
  const std::vector<std::uint64_t> got = {report.points_total,
                                          report.fingerprint};
  const std::vector<std::uint64_t> want = {24u, 1296259771u};
  EXPECT_EQ(got, want);
}

// The sweep is a pure function of its config: the per-device cutoffs make
// death a device-local decision, so the report fingerprint must not move
// with the thread-pool size.
TEST_F(EquivalenceTest, SweepIsThreadInvariant) {
  const EquivalenceConfig base = SmokeConfig(PayloadMode::kDelta, "cg");
  std::vector<std::uint32_t> fingerprints;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::TaskPool pool(threads);
    EquivalenceConfig config = base;
    config.pool = &pool;
    const SweepReport report = run_sweep(config, 3);
    ExpectCleanSweep(report);
    fingerprints.push_back(report.fingerprint);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

// Retention erases are crash points too (docs/EQUIVALENCE.md). A crash
// between two erases of one commit's cleanup, on a device whose erases
// follow every write that commit must land (the IO store in an IO epoch;
// the last rank's NVM, canonically the epoch's final device), must still
// recover that commit bit-exactly: the cleanup only ever drops
// generations the commit has superseded.
TEST_F(EquivalenceTest, CrashBetweenRetentionErasesRecoversNewestCommit) {
  struct Case {
    EquivalenceConfig config;
    std::uint32_t device;
  };
  EquivalenceConfig full = SmokeConfig(PayloadMode::kFull, "cg");
  full.iterations = 12;  // six commits, IO every 2nd
  // Ten delta commits: the anchor at 9 retires the whole 1..4 chain.
  EquivalenceConfig delta = SmokeConfig(PayloadMode::kDelta, "mg");
  delta.iterations = 20;
  const std::vector<Case> cases = {
      {full, faults::io_target().id},
      {delta, faults::local_target(delta.node_count - 1).id}};
  for (const Case& c : cases) {
    SCOPED_TRACE(to_string(c.config.mode));
    const GoldenRun golden = run_golden(c.config);
    std::size_t k = 0;
    for (std::size_t i = 1; i < golden.points.size() && k == 0; ++i) {
      const faults::CrashPoint& a = golden.points[i - 1];
      const faults::CrashPoint& b = golden.points[i];
      if (a.site.op == ckpt::MutationOp::kErase &&
          b.site.op == ckpt::MutationOp::kErase && a.epoch == b.epoch &&
          a.device == c.device && b.device == c.device) {
        k = i;
      }
    }
    ASSERT_GT(k, 0u) << "no commit erased twice on the device";
    const CrashRunResult res = run_crash_point(c.config, golden, k);
    EXPECT_TRUE(res.crashed);
    EXPECT_TRUE(res.ok()) << res.failure;
    EXPECT_EQ(res.recovered_id, golden.points[k].epoch)
        << faults::describe(golden.points[k]);
  }
}

// Regression for the crash-consistency bug the first sweep exposed: a
// restart manager built over surviving stores used to start its id
// counter at 1 again, silently overwriting the oldest surviving
// checkpoints. adopt_existing must resume ids past everything durable.
TEST_F(EquivalenceTest, AdoptExistingResumesIdsAndRecovers) {
  faults::CrashSimConfig sc;
  sc.node_count = 2;
  sc.nvm_capacity_bytes = 1 << 20;
  faults::CrashSimulator sim(sc);

  Rng rng(42);
  std::vector<Bytes> payloads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    Bytes data(512);
    for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
    payloads.push_back(std::move(data));
  }
  std::vector<ByteSpan> spans(payloads.begin(), payloads.end());

  {
    ckpt::MultilevelConfig mc;
    mc.node_count = 2;
    sim.attach(mc);
    ckpt::MultilevelManager first(mc);
    EXPECT_EQ(first.commit(spans), 1u);
    EXPECT_EQ(first.commit(spans), 2u);
  }

  // Without adoption the fresh manager believes no checkpoint exists.
  {
    ckpt::MultilevelConfig mc;
    mc.node_count = 2;
    sim.attach(mc);
    ckpt::MultilevelManager amnesiac(mc);
    EXPECT_EQ(amnesiac.last_checkpoint_id(), 0u);
  }

  ckpt::MultilevelConfig mc;
  mc.node_count = 2;
  sim.attach(mc);
  mc.adopt_existing = true;
  ckpt::MultilevelManager restarted(mc);
  EXPECT_EQ(restarted.last_checkpoint_id(), 2u);

  const auto recovery = restarted.recover();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint_id, 2u);
  ASSERT_EQ(recovery->payloads.size(), 2u);
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(recovery->payloads[r], payloads[r]);
  }

  // New commits continue past the adopted ids instead of colliding.
  EXPECT_EQ(restarted.commit(spans), 3u);
}

// Stride-1 sweeps at the full smoke scale for every payload mode, plus a
// seeded-fault leg. Registered under `ctest -C soak` only.
TEST_F(EquivalenceTest, FullSoakAllModes) {
  for (const PayloadMode mode :
       {PayloadMode::kFull, PayloadMode::kDelta, PayloadMode::kDedup}) {
    EquivalenceConfig config = SmokeConfig(mode, "cg");
    config.iterations = 12;
    config.cadence = 3;
    config.state_bytes = 16 << 10;
    SCOPED_TRACE(to_string(mode));
    ExpectCleanSweep(run_sweep(config));
  }
  EquivalenceConfig faulty = SmokeConfig(PayloadMode::kDelta, "mg");
  faulty.rates.transient = 0.05;
  faulty.rates.torn = 0.03;
  faulty.rates.bitflip = 0.02;
  faulty.io_root = root_;
  SCOPED_TRACE("seeded-faults");
  ExpectCleanSweep(run_sweep(faulty));
}

}  // namespace
}  // namespace ndpcr::harness
