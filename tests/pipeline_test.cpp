// The pipelined commit path (docs/PERF.md): the async double-buffered
// store writer and the online codec selection must both be execution
// details. Stored bytes, recovery results and every health counter are
// pinned bit-identical writer-on vs writer-off, across pool sizes 1/2/8,
// clean and under a seeded fault schedule, for full, delta and dedup
// commit flavors.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "ckpt/store_writer.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "exec/task_pool.hpp"
#include "faults/chaos.hpp"
#include "faults/fault_plan.hpp"
#include "faults/faulty_stores.hpp"

namespace ndpcr::ckpt {
namespace {

// ---------------------------------------------------------------------------
// AsyncStageWriter unit behavior: FIFO order, flush barrier, error
// propagation, inline depth-0 mode.

TEST(AsyncStageWriter, RunsJobsInSubmissionOrder) {
  AsyncStageWriter writer(2);
  std::vector<int> order;  // written only from writer jobs, read post-flush
  for (int i = 0; i < 32; ++i) {
    writer.submit([&order, i] { order.push_back(i); });
  }
  writer.flush();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(writer.stats().jobs, 32u);
  EXPECT_EQ(writer.stats().inline_jobs, 0u);
  EXPECT_EQ(writer.stats().flushes, 1u);
  EXPECT_LE(writer.stats().queue_peak, 3u);  // depth 2 staged + 1 in flight
}

TEST(AsyncStageWriter, DepthZeroRunsInline) {
  AsyncStageWriter writer(0);
  int ran = 0;
  writer.submit([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // before any flush: submit itself ran the job
  writer.flush();
  EXPECT_EQ(writer.stats().inline_jobs, 1u);
}

TEST(AsyncStageWriter, FlushRethrowsFirstJobError) {
  AsyncStageWriter writer(2);
  std::atomic<int> later{0};
  writer.submit([] { throw std::runtime_error("boom"); });
  writer.submit([&later] { ++later; });
  EXPECT_THROW(writer.flush(), std::runtime_error);
  EXPECT_EQ(later.load(), 1);  // independent jobs still ran
  writer.flush();              // error consumed: the barrier is clean again
}

TEST(AsyncStageWriter, DestructorDrainsPendingJobs) {
  std::vector<int> order;
  {
    AsyncStageWriter writer(4);
    for (int i = 0; i < 8; ++i) {
      writer.submit([&order, i] { order.push_back(i); });
    }
  }  // no flush: the destructor must run everything before joining
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

// ---------------------------------------------------------------------------
// End-to-end pipeline equivalence on the multilevel data path.

struct PathResult {
  std::vector<std::uint64_t> ids;
  std::vector<Bytes> io_bytes;  // per rank, newest id's stored container
  std::uint64_t recovered_id = 0;
  std::vector<Bytes> recovered;
  std::uint32_t health_fp = 0;
  PipelineStats pipeline;
};

struct PathOptions {
  unsigned pool_threads = 1;
  std::size_t writer_depth = 2;
  bool adaptive = false;
  bool with_delta = false;
  bool with_dedup = false;
  bool with_faults = false;
};

PathResult run_path(const PathOptions& opt) {
  exec::TaskPool pool(opt.pool_threads);
  MultilevelConfig mc;
  mc.node_count = 4;
  mc.nvm_capacity_bytes = 1 << 20;
  mc.partner_every = 2;
  mc.io_every = 1;
  mc.io_chunk_bytes = 2048;
  mc.io_writer_depth = opt.writer_depth;
  mc.pool = &pool;
  if (opt.adaptive) {
    mc.io_codec_adaptive = true;  // io_codec stays kNull: probe decides
  } else {
    mc.io_codec = compress::CodecId::kLz4Style;
    mc.io_codec_level = 1;
  }
  if (opt.with_delta) {
    mc.delta.enabled = true;
    mc.delta.chain_length = 3;
  }
  if (opt.with_dedup) mc.delta.io_dedup = true;
  if (opt.with_faults) {
    auto plan = std::make_shared<faults::FaultPlan>(
        4242, faults::FaultRates{0.05, 0.03, 0.02, 0.02});
    mc.store_factory = [plan](StoreLevel level, std::uint32_t host)
        -> std::unique_ptr<KvStore> {
      const faults::Target target = level == StoreLevel::kIo
                                        ? faults::io_target()
                                        : faults::partner_target(host);
      return std::make_unique<faults::FaultyKvStore>(plan, target);
    };
    mc.local_write_hook = faults::make_local_write_hook(plan, nullptr);
  }
  MultilevelManager manager(mc);

  PathResult out;
  Rng rng(2026);
  Bytes base(24000);
  for (auto& b : base) b = static_cast<std::byte>(rng.next_below(11));
  for (int i = 0; i < 6; ++i) {
    // Mostly-stable payloads so delta/dedup flavors genuinely engage.
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < mc.node_count; ++r) {
      Bytes p = base;
      for (int k = 0; k < 40; ++k) {
        p[(i * 131 + k * 97 + r) % p.size()] =
            static_cast<std::byte>(rng.next_below(256));
      }
      payloads.push_back(std::move(p));
    }
    const std::vector<ByteSpan> views(payloads.begin(), payloads.end());
    out.ids.push_back(manager.commit(views));
  }
  for (std::uint32_t r = 0; r < mc.node_count; ++r) {
    const auto got = manager.io_store().get(r, out.ids.back());
    out.io_bytes.push_back(got.ok() ? *got : Bytes{});
  }
  if (const auto rec = manager.recover()) {
    out.recovered_id = rec->checkpoint_id;
    out.recovered = rec->payloads;
  }
  out.health_fp = faults::health_fingerprint(manager.health());
  out.pipeline = manager.pipeline();
  return out;
}

void expect_equal(const PathResult& a, const PathResult& b,
                  const char* what) {
  EXPECT_EQ(a.ids, b.ids) << what;
  EXPECT_EQ(a.io_bytes, b.io_bytes) << what;
  EXPECT_EQ(a.recovered_id, b.recovered_id) << what;
  EXPECT_EQ(a.recovered, b.recovered) << what;
  EXPECT_EQ(a.health_fp, b.health_fp) << what;
}

TEST(PipelinedCommit, WriterOnOffBitIdentical) {
  // The async writer is pure overlap: depth 0 (inline) and depth 2
  // (double-buffered) must produce identical stores, recovery and health,
  // for every commit flavor, clean and faulted.
  for (const bool faults : {false, true}) {
    for (int flavor = 0; flavor < 3; ++flavor) {
      PathOptions on;
      on.with_faults = faults;
      on.with_delta = flavor >= 1;
      on.with_dedup = flavor == 2;
      PathOptions off = on;
      off.writer_depth = 0;
      const PathResult a = run_path(on);
      const PathResult b = run_path(off);
      expect_equal(a, b, faults ? "faulted" : "clean");
      // Depth 0 never starts the writer thread; all jobs counted inline.
      EXPECT_EQ(b.pipeline.inline_jobs, b.pipeline.jobs);
    }
  }
}

TEST(PipelinedCommit, AdaptiveCodecThreadAndWriterInvariant) {
  PathOptions base_opt;
  base_opt.adaptive = true;
  const PathResult base = run_path(base_opt);
  // The probe actually engaged: streams decode as chunked containers.
  ASSERT_FALSE(base.io_bytes.empty());
  const auto header = compress::ChunkedCodec::peek(ByteSpan(base.io_bytes[0]));
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(base.recovered_id, base.ids.back());
  for (unsigned threads : {2u, 8u}) {
    PathOptions opt = base_opt;
    opt.pool_threads = threads;
    expect_equal(run_path(opt), base, "threads");
  }
  PathOptions inline_opt = base_opt;
  inline_opt.writer_depth = 0;
  expect_equal(run_path(inline_opt), base, "writer off");
}

TEST(PipelinedCommit, AdaptiveSurvivesFaultsAcrossPools) {
  PathOptions opt;
  opt.adaptive = true;
  opt.with_faults = true;
  opt.with_delta = true;
  const PathResult base = run_path(opt);
  for (unsigned threads : {2u, 8u}) {
    PathOptions o = opt;
    o.pool_threads = threads;
    expect_equal(run_path(o), base, "faulted threads");
  }
}

TEST(PipelinedCommit, PipelineStatsObserveTheWriter) {
  PathOptions opt;  // defaults: static nlz4, writer depth 2
  const PathResult r = run_path(opt);
  // 6 commits x 4 ranks of IO puts rode the pipeline, one flush per
  // commit; recover never uses the writer.
  EXPECT_EQ(r.pipeline.jobs, 24u);
  EXPECT_EQ(r.pipeline.flushes, 6u);
  EXPECT_EQ(r.pipeline.inline_jobs, 0u);
}

}  // namespace
}  // namespace ndpcr::ckpt
