// The commit path's IO leg (docs/PERF.md): online codec selection and
// pool-scheduled chunk compression must be execution details. Stored
// bytes, recovery results and every health counter are pinned
// bit-identical across pool sizes 1/2/8, clean and under a seeded fault
// schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "exec/task_pool.hpp"
#include "faults/chaos.hpp"
#include "faults/fault_plan.hpp"
#include "faults/faulty_stores.hpp"

namespace ndpcr::ckpt {
namespace {

// ---------------------------------------------------------------------------
// End-to-end equivalence on the multilevel data path.

struct PathResult {
  std::vector<std::uint64_t> ids;
  std::vector<Bytes> io_bytes;  // per rank, newest id's stored container
  std::uint64_t recovered_id = 0;
  std::vector<Bytes> recovered;
  std::uint32_t health_fp = 0;
};

struct PathOptions {
  unsigned pool_threads = 1;
  bool with_delta = false;
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
  mc.pool = &pool;
  mc.io_codec_adaptive = true;  // io_codec stays kNull: probe decides
  if (opt.with_delta) {
    mc.delta.enabled = true;
    mc.delta.chain_length = 3;
  }
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

TEST(PipelinedCommit, AdaptiveCodecThreadInvariant) {
  const PathOptions base_opt;
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
}

TEST(PipelinedCommit, AdaptiveSurvivesFaultsAcrossPools) {
  PathOptions opt;
  opt.with_faults = true;
  opt.with_delta = true;
  const PathResult base = run_path(opt);
  for (unsigned threads : {2u, 8u}) {
    PathOptions o = opt;
    o.pool_threads = threads;
    expect_equal(run_path(o), base, "faulted threads");
  }
}

}  // namespace
}  // namespace ndpcr::ckpt
