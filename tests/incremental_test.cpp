#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "ckpt/dedup_level.hpp"
#include "ckpt/image.hpp"
#include "ckpt/multilevel.hpp"
#include "common/rng.hpp"
#include "delta/delta.hpp"

// Integrated incremental-checkpointing tests (docs/DELTA.md): delta
// chains and block dedup on the real commit path, and chain-aware
// recovery.

namespace ndpcr::ckpt {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  return data;
}

// Sparse-update workload: per-rank persistent state; each step rewrites
// one contiguous ~fraction-sized region (a hot region, the regime where
// incremental checkpointing pays off). The whole payload history is
// materialized so two managers can replay the identical sequence.
std::vector<std::vector<Bytes>> sparse_history(std::uint32_t ranks,
                                               std::size_t bytes,
                                               std::uint32_t commits,
                                               double fraction,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> state;
  state.reserve(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    state.push_back(random_bytes(bytes, seed + r + 1));
  }
  std::vector<std::vector<Bytes>> history;
  history.reserve(commits);
  for (std::uint32_t c = 0; c < commits; ++c) {
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const auto span = std::max<std::uint64_t>(
          16, static_cast<std::uint64_t>(static_cast<double>(bytes) *
                                         fraction));
      const auto start = rng.next_below(bytes - span + 1);
      for (std::uint64_t t = 0; t < span; ++t) {
        state[r][start + t] = static_cast<std::byte>(rng.next_below(256));
      }
    }
    history.push_back(state);
  }
  return history;
}

std::vector<ByteSpan> views_of(const std::vector<Bytes>& payloads) {
  return std::vector<ByteSpan>(payloads.begin(), payloads.end());
}

MultilevelConfig incremental_config(std::uint32_t ranks) {
  MultilevelConfig mc;
  mc.node_count = ranks;
  mc.nvm_capacity_bytes = 1ull << 20;
  mc.partner_every = 1;
  mc.io_every = 1;
  mc.delta.enabled = true;
  mc.delta.chain_length = 4;
  mc.delta.block_bytes = 256;
  mc.delta.io_dedup = true;
  mc.delta.cdc = {256, 512, 1024};
  return mc;
}

TEST(Incremental, ChainCadenceForcesPeriodicFulls) {
  auto mc = incremental_config(2);
  mc.delta.chain_length = 3;
  MultilevelManager manager(mc);
  const auto history = sparse_history(2, 8192, 10, 0.01, 11);
  for (const auto& payloads : history) {
    manager.commit(views_of(payloads));
  }
  // Pattern with chain_length 3: F D D D F D D D F D.
  const DataPathStats& d = manager.data_path();
  EXPECT_EQ(d.commits_full, 3u);
  EXPECT_EQ(d.commits_delta, 7u);
  EXPECT_GT(d.delta_factor(), 0.8);  // sparse updates collapse

  const auto recovery = manager.recover();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint_id, 10u);
  EXPECT_EQ(recovery->payloads, history.back());
  EXPECT_GT(manager.data_path().chain_replays, 0u);
}

TEST(Incremental, DeltaDedupMovesFarFewerBytesToIo) {
  const std::uint32_t ranks = 4;
  const auto history = sparse_history(ranks, 32 * 1024, 10, 0.005, 23);

  auto on_cfg = incremental_config(ranks);
  auto off_cfg = incremental_config(ranks);
  off_cfg.delta = DeltaPolicy{};  // full images, no dedup
  MultilevelManager on(on_cfg);
  MultilevelManager off(off_cfg);
  for (const auto& payloads : history) {
    on.commit(views_of(payloads));
    off.commit(views_of(payloads));
  }

  const auto& don = on.data_path();
  const auto& doff = off.data_path();
  ASSERT_GT(don.io_bytes_written, 0u);
  ASSERT_GT(doff.io_bytes_written, 0u);
  // The acceptance bar: a 10-commit sparse-update workload moves at
  // least 5x fewer bytes to the IO level with delta + dedup on.
  EXPECT_GE(static_cast<double>(doff.io_bytes_written) /
                static_cast<double>(don.io_bytes_written),
            5.0);
  EXPECT_GT(don.dedup_hit_rate(), 0.0);

  // And both recover the identical final state.
  const auto ron = on.recover();
  const auto roff = off.recover();
  ASSERT_TRUE(ron.has_value());
  ASSERT_TRUE(roff.has_value());
  EXPECT_EQ(ron->checkpoint_id, roff->checkpoint_id);
  EXPECT_EQ(ron->payloads, history.back());
  EXPECT_EQ(roff->payloads, history.back());
}

TEST(Incremental, CorruptChainLinkFallsBackToPartner) {
  auto mc = incremental_config(2);
  MultilevelManager manager(mc);
  const auto history = sparse_history(2, 8192, 6, 0.01, 31);
  for (const auto& payloads : history) {
    manager.commit(views_of(payloads));
  }
  // Tear the newest local entry (a mid-chain delta) on rank 0: the local
  // chain is broken, but every link also lives on partner/io.
  ASSERT_TRUE(manager.corrupt_local(0));
  const auto recovery = manager.recover();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint_id, 6u);
  EXPECT_EQ(recovery->payloads, history.back());
  EXPECT_NE(recovery->levels[0], RecoveryLevel::kLocal);
  EXPECT_EQ(recovery->levels[1], RecoveryLevel::kLocal);
}

TEST(Incremental, LostAnchorFallsBackToOlderCheckpoint) {
  // Local NVM only: no partner, no IO. Killing a chain's anchor strands
  // every delta that depends on it; recovery must settle on the newest
  // checkpoint whose chain is intact instead of failing outright.
  MultilevelConfig mc;
  mc.node_count = 2;
  mc.nvm_capacity_bytes = 1ull << 20;
  mc.partner_every = 0;
  mc.io_every = 0;
  mc.delta.enabled = true;
  mc.delta.chain_length = 2;
  mc.delta.block_bytes = 256;
  MultilevelManager manager(mc);
  const auto history = sparse_history(2, 4096, 5, 0.01, 41);
  for (const auto& payloads : history) {
    manager.commit(views_of(payloads));
  }
  // Kinds: 1=F 2=D 3=D 4=F 5=D. Erase rank 0's anchor #4: ids 5 and 4
  // are gone for rank 0, but 3 -> 2 -> 1 still replays.
  manager.local_store(0).erase(4);
  const auto recovery = manager.recover();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint_id, 3u);
  EXPECT_EQ(recovery->payloads, history[2]);
}

TEST(Incremental, UnreplayableLocalDeltaFailsItsCheckpoint) {
  // A CRC-valid delta image whose stream was encoded against other bytes
  // (as a foreign or older writer could leave in NVM) validates, then
  // fails its base-digest check on replay. Recovery gives that id up and
  // settles on the previous one, with every rank local and with rank 1
  // lost (its image then comes from the partner level).
  for (const bool lose_node : {false, true}) {
    SCOPED_TRACE(lose_node ? "rank 1 lost" : "all ranks local");
    const MultilevelConfig mc = incremental_config(2);
    MultilevelManager manager(mc);
    const auto history = sparse_history(2, 4096, 3, 0.01, 53);  // F D D
    for (const auto& payloads : history) {
      manager.commit(views_of(payloads));
    }
    CheckpointMeta meta;
    meta.app_id = mc.app_id;
    meta.rank = 0;
    meta.checkpoint_id = 3;
    meta.kind = PayloadKind::kDelta;
    meta.base_id = 2;
    const delta::DeltaCodec codec(mc.delta.block_bytes);
    const Bytes stream = codec.encode(ByteSpan(random_bytes(4096, 99)),
                                      ByteSpan(history[2][0]));
    manager.local_store(0).erase(3);
    ASSERT_TRUE(manager.local_store(0).put(
        3, CheckpointImage::build(meta, ByteSpan(stream))));
    if (lose_node) manager.fail_node(1);

    const auto recovery = manager.recover();
    ASSERT_TRUE(recovery.has_value());
    EXPECT_EQ(recovery->checkpoint_id, 2u);
    EXPECT_EQ(recovery->payloads, history[1]);
    EXPECT_EQ(recovery->levels[0], RecoveryLevel::kLocal);
  }
}

TEST(Incremental, DedupIndexPlanAdmitAssemble) {
  DedupIndex index(delta::CdcParams{256, 512, 1024});
  const Bytes image = random_bytes(8192, 51);

  const auto plan = index.plan(image);
  EXPECT_EQ(plan.raw_bytes, image.size());
  EXPECT_EQ(plan.new_bytes, image.size());
  EXPECT_EQ(plan.dup_bytes, 0u);
  EXPECT_TRUE(DedupIndex::is_recipe(plan.recipe));
  index.admit(plan, 0, 1);

  // The same bytes from another rank dedup completely.
  const auto plan2 = index.plan(image);
  EXPECT_EQ(plan2.new_bytes, 0u);
  EXPECT_EQ(plan2.dup_bytes, image.size());
  index.admit(plan2, 1, 1);
  EXPECT_EQ(index.logical_bytes(), 2 * image.size());
  EXPECT_EQ(index.stored_bytes(), image.size());

  // Assemble from a block map; a tampered block fails the CRC.
  std::map<std::uint64_t, Bytes> blocks;
  for (const auto& [key, data] : plan.new_blocks) blocks[key] = data;
  auto fetch = [&](const DedupIndex::BlockRef& ref) -> std::optional<Bytes> {
    const auto it = blocks.find(ref.key);
    if (it == blocks.end()) return std::nullopt;
    return it->second;
  };
  EXPECT_EQ(DedupIndex::assemble(plan.recipe, fetch).value(), image);
  blocks.begin()->second[0] ^= std::byte{0x01};
  EXPECT_FALSE(DedupIndex::assemble(plan.recipe, fetch).has_value());

  // Releasing the last reference frees the blocks.
  (void)index.release(0, 1);
  const auto freed = index.release(1, 1);
  EXPECT_FALSE(freed.empty());
  EXPECT_EQ(index.stored_bytes(), 0u);
}

// Regression for the crash-replay audit (docs/EQUIVALENCE.md): a restart
// that re-admits a (rank, id) the index already recorded - the process
// died mid-admit, or adopt_existing restores a recipe the dying run also
// admitted - must not double-charge refcounts.
TEST(Incremental, DedupAdmitReplayIsIdempotent) {
  DedupIndex index(delta::CdcParams{256, 512, 1024});
  const Bytes image = random_bytes(8192, 52);

  const auto plan = index.plan(image);
  index.admit(plan, 0, 1);
  const std::size_t unique = index.unique_blocks();
  const std::size_t stored = index.stored_bytes();
  const std::size_t logical = index.logical_bytes();

  // Replaying the same admit changes nothing.
  index.admit(plan, 0, 1);
  EXPECT_EQ(index.unique_blocks(), unique);
  EXPECT_EQ(index.stored_bytes(), stored);
  EXPECT_EQ(index.logical_bytes(), logical);

  // restore() of the surviving recipe is the same recording.
  const auto parsed = DedupIndex::parse_recipe(ByteSpan(plan.recipe));
  ASSERT_TRUE(parsed.has_value());
  index.restore(parsed->refs, parsed->image_size, 0, 1);
  EXPECT_EQ(index.unique_blocks(), unique);
  EXPECT_EQ(index.stored_bytes(), stored);
  EXPECT_EQ(index.logical_bytes(), logical);

  // One release frees everything: the replays charged exactly once.
  const auto freed = index.release(0, 1);
  EXPECT_EQ(freed.size(), unique);
  EXPECT_EQ(index.stored_bytes(), 0u);
  EXPECT_EQ(index.logical_bytes(), 0u);
  EXPECT_TRUE(index.release(0, 1).empty());
}

}  // namespace
}  // namespace ndpcr::ckpt
