#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "ndp/agent.hpp"

namespace ndpcr::ndp {
namespace {

Bytes compressible_image(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(4));
  return data;
}

// Reference implementation of the drain's virtual-time model. Overlap
// mode: chunk j's write starts once it is compressed AND the wire is
// free (W_j = max(C_j, W_{j-1}) + w_j); serial mode compresses the whole
// image first and then writes (sum of stages). The container header and
// size table ride on the first write.
double pipeline_model_seconds(const compress::ChunkedCodec& codec,
                              const Bytes& image, double compress_bw,
                              double io_bw, bool overlap) {
  const std::size_t k = codec.chunk_count(image.size());
  const Bytes container = codec.compress(image);
  double compress_front = 0.0;
  double write_front = 0.0;
  double total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double c =
        static_cast<double>(codec.chunk_extent(image.size(), j).second) /
        compress_bw;
    double bytes = static_cast<double>(
        compress::ChunkedCodec::chunk_stream_size(container, j));
    if (j == 0) {
      bytes += static_cast<double>(compress::ChunkedCodec::header_bytes(k));
    }
    const double w = bytes / io_bw;
    compress_front += c;
    write_front = std::max(compress_front, write_front) + w;
    total += c + w;
  }
  return overlap ? write_front : total;
}

AgentConfig test_config() {
  AgentConfig cfg;
  cfg.uncompressed_capacity = 1 << 20;
  cfg.compressed_capacity = 1 << 20;
  cfg.compress_bw = 1e6;  // 1 MB/s: visible virtual durations
  cfg.io_bw = 0.5e6;
  return cfg;
}

TEST(NdpAgent, DrainsCommittedCheckpointToIo) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  const Bytes image = compressible_image(100 * 1024, 1);
  ASSERT_TRUE(agent.host_commit(1, image));
  EXPECT_TRUE(agent.busy());
  EXPECT_FALSE(agent.newest_on_io().has_value());

  // Pump in pieces: completion only after the full drain duration.
  agent.pump(0.01);
  EXPECT_FALSE(agent.newest_on_io().has_value());
  agent.pump(1e6);
  ASSERT_TRUE(agent.newest_on_io().has_value());
  EXPECT_EQ(agent.newest_on_io().value(), 1u);
  EXPECT_FALSE(agent.busy());

  // The IO copy is the chunked-container image and round-trips.
  const auto packed = io.get(0, 1);
  ASSERT_TRUE(packed.has_value());
  EXPECT_LT(packed->size(), image.size() / 2);
  const compress::ChunkedCodec codec(compress::CodecId::kDeflateStyle, 1);
  EXPECT_EQ(codec.decompress(*packed), image);
}

TEST(NdpAgent, VirtualTimeMatchesPipelineModel) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.chunk_bytes = 32 * 1024;  // several chunks: real pipelining
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(200 * 1024, 2);
  const compress::ChunkedCodec codec(cfg.codec, cfg.codec_level,
                                     cfg.chunk_bytes);
  ASSERT_GT(codec.chunk_count(image.size()), 1u);
  ASSERT_TRUE(agent.host_commit(1, image));
  const double consumed = agent.pump(1e9);
  EXPECT_NEAR(consumed,
              pipeline_model_seconds(codec, image, cfg.compress_bw,
                                     cfg.io_bw, /*overlap=*/true),
              1e-9);
  // The landed bytes are the container, bit-exact.
  ASSERT_TRUE(io.get(0, 1).has_value());
  EXPECT_EQ(io.get(0, 1).value(), codec.compress(image));
}

TEST(NdpAgent, OverlapBeatsSerialOnMultiChunkImage) {
  AgentConfig cfg = test_config();
  cfg.chunk_bytes = 32 * 1024;
  const Bytes image = compressible_image(200 * 1024, 12);
  const compress::ChunkedCodec codec(cfg.codec, cfg.codec_level,
                                     cfg.chunk_bytes);

  ckpt::KvStore overlap_io;
  NdpAgent overlap_agent(cfg, overlap_io);
  ASSERT_TRUE(overlap_agent.host_commit(1, image));
  const double overlapped = overlap_agent.pump(1e9);

  cfg.overlap = false;
  ckpt::KvStore serial_io;
  NdpAgent serial_agent(cfg, serial_io);
  ASSERT_TRUE(serial_agent.host_commit(1, image));
  const double serial = serial_agent.pump(1e9);

  EXPECT_NEAR(serial,
              pipeline_model_seconds(codec, image, cfg.compress_bw,
                                     cfg.io_bw, /*overlap=*/false),
              1e-9);
  EXPECT_LT(overlapped, serial);
  // Same bytes on the wire either way.
  EXPECT_EQ(overlap_io.get(0, 1).value(), serial_io.get(0, 1).value());
}

TEST(NdpAgent, SerialModeSumsStages) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.overlap = false;
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(100 * 1024, 3);
  ASSERT_TRUE(agent.host_commit(1, image));
  const double consumed = agent.pump(1e9);
  const double compress_time = static_cast<double>(image.size()) / 1e6;
  const double write_time =
      static_cast<double>(io.get(0, 1)->size()) / 0.5e6;
  EXPECT_NEAR(consumed, compress_time + write_time, 1e-9);
}

TEST(NdpAgent, AlwaysDrainsNewestAndSkipsSuperseded) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  ASSERT_TRUE(agent.host_commit(1, compressible_image(50 * 1024, 4)));
  // While 1 drains, 2 and 3 arrive; 2 is superseded by 3.
  ASSERT_TRUE(agent.host_commit(2, compressible_image(50 * 1024, 5)));
  ASSERT_TRUE(agent.host_commit(3, compressible_image(50 * 1024, 6)));
  agent.pump(1e9);
  EXPECT_EQ(agent.newest_on_io().value(), 3u);
  EXPECT_EQ(agent.stats().drains_completed, 2u);  // 1 and 3
  EXPECT_EQ(agent.stats().drains_skipped, 1u);    // 2
  EXPECT_TRUE(io.contains(0, 1));
  EXPECT_FALSE(io.contains(0, 2));
  EXPECT_TRUE(io.contains(0, 3));
}

TEST(NdpAgent, LockedCheckpointSurvivesEvictionPressure) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.uncompressed_capacity = 220 * 1024;  // two 100 KiB images + slack
  NdpAgent agent(cfg, io);
  const Bytes img = compressible_image(100 * 1024, 7);
  ASSERT_TRUE(agent.host_commit(1, img));   // drain of 1 starts, locks it
  ASSERT_TRUE(agent.host_commit(2, img));   // fits alongside
  // 3 would need to evict 1 (locked) - the host must stall.
  EXPECT_FALSE(agent.host_commit(3, img));
  // After the drain completes, 1 unlocks and can be evicted.
  agent.pump(1e9);
  EXPECT_TRUE(agent.host_commit(3, img));
}

TEST(NdpAgent, ResetAbortsDrainAndClearsNvm) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  ASSERT_TRUE(agent.host_commit(1, compressible_image(100 * 1024, 8)));
  agent.pump(0.01);
  agent.reset();
  EXPECT_FALSE(agent.busy());
  EXPECT_EQ(agent.stats().drains_aborted, 1u);
  EXPECT_FALSE(agent.newest_on_io().has_value());
  EXPECT_EQ(agent.uncompressed_partition().count(), 0u);
  // The agent keeps working after the reset.
  ASSERT_TRUE(agent.host_commit(2, compressible_image(100 * 1024, 9)));
  agent.pump(1e9);
  EXPECT_EQ(agent.newest_on_io().value(), 2u);
}

TEST(NdpAgent, RestoreLocalPrefersUncompressed) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  const Bytes image = compressible_image(60 * 1024, 10);
  ASSERT_TRUE(agent.host_commit(1, image));
  // Before the drain finishes: restore from the uncompressed partition.
  EXPECT_EQ(agent.restore_local(1).value(), image);
  agent.pump(1e9);
  // Still restorable after the drain (and via the compressed partition if
  // the uncompressed copy is later evicted).
  EXPECT_EQ(agent.restore_local(1).value(), image);
  EXPECT_FALSE(agent.restore_local(99).has_value());
}

TEST(NdpAgent, UncompressedModeStreamsRawImage) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.codec = compress::CodecId::kNull;
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(50 * 1024, 11);
  ASSERT_TRUE(agent.host_commit(1, image));
  const double consumed = agent.pump(1e9);
  EXPECT_NEAR(consumed, static_cast<double>(image.size()) / cfg.io_bw, 1e-9);
  EXPECT_EQ(io.get(0, 1).value(), image);
  // The raw image is its own IO format: decode_io passes it through.
  EXPECT_EQ(agent.decode_io(io.get(0, 1).value()).value(), image);
}

TEST(NdpAgent, PumpIdleConsumesNothing) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  EXPECT_DOUBLE_EQ(agent.pump(100.0), 0.0);
  EXPECT_DOUBLE_EQ(agent.stats().busy_seconds, 0.0);
}

TEST(NdpAgent, DecodeIoReadsWhatTheAgentShipped) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.chunk_bytes = 32 * 1024;  // not the codec default: several chunks
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(200 * 1024, 13);
  ASSERT_TRUE(agent.host_commit(1, image));
  agent.pump(1e9);
  const auto packed = io.get(0, 1);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(agent.decode_io(*packed).value(), image);
  // The container describes itself: a codec at its default chunk size
  // reads it too.
  const compress::ChunkedCodec foreign(cfg.codec, cfg.codec_level);
  EXPECT_EQ(foreign.decompress(*packed), image);

  // Corrupt bytes decode to nullopt, not to a throw.
  Bytes torn(*packed);
  torn.resize(torn.size() / 2);
  EXPECT_FALSE(agent.decode_io(torn).has_value());
  EXPECT_FALSE(agent.decode_io(Bytes(7, std::byte{0x5A})).has_value());

  // The compressed-partition restore runs through the same decode.
  cfg.uncompressed_capacity = 250 * 1024;
  ckpt::KvStore io2;
  NdpAgent staged(cfg, io2);
  ASSERT_TRUE(staged.host_commit(1, image));
  staged.pump(1e9);
  ASSERT_TRUE(staged.host_commit(2, compressible_image(200 * 1024, 14)));
  ASSERT_FALSE(staged.uncompressed_partition().contains(1));
  ASSERT_TRUE(staged.compressed_partition().contains(1));
  EXPECT_EQ(staged.restore_local(1).value(), image);
}

// IO store whose first `transient` puts fail transiently; with `down`
// set, every put fails for good instead.
class FlakyIo final : public ckpt::KvStore {
 public:
  explicit FlakyIo(std::uint32_t transient, bool down = false)
      : transient_(transient), down_(down) {}
  ckpt::StoreStatus put(std::uint32_t rank, std::uint64_t id,
                        Bytes data) override {
    if (down_) {
      return ckpt::StoreStatus::failure(ckpt::StoreErrorKind::kPermanent,
                                        "down");
    }
    if (transient_ > 0) {
      --transient_;
      return ckpt::StoreStatus::failure(ckpt::StoreErrorKind::kTransient,
                                        "flaky");
    }
    return KvStore::put(rank, id, std::move(data));
  }

 private:
  std::uint32_t transient_;
  bool down_;
};

TEST(NdpAgent, RetriedDrainShipsTheStagedContainer) {
  // The drain moves its container into the compressed partition before
  // the first IO put; the retry after a transient failure copies it back
  // out of that entry. A retry that read the moved-from drain buffer
  // would ship nothing verifiable.
  FlakyIo io(/*transient=*/1);
  const AgentConfig cfg = test_config();
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(100 * 1024, 21);
  ASSERT_TRUE(agent.host_commit(1, image));
  agent.pump(1e9);
  ASSERT_EQ(agent.newest_on_io(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(agent.stats().drain_put_retries, 1u);
  EXPECT_EQ(agent.stats().io_put_attempts, 2u);
  const auto shipped = io.get(0, 1);
  ASSERT_TRUE(shipped.ok());
  const auto staged = agent.compressed_partition().get(1);
  ASSERT_TRUE(staged.has_value());
  EXPECT_TRUE(std::equal(staged->begin(), staged->end(), shipped->begin(),
                         shipped->end()));
  EXPECT_EQ(agent.stats().bytes_to_io, shipped->size());
  EXPECT_EQ(agent.decode_io(*shipped).value(), image);
}

TEST(NdpAgent, HostFallbackCarriesAContainerThePartitionRefused) {
  // A compressed partition too small for the container refuses it, so
  // the drain keeps its own bytes: with IO down, they are what the host
  // fallback carries. (NdpAgentFaults.PermanentOutageFallsBackToHostPath
  // covers a staged container.)
  FlakyIo io(/*transient=*/0, /*down=*/true);
  AgentConfig cfg = test_config();
  cfg.compressed_capacity = 1024;
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(100 * 1024, 22);
  ASSERT_TRUE(agent.host_commit(1, image));
  agent.pump(1e9);
  EXPECT_FALSE(agent.compressed_partition().contains(1));
  const auto fallback = agent.take_host_fallback();
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->checkpoint_id, 1u);
  EXPECT_EQ(agent.decode_io(fallback->compressed).value(), image);
}

// The NDP stack's one restart path: a manager writes only the local level,
// into NVMs it shares with the agents; the agents drain those NVMs into
// the IO store the manager reads as its IO level; recover() walks local
// NVM, then the drained copies.
TEST(NdpAgent, RestoresComeFromLocalNvmThenDrainedIo) {
  constexpr std::uint32_t kRanks = 3;
  ckpt::KvStore pfs;
  std::vector<std::shared_ptr<ckpt::NvmStore>> nvm;
  std::vector<std::unique_ptr<NdpAgent>> agents;
  AgentConfig cfg = test_config();
  cfg.chunk_bytes = 16 * 1024;  // several chunks per image
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    nvm.push_back(std::make_shared<ckpt::NvmStore>(1 << 20));
    cfg.rank = r;
    agents.push_back(std::make_unique<NdpAgent>(cfg, pfs, nvm[r]));
  }
  ckpt::MultilevelConfig mc;
  mc.node_count = kRanks;
  mc.partner_every = 0;
  mc.io_every = 0;
  mc.nvm_factory = [&](std::uint32_t r) { return nvm[r]; };
  mc.store_factory = [&](ckpt::StoreLevel level, std::uint32_t) {
    return level == ckpt::StoreLevel::kIo
               ? std::make_unique<ckpt::ForwardingKvStore>(pfs)
               : std::make_unique<ckpt::KvStore>();
  };
  ckpt::MultilevelManager mgr(mc);

  std::vector<std::vector<Bytes>> committed(1);  // by id
  const auto commit_next = [&](bool drain) {
    std::vector<Bytes> payloads;
    std::vector<ByteSpan> views;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      payloads.push_back(
          compressible_image(40 * 1024, 100 * committed.size() + r));
    }
    for (const Bytes& p : payloads) views.emplace_back(p);
    const std::uint64_t id = mgr.commit(views);
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      agents[r]->local_committed(id);
      if (drain) agents[r]->pump(1e9);
    }
    committed.push_back(std::move(payloads));
    return id;
  };

  for (int c = 0; c < 6; ++c) commit_next(/*drain=*/true);
  const std::vector<std::uint64_t> drained = {1, 2, 3, 4, 5, 6};
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(agents[r]->stats().drains_completed, 6u);
    // The manager retires the local level it writes, never the drained
    // copies it does not.
    EXPECT_EQ(nvm[r]->ids(), (std::vector<std::uint64_t>{5, 6}));
    EXPECT_EQ(pfs.list(r), drained) << "rank " << r;
  }

  // Checkpoint 7 is in NVM but not yet drained: every rank restores it
  // locally.
  ASSERT_EQ(commit_next(/*drain=*/false), 7u);
  auto rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 7u);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(rec->levels[r], ckpt::RecoveryLevel::kLocal);
    EXPECT_EQ(rec->payloads[r], committed[7][r]);
  }

  // Node 1 is lost: it restores the newest id it drained from IO, the
  // others the same id from their NVM.
  ASSERT_EQ(agents[1]->newest_on_io(), std::optional<std::uint64_t>(6));
  agents[1]->reset();
  mgr.fail_node(1);
  rec = mgr.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_id, 6u);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(rec->levels[r], r == 1 ? ckpt::RecoveryLevel::kIo
                                     : ckpt::RecoveryLevel::kLocal)
        << "rank " << r;
    EXPECT_EQ(rec->payloads[r], committed[6][r]) << "rank " << r;
  }
}

TEST(NdpAgent, InvalidConfigThrows) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.io_bw = 0;
  EXPECT_THROW(NdpAgent(cfg, io), std::invalid_argument);

  // A NaN bandwidth used to leave a drain busy forever while pump()
  // reported the whole budget consumed. Constructed only, never pumped.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, nan, inf}) {
    cfg = test_config();
    cfg.compress_bw = bad;
    EXPECT_THROW(NdpAgent(cfg, io), std::invalid_argument) << bad;
    cfg = test_config();
    cfg.io_bw = bad;
    EXPECT_THROW(NdpAgent(cfg, io), std::invalid_argument) << bad;
  }
  cfg = test_config();
  cfg.chunk_bytes = 0;
  EXPECT_THROW(NdpAgent(cfg, io), std::invalid_argument);
}

}  // namespace
}  // namespace ndpcr::ndp
