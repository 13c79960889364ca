// Microbenchmark for the parallel checkpoint data path (docs/PERF.md):
//
//   crc32             slicing-by-8 vs a byte-at-a-time reference
//   codec_kernels     whole-payload compress/decompress throughput for
//                     every registered codec, with ratio and vs-baseline
//                     columns against the pre-overhaul kernels
//   chunked_compress  ChunkedCodec worker sweep on one payload, plain and
//                     accelerated, compress and decompress legs
//   commit / recover  MultilevelManager wall throughput across pool sizes
//   drain             NdpAgent chunk pipeline: wall throughput at
//                     unbounded virtual bandwidth, plus the virtual-time
//                     overlap win at paper-like bandwidths
//
// Every configuration produces the same bytes (thread-invariance is
// pinned by the test suite); this harness measures only wall time. On a
// single-core host the pool sweeps show ~1x - the speedup column is
// honest, not modelled.
//
//   obs_overhead      the same commit loop with tracing off vs on: the
//                     off row is the <1% disabled-cost budget of
//                     docs/OBSERVABILITY.md, the on row the real price
//
//   equiv_overhead    the same commit loop against plain stores vs a
//                     recording CrashSimulator (docs/EQUIVALENCE.md):
//                     what the crash-point gates cost the data path
//
//   host_stall        the host's checkpoint critical path at 8 x 1 MiB on
//                     one thread: the capture hash, XOR parity encode and
//                     rebuild, and a local + XOR commit with and without
//                     write verify. Each row is the median of interleaved
//                     repeats with its min and IQR; the `_ref` rows re-run
//                     the byte-serial kernels these paths replaced (FNV-1a,
//                     padded-copy XOR) on the same bytes
//
//   --smoke 1     tiny sizes (CI); also the `perf` ctest label
//   --csv PATH    structured output (default BENCH_datapath.json)
//   --trace PATH  write the traced commit loop's Chrome trace JSON

#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/multilevel.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "compress/lz4_style.hpp"
#include "compress/scratch.hpp"
#include "delta/delta.hpp"
#include "exec/task_pool.hpp"
#include "faults/crash.hpp"
#include "ndp/agent.hpp"
#include "obs/trace.hpp"

using namespace ndpcr;

namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

std::string fmt(double v, int digits = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

Bytes mixed_payload(std::size_t size, std::uint64_t seed) {
  // Half-compressible: small-alphabet runs with random breaks, so the
  // codecs do real match-finding work.
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_below(2) ? rng.next_below(8)
                                                 : rng.next_below(256));
  }
  return data;
}

// Byte-serial FNV-1a: the capture hash delta::block_hash replaced.
std::uint64_t fnv1a(ByteSpan block) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : block) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Reference CRC-32: the classic one-table, one-byte-per-iteration loop
// the sliced kernel replaced.
std::uint32_t crc32_bytewise(const Bytes& data) {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t c = b;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[b] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc = table[(crc ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args;
  if (!args.parse(argc, argv)) return 2;
  const bool smoke = args.number("smoke", 0) != 0;
  if (args.csv.empty()) args.csv = "BENCH_datapath.json";
  const std::uint64_t seed = args.seed_or(20260806);

  bench::BenchReport out("micro_datapath", args, seed, smoke ? 1 : 3,
                         smoke ? "smoke" : "full");

  const std::vector<unsigned> pool_sizes = {1, 2, 4, 8};

  // --- crc32: dispatched kernel vs byte-wise reference ----------------
  {
    // Crc32::compute picks the best kernel at runtime (sliced8, then the
    // PCLMUL / VPCLMULQDQ folds when the CPU has them), so this row times
    // whatever the data path actually runs on this host.
    const std::size_t bytes = smoke ? (4ull << 20) : (32ull << 20);
    const int reps = smoke ? 1 : 3;
    const Bytes data = mixed_payload(bytes, seed);
    std::uint32_t sliced_value = 0;
    std::uint32_t ref_value = 0;
    const double sliced_s = seconds_of([&] {
      for (int r = 0; r < reps; ++r) sliced_value = Crc32::compute(data);
    });
    const double ref_s = seconds_of([&] {
      for (int r = 0; r < reps; ++r) ref_value = crc32_bytewise(data);
    });
    if (sliced_value != ref_value) {
      std::fprintf(stderr, "FAIL: crc mismatch %08x vs %08x\n",
                   sliced_value, ref_value);
      return 1;
    }
    const double total_mb =
        static_cast<double>(bytes) * reps / (1024.0 * 1024.0);
    out.add_section("crc32", {"impl", "mib_per_s", "speedup"});
    out.add_row({"bytewise", fmt(total_mb / ref_s, 1), "1.00"});
    out.add_row(
        {"dispatched", fmt(total_mb / sliced_s, 1), fmt(ref_s / sliced_s)});
  }

  // --- per-codec kernel throughput ------------------------------------
  {
    // Whole-payload compress/decompress for every registered codec, on the
    // same half-compressible payload family the rest of the harness uses
    // (seed pinned so the vs-baseline columns compare identical bytes).
    // The baseline constants are the pre-overhaul kernels measured on the
    // reference host (docs/PERF.md); sizes shrink for the slow coders so a
    // full run stays interactive.
    struct KernelCfg {
      const char* name;
      int level;
      bool accel;
      std::size_t full_mib;
      int reps;
      double comp_base;    // pre-overhaul MiB/s, reference host
      double decomp_base;
    };
    const std::vector<KernelCfg> cfgs = {
        {"null", 0, false, 8, 4, 694.0, 1136.1},
        {"rle", 0, false, 8, 4, 218.7, 560.6},
        {"nlz4", 1, false, 8, 3, 49.0, 664.4},
        {"nlz4-accel", 1, true, 8, 3, 49.0, 664.4},
        {"ngzip", 6, false, 2, 2, 31.8, 120.5},
        {"nbzip2", 9, false, 1, 1, 6.0, 19.5},
        {"nxz", 1, false, 1, 1, 3.6, 16.6},
    };
    out.add_section("codec_kernels",
                    {"codec", "level", "comp_mib_s", "comp_vs_base",
                     "decomp_mib_s", "decomp_vs_base", "ratio"});
    compress::CodecScratch scratch;
    for (const auto& cfg : cfgs) {
      const std::size_t bytes =
          smoke ? (256ull << 10) : (cfg.full_mib << 20);
      const int comp_reps = smoke ? 1 : cfg.reps;
      const int decomp_reps = smoke ? 1 : cfg.reps * 4;
      const Bytes data = mixed_payload(bytes, 2026);
      const std::unique_ptr<compress::Codec> codec =
          cfg.accel ? std::make_unique<compress::Lz4StyleCodec>(
                          cfg.level, /*accelerate=*/true)
                    : compress::make_codec(cfg.name, cfg.level);
      Bytes packed;
      const double comp_s = seconds_of([&] {
        for (int r = 0; r < comp_reps; ++r) {
          packed = codec->compress(data, scratch);
        }
      });
      Bytes back;
      const double decomp_s = seconds_of([&] {
        for (int r = 0; r < decomp_reps; ++r) {
          back = codec->decompress(packed, scratch);
        }
      });
      if (back != data) {
        std::fprintf(stderr, "FAIL: %s kernel round-trip\n", cfg.name);
        return 1;
      }
      const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
      const double comp = mib * comp_reps / comp_s;
      const double decomp = mib * decomp_reps / decomp_s;
      out.add_row({cfg.name, std::to_string(cfg.level), fmt(comp, 1),
                   fmt(comp / cfg.comp_base), fmt(decomp, 1),
                   fmt(decomp / cfg.decomp_base),
                   fmt(static_cast<double>(packed.size()) /
                           static_cast<double>(bytes),
                       3)});
    }
  }

  // --- chunked compression / decompression worker sweep ---------------
  {
    const std::size_t bytes = smoke ? (512ull << 10) : (8ull << 20);
    const Bytes data = mixed_payload(bytes, seed + 1);
    // Pre-overhaul single-thread chunked nlz4 on the reference host:
    // compress 55.3 MiB/s (committed BENCH_datapath.json), decompress
    // 453.1 MiB/s (same payload through the old whole-stream kernel).
    constexpr double kCompBase = 55.3;
    constexpr double kDecompBase = 453.1;
    out.add_section("chunked_compress",
                    {"codec", "mode", "threads", "comp_mib_s",
                     "comp_vs_base", "decomp_mib_s", "decomp_vs_base",
                     "ratio"});
    for (const bool accel : {false, true}) {
      for (const unsigned threads : pool_sizes) {
        const compress::ChunkedCodec codec(compress::CodecId::kLz4Style, 1,
                                           64ull << 10, threads, accel);
        const int comp_reps = accel ? (smoke ? 2 : 8) : 1;
        const int decomp_reps = smoke ? 2 : 8;
        Bytes packed;
        const double comp_s = seconds_of([&] {
          for (int r = 0; r < comp_reps; ++r) {
            packed = codec.compress(data);
          }
        });
        Bytes back;
        const double decomp_s = seconds_of([&] {
          for (int r = 0; r < decomp_reps; ++r) {
            back = codec.decompress(packed);
          }
        });
        if (back != data) {
          std::fprintf(stderr, "FAIL: chunked round-trip\n");
          return 1;
        }
        const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
        out.add_row({"nlz4", accel ? "accel" : "plain",
                     std::to_string(threads),
                     fmt(mib * comp_reps / comp_s, 1),
                     fmt(mib * comp_reps / comp_s / kCompBase),
                     fmt(mib * decomp_reps / decomp_s, 1),
                     fmt(mib * decomp_reps / decomp_s / kDecompBase),
                     fmt(static_cast<double>(packed.size()) /
                             static_cast<double>(bytes),
                         3)});
      }
    }
  }

  // --- multilevel commit / recover across pool sizes ------------------
  {
    const std::uint32_t ranks = 8;
    const std::size_t per_rank = smoke ? (64ull << 10) : (512ull << 10);
    const int commits = smoke ? 2 : 4;
    std::vector<std::vector<std::string>> commit_rows;
    std::vector<std::vector<std::string>> recover_rows;
    struct IoCodec {
      const char* name;
      compress::CodecId id;
    };
    for (const IoCodec io_codec :
         {IoCodec{"null", compress::CodecId::kNull},
          IoCodec{"nlz4", compress::CodecId::kLz4Style}}) {
      double base_s = 0.0;
      for (const unsigned threads : pool_sizes) {
        exec::TaskPool pool(threads);
        ckpt::MultilevelConfig mc;
        mc.node_count = ranks;
        mc.nvm_capacity_bytes = (per_rank + 4096) * (commits + 1);
        mc.partner_every = 1;
        mc.io_every = 1;
        mc.io_codec = io_codec.id;
        mc.io_codec_level =
            io_codec.id == compress::CodecId::kNull ? 0 : 1;
        mc.io_chunk_bytes = 64ull << 10;
        mc.pool = &pool;
        ckpt::MultilevelManager manager(mc);

        std::vector<Bytes> payloads;
        for (std::uint32_t r = 0; r < ranks; ++r) {
          payloads.push_back(mixed_payload(per_rank, seed + 2 + r));
        }
        const std::vector<ByteSpan> views(payloads.begin(),
                                          payloads.end());
        const double commit_s = seconds_of([&] {
          for (int c = 0; c < commits; ++c) (void)manager.commit(views);
        });
        if (threads == 1) base_s = commit_s;
        const double total_gib = static_cast<double>(per_rank) * ranks *
                                 commits / (1024.0 * 1024.0 * 1024.0);
        commit_rows.push_back({io_codec.name, std::to_string(threads),
                               fmt(total_gib / commit_s, 3),
                               fmt(base_s / commit_s)});

        std::optional<ckpt::MultilevelManager::Recovery> recovery;
        const double recover_s =
            seconds_of([&] { recovery = manager.recover(); });
        if (!recovery || recovery->payloads != payloads) {
          std::fprintf(stderr, "FAIL: recover mismatch\n");
          return 1;
        }
        recover_rows.push_back(
            {io_codec.name, std::to_string(threads),
             fmt(static_cast<double>(per_rank) * ranks /
                     (1024.0 * 1024.0 * 1024.0) / recover_s,
                 3)});
      }
    }
    out.add_section("commit",
                    {"codec", "pool_threads", "gib_per_s", "speedup"});
    for (auto& row : commit_rows) out.add_row(std::move(row));
    out.add_section("recover", {"codec", "pool_threads", "gib_per_s"});
    for (auto& row : recover_rows) out.add_row(std::move(row));
  }

  // --- pipelined commit breakdown (docs/PERF.md) ----------------------
  {
    // Per-phase wall cost of one IO-bound commit - serialize (image
    // build + CRC), chunk compression, raw store writes - against the
    // pipelined end-to-end commit, at two image sizes. overlap_ratio is
    // (serialize+compress+write)/pipelined: above 1.0 the stages
    // genuinely overlapped. writer_speedup is the same commit with the
    // async writer off (io_writer_depth 0) vs on - the double-buffering
    // win in isolation; ~1x on a single-core host, honestly.
    const std::uint32_t ranks = 8;
    const int commits = smoke ? 2 : 4;
    const std::vector<std::size_t> image_sizes =
        smoke ? std::vector<std::size_t>{16ull << 10, 64ull << 10}
              : std::vector<std::size_t>{256ull << 10, 1ull << 20};
    out.add_section("commit_pipeline",
                    {"image_kib", "pool_threads", "serialize_s",
                     "compress_s", "write_s", "pipelined_s",
                     "overlap_ratio", "writer_speedup"});
    for (const std::size_t per_rank : image_sizes) {
      for (const unsigned threads : pool_sizes) {
        exec::TaskPool pool(threads);
        std::vector<Bytes> payloads;
        for (std::uint32_t r = 0; r < ranks; ++r) {
          payloads.push_back(mixed_payload(per_rank, seed + 40 + r));
        }
        const std::vector<ByteSpan> views(payloads.begin(),
                                          payloads.end());

        // Phase legs, standalone.
        std::vector<Bytes> images(ranks);
        const double serialize_s = seconds_of([&] {
          for (int c = 0; c < commits; ++c) {
            pool.parallel_for(ranks, [&](std::size_t r) {
              ckpt::CheckpointMeta meta;
              meta.rank = static_cast<std::uint32_t>(r);
              meta.checkpoint_id = static_cast<std::uint64_t>(c) + 1;
              images[r] = ckpt::CheckpointImage::build(meta, views[r]);
            });
          }
        });
        compress::ChunkedCodec codec(compress::CodecId::kLz4Style, 1,
                                     64ull << 10, threads);
        std::vector<Bytes> packed(ranks);
        const double compress_s = seconds_of([&] {
          for (int c = 0; c < commits; ++c) {
            for (std::uint32_t r = 0; r < ranks; ++r) {
              packed[r] = codec.compress(images[r]);
            }
          }
        });
        ckpt::KvStore raw_store;
        const double write_s = seconds_of([&] {
          for (int c = 0; c < commits; ++c) {
            for (std::uint32_t r = 0; r < ranks; ++r) {
              (void)raw_store.put(
                  r, static_cast<std::uint64_t>(c) + 1, Bytes(packed[r]));
            }
          }
        });

        // End-to-end, writer on vs off.
        const auto run_commits = [&](std::size_t writer_depth) {
          ckpt::MultilevelConfig mc;
          mc.node_count = ranks;
          mc.nvm_capacity_bytes = (per_rank + 4096) * (commits + 1);
          mc.partner_every = 0;
          mc.io_every = 1;
          mc.io_codec = compress::CodecId::kLz4Style;
          mc.io_codec_level = 1;
          mc.io_chunk_bytes = 64ull << 10;
          mc.io_writer_depth = writer_depth;
          mc.pool = &pool;
          ckpt::MultilevelManager manager(mc);
          return seconds_of([&] {
            for (int c = 0; c < commits; ++c) (void)manager.commit(views);
          });
        };
        const double pipelined_s = run_commits(2);
        const double serial_s = run_commits(0);
        out.add_row({std::to_string(per_rank >> 10),
                     std::to_string(threads), fmt(serialize_s, 4),
                     fmt(compress_s, 4), fmt(write_s, 4),
                     fmt(pipelined_s, 4),
                     fmt((serialize_s + compress_s + write_s) /
                         pipelined_s),
                     fmt(serial_s / pipelined_s)});
      }
    }
  }

  // --- incremental commit path (docs/DELTA.md) ------------------------
  {
    // A sparse-update workload (each rank rewrites one contiguous ~0.5%
    // region per commit) through the integrated delta-chain + IO-dedup
    // path vs plain full images: commit wall throughput and the bytes
    // that actually reach the IO level. Recovery is verified on every
    // configuration, so the delta rows pay for chain replay too.
    const std::uint32_t ranks = 8;
    const std::size_t per_rank = smoke ? (64ull << 10) : (512ull << 10);
    const int commits = smoke ? 4 : 10;
    std::vector<std::vector<Bytes>> history;
    {
      Rng rng(seed + 500);
      std::vector<Bytes> state;
      for (std::uint32_t r = 0; r < ranks; ++r) {
        state.push_back(mixed_payload(per_rank, seed + 501 + r));
      }
      for (int c = 0; c < commits; ++c) {
        for (auto& p : state) {
          const std::size_t span = per_rank / 200;
          const std::size_t at = rng.next_below(per_rank - span);
          for (std::size_t i = 0; i < span; ++i) {
            p[at + i] = static_cast<std::byte>(rng.next_below(256));
          }
        }
        history.push_back(state);
      }
    }
    out.add_section("delta", {"mode", "pool_threads", "gib_per_s",
                              "io_mib", "io_reduction", "delta_factor",
                              "dedup_hit"});
    double full_io_bytes = 0.0;
    for (const bool incremental : {false, true}) {
      for (const unsigned threads : pool_sizes) {
        exec::TaskPool pool(threads);
        ckpt::MultilevelConfig mc;
        mc.node_count = ranks;
        mc.nvm_capacity_bytes = (per_rank + 4096) * (commits + 1);
        mc.partner_every = 0;
        mc.io_every = 1;
        mc.pool = &pool;
        if (incremental) {
          mc.delta.enabled = true;
          mc.delta.chain_length = commits - 1;
          mc.delta.block_bytes = 4096;
          mc.delta.io_dedup = true;
          mc.delta.cdc = {2048, 4096, 8192};
        }
        ckpt::MultilevelManager manager(mc);
        const double commit_s = seconds_of([&] {
          for (const auto& payloads : history) {
            const std::vector<ByteSpan> views(payloads.begin(),
                                              payloads.end());
            (void)manager.commit(views);
          }
        });
        std::optional<ckpt::MultilevelManager::Recovery> recovery;
        const double recover_s =
            seconds_of([&] { recovery = manager.recover(); });
        (void)recover_s;
        if (!recovery || recovery->payloads != history.back()) {
          std::fprintf(stderr, "FAIL: delta recover mismatch\n");
          return 1;
        }
        const auto& d = manager.data_path();
        const double io_bytes = static_cast<double>(d.io_bytes_written);
        if (!incremental && threads == 1) full_io_bytes = io_bytes;
        const double total_gib = static_cast<double>(per_rank) * ranks *
                                 commits / (1024.0 * 1024.0 * 1024.0);
        out.add_row({incremental ? "delta+dedup" : "full",
                     std::to_string(threads), fmt(total_gib / commit_s, 3),
                     fmt(io_bytes / (1024.0 * 1024.0), 1),
                     full_io_bytes > 0 ? fmt(full_io_bytes / io_bytes, 1)
                                       : "1.0",
                     fmt(d.delta_factor(), 3),
                     fmt(d.dedup_hit_rate(), 3)});
      }
    }
  }

  // --- NDP drain pipeline ---------------------------------------------
  {
    const std::size_t bytes = smoke ? (1ull << 20) : (8ull << 20);
    const Bytes image = mixed_payload(bytes, seed + 99);
    out.add_section("drain", {"mode", "wall_mib_per_s", "virtual_s"});
    for (const bool overlap : {true, false}) {
      // Wall throughput: virtual bandwidths far above real speed, so the
      // pump's cost is the pipeline's actual compression work.
      ckpt::KvStore io;
      ndp::AgentConfig cfg;
      cfg.uncompressed_capacity = bytes * 2;
      cfg.compressed_capacity = bytes * 2;
      cfg.codec = compress::CodecId::kLz4Style;
      cfg.chunk_bytes = 256ull << 10;
      cfg.compress_bw = 1e15;
      cfg.io_bw = 1e15;
      cfg.overlap = overlap;
      ndp::NdpAgent agent(cfg, io);
      if (!agent.host_commit(1, image)) {
        std::fprintf(stderr, "FAIL: host_commit\n");
        return 1;
      }
      const double wall_s = seconds_of([&] { agent.pump(1e9); });

      // Virtual overlap win at paper-like rates (compress 2x the wire).
      ckpt::KvStore io2;
      cfg.compress_bw = 1e6;
      cfg.io_bw = 0.5e6;
      ndp::NdpAgent timed(cfg, io2);
      (void)timed.host_commit(1, image);
      const double virtual_s = timed.pump(1e9);

      out.add_row({overlap ? "overlap" : "serial",
                   fmt(static_cast<double>(bytes) / (1024.0 * 1024.0) /
                           wall_s,
                       1),
                   fmt(virtual_s, 3)});
    }
  }

  // --- observability overhead -----------------------------------------
  {
    const std::uint32_t ranks = 4;
    const std::size_t per_rank = smoke ? (64ull << 10) : (256ull << 10);
    const int commits = smoke ? 4 : 8;
    obs::Tracer tracer;
    auto run_commits = [&](obs::Tracer* trace) {
      exec::TaskPool pool(2);
      ckpt::MultilevelConfig mc;
      mc.node_count = ranks;
      mc.nvm_capacity_bytes = (per_rank + 4096) * (commits + 1);
      mc.partner_every = 1;
      mc.io_every = 1;
      mc.io_codec = compress::CodecId::kLz4Style;
      mc.io_codec_level = 1;
      mc.io_chunk_bytes = 64ull << 10;
      mc.pool = &pool;
      mc.trace = trace;
      ckpt::MultilevelManager manager(mc);
      std::vector<Bytes> payloads;
      for (std::uint32_t r = 0; r < ranks; ++r) {
        payloads.push_back(mixed_payload(per_rank, seed + 200 + r));
      }
      const std::vector<ByteSpan> views(payloads.begin(), payloads.end());
      return seconds_of([&] {
        for (int c = 0; c < commits; ++c) (void)manager.commit(views);
      });
    };
    const double off_s = run_commits(nullptr);
    const double on_s = run_commits(&tracer);
    out.add_section("obs_overhead", {"tracing", "commit_s", "ratio"});
    out.add_row({"off", fmt(off_s, 4), "1.00"});
    out.add_row({"on", fmt(on_s, 4), fmt(on_s / off_s)});
    if (!args.trace.empty()) tracer.write(args.trace);
  }

  // --- equivalence-harness overhead -----------------------------------
  {
    // The same commit loop against plain in-process stores vs stores
    // owned by a recording CrashSimulator: every durable mutation then
    // passes a MutationGate and is logged as a crash point. The ratio is
    // the price a golden run pays over an ungated run.
    const std::uint32_t ranks = 4;
    const std::size_t per_rank = smoke ? (64ull << 10) : (256ull << 10);
    const int commits = smoke ? 4 : 8;
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      payloads.push_back(mixed_payload(per_rank, seed + 300 + r));
    }
    const std::vector<ByteSpan> views(payloads.begin(), payloads.end());
    const std::size_t capacity = (per_rank + 4096) * (commits + 1);
    auto run_commits = [&](faults::CrashSimulator* sim) {
      ckpt::MultilevelConfig mc;
      mc.node_count = ranks;
      mc.nvm_capacity_bytes = capacity;
      mc.partner_every = 1;
      mc.io_every = 1;
      if (sim) sim->attach(mc);
      ckpt::MultilevelManager manager(mc);
      return seconds_of([&] {
        for (int c = 0; c < commits; ++c) {
          if (sim) sim->begin_commit(manager.last_checkpoint_id() + 1);
          (void)manager.commit(views);
        }
      });
    };
    const double plain_s = run_commits(nullptr);
    faults::CrashSimConfig sc;
    sc.node_count = ranks;
    sc.nvm_capacity_bytes = capacity;
    faults::CrashSimulator sim(sc);
    sim.record();
    const double gated_s = run_commits(&sim);
    const std::size_t points = sim.canonical_points().size();
    out.add_section("equiv_overhead",
                    {"stores", "commit_s", "ratio", "crash_points"});
    out.add_row({"plain", fmt(plain_s, 4), "1.00", "0"});
    out.add_row({"recording", fmt(gated_s, 4), fmt(gated_s / plain_s),
                 std::to_string(points)});
  }

  // --- host stall: capture hash, XOR parity, local + XOR commit -------
  {
    const std::uint32_t ranks = 8;
    const std::uint32_t group = 4;
    const std::size_t per_rank = smoke ? (64ull << 10) : (1ull << 20);
    const int reps = smoke ? 3 : 15;
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      payloads.push_back(mixed_payload(per_rank, seed + 40 + r));
    }
    const std::vector<ByteSpan> views(payloads.begin(), payloads.end());
    std::uint64_t sink = 0;

    // Parity of each group of 4, then rank 1 of each group rebuilt.
    std::vector<Bytes> parity(ranks / group);
    const auto encode = [&] {
      for (std::uint32_t g = 0; g < ranks / group; ++g) {
        parity[g] = payloads[g * group];
        for (std::uint32_t r = g * group + 1; r < (g + 1) * group; ++r) {
          ckpt::xor_into(MutableByteSpan(parity[g]), ByteSpan(payloads[r]));
        }
      }
    };
    const auto encode_ref = [&] {
      // The replaced path: zero-padded copies, then a byte loop.
      for (std::uint32_t g = 0; g < ranks / group; ++g) {
        std::vector<Bytes> padded(payloads.begin() + g * group,
                                  payloads.begin() + (g + 1) * group);
        Bytes p(per_rank, std::byte{0});
        for (const Bytes& m : padded) {
          for (std::size_t i = 0; i < p.size(); ++i) p[i] ^= m[i];
        }
        sink += static_cast<std::uint64_t>(p[0]);
      }
    };
    std::vector<Bytes> rebuilt(ranks / group);
    const auto rebuild = [&] {
      for (std::uint32_t g = 0; g < ranks / group; ++g) {
        rebuilt[g] = parity[g];  // recover() owns a fetched parity copy
        for (std::uint32_t r = g * group; r < (g + 1) * group; ++r) {
          if (r != g * group + 1) {
            ckpt::xor_into(MutableByteSpan(rebuilt[g]),
                           ByteSpan(payloads[r]));
          }
        }
      }
    };
    encode();  // the rebuild row reads the parity
    rebuild();
    for (std::uint32_t g = 0; g < ranks / group; ++g) {
      if (rebuilt[g] != payloads[g * group + 1]) {
        std::fprintf(stderr, "FAIL: xor rebuild mismatch\n");
        return 1;
      }
    }

    exec::TaskPool one(1);
    const auto make_manager = [&](bool verify) {
      ckpt::MultilevelConfig mc;
      mc.node_count = ranks;
      mc.nvm_capacity_bytes = (per_rank + 4096) * 4;
      mc.partner_every = 1;
      mc.partner_scheme = ckpt::PartnerScheme::kXorGroup;
      mc.xor_group_size = group;
      mc.verify_writes = verify;
      mc.pool = &one;
      return std::make_unique<ckpt::MultilevelManager>(mc);
    };
    const auto verified = make_manager(true);
    const auto unverified = make_manager(false);

    const std::vector<std::pair<std::string, std::function<void()>>> rows = {
        {"capture_hash",
         [&] {
           for (const Bytes& p : payloads) sink += delta::block_hash(p);
         }},
        {"capture_hash_ref",
         [&] {
           for (const Bytes& p : payloads) sink += fnv1a(p);
         }},
        {"xor_encode", encode},
        {"xor_encode_ref", encode_ref},
        {"xor_rebuild", rebuild},
        {"commit_local_xor_verify", [&] { (void)verified->commit(views); }},
        {"commit_local_xor", [&] { (void)unverified->commit(views); }},
    };
    std::vector<std::function<void()>> fns;
    for (const auto& row : rows) fns.push_back(row.second);
    const std::vector<bench::Timing> t = bench::measure_interleaved(reps, fns);
    const double gib =
        static_cast<double>(per_rank) * ranks / (1024.0 * 1024.0 * 1024.0);
    out.add_section("host_stall", {"row", "median_ms", "min_ms", "iqr_ms",
                                   "gib_per_s", "reps"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out.add_row({rows[i].first, fmt(t[i].median * 1e3, 3),
                   fmt(t[i].min * 1e3, 3), fmt(t[i].iqr * 1e3, 3),
                   fmt(gib / t[i].median, 2), std::to_string(reps)});
    }
    if (sink == 42) std::fprintf(stderr, "\n");  // keep the hashes live
  }

  out.finish();
  return 0;
}
