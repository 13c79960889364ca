// Microbenchmark for the parallel checkpoint data path (docs/PERF.md):
//
//   crc32             slicing-by-8 vs a byte-at-a-time reference
//   codec_kernels     whole-payload compress/decompress throughput for
//                     every registered codec, with ratio and vs-baseline
//                     columns against the pre-overhaul kernels, plus nlz4
//                     on proxy-kernel captures (the incompressible images
//                     a checkpoint service's tenants write)
//   chunked_compress  ChunkedCodec across TaskPool sizes, plain and
//                     accelerated: one container per pool task over eight
//                     slices of one payload (the commit path's per-rank
//                     schedule), and each decompressed on the pool
//   commit / recover  MultilevelManager wall throughput across pool sizes;
//                     commit rows carry the minor page faults per commit
//   drain             NdpAgent chunk pipeline: wall time of pumping
//                     staged drains at unbounded virtual bandwidth (one
//                     agent overlapped and serial, plus campaign_ndp's
//                     eight agents on one thread), with the virtual-time
//                     overlap win at paper-like bandwidths
//
// Every configuration produces the same bytes (thread-invariance is
// pinned by the test suite); this harness measures only wall time. On a
// single-core host the pool sweeps show ~1x - the speedup column is
// honest, not modelled.
//
//   obs_overhead      the same commit loop with tracing off vs on: the
//                     off row is the <1% disabled-cost budget of
//                     docs/OBSERVABILITY.md, the on row's ratio (its
//                     median over the off row's) the real price
//
//   equiv_overhead    the same commit loop against plain stores vs a
//                     recording CrashSimulator (docs/EQUIVALENCE.md):
//                     what the crash-point gates cost the data path
//
//   host_stall        the host's checkpoint critical path at 8 x 1 MiB on
//                     one thread: the region capture, XOR parity encode
//                     and rebuild, and a local + XOR commit with and
//                     without write verify. Each row is the median of
//                     interleaved repeats with its min and IQR, plus its
//                     median minor page faults per call; the `_ref` row
//                     re-runs the byte-serial padded-copy XOR the encode
//                     replaced on the same bytes
//
// codec_kernels, chunked_compress, commit, recover, drain, obs_overhead
// and host_stall time each row as the median of interleaved repeats and
// carry its min and IQR (median_*/min_*/iqr_* columns; tools/bench_diff
// treats a median move inside the IQR as noise); commit, recover, drain
// and obs_overhead rows also carry the median process CPU ms. The other
// sections time each row once.
// The JSON meta records the host (bench::BenchReport::stamp_host).
//
//   --smoke 1     tiny sizes (CI); also the `perf` ctest label
//   --csv PATH    structured output (default BENCH_datapath.json)
//   --trace PATH  write the traced commit loop's Chrome trace JSON

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/multilevel.hpp"
#include "ckpt/nvm_store.hpp"
#include "ckpt/region.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "compress/lz4_style.hpp"
#include "exec/task_pool.hpp"
#include "faults/crash.hpp"
#include "ndp/agent.hpp"
#include "obs/trace.hpp"
#include "workloads/proxy_kernels.hpp"

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

// Appends the median/min/IQR cells of one interleaved row, in ms.
void add_timing_cells(std::vector<std::string>& row, const bench::Timing& t) {
  row.push_back(fmt(t.median * 1e3, 3));
  row.push_back(fmt(t.min * 1e3, 3));
  row.push_back(fmt(t.iqr * 1e3, 3));
}

// `count` proxy-kernel captures of `bytes` each, after eight solver steps
// (cg/mg/ft in turn): the nearly incompressible float state that a
// checkpoint service's tenants commit.
std::vector<Bytes> kernel_captures(std::size_t count, std::size_t bytes,
                                   std::uint64_t seed) {
  const auto& names = workloads::proxy_kernel_names();
  std::vector<Bytes> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto kernel =
        workloads::make_proxy_kernel(names[i % names.size()], bytes, seed + i);
    for (int step = 0; step < 8; ++step) kernel->iterate();
    out.push_back(kernel->registry().capture());
  }
  return out;
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

// The commit path's compression schedule: one container per pool task
// (a rank's stream each), every one written in place by compress().
std::vector<Bytes> pool_compress(const compress::ChunkedCodec& codec,
                                 const std::vector<ByteSpan>& inputs,
                                 exec::TaskPool& pool) {
  return pool.parallel_map(inputs.size(), [&](std::size_t i) {
    return codec.compress(inputs[i]);
  });
}

// This process's minor page faults so far (getrusage).
std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

// `fn`, recording the minor page faults of every call into `samples`.
std::function<void()> counting_faults(std::function<void()> fn,
                                      std::vector<double>& samples) {
  return [fn = std::move(fn), &samples] {
    const std::uint64_t before = minor_faults();
    fn();
    samples.push_back(static_cast<double>(minor_faults() - before));
  };
}

std::string median_of(std::vector<double> samples) {
  if (samples.empty()) return "-";
  std::sort(samples.begin(), samples.end());
  return fmt(samples[samples.size() / 2], 0);
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
  out.stamp_host();

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
    // full run stays interactive. The `-kernels` rows compress proxy-kernel
    // captures one image at a time instead and have no baseline.
    struct KernelCfg {
      const char* name;
      const char* codec;
      int level;
      bool accel;
      std::size_t full_mib;  // 0: proxy-kernel captures
      double comp_base;      // pre-overhaul MiB/s, reference host
      double decomp_base;
    };
    const std::vector<KernelCfg> cfgs = {
        {"null", "null", 0, false, 8, 694.0, 1136.1},
        {"rle", "rle", 0, false, 8, 218.7, 560.6},
        {"nlz4", "nlz4", 1, false, 8, 49.0, 664.4},
        {"nlz4-accel", "nlz4", 1, true, 8, 49.0, 664.4},
        {"ngzip", "ngzip", 6, false, 2, 31.8, 120.5},
        {"nbzip2", "nbzip2", 9, false, 1, 6.0, 19.5},
        {"nxz", "nxz", 1, false, 1, 3.6, 16.6},
        {"nlz4-kernels", "nlz4", 1, false, 0, 0.0, 0.0},
        {"nlz4-accel-kernels", "nlz4", 1, true, 0, 0.0, 0.0},
    };
    const int reps = smoke ? 2 : 7;
    const std::vector<Bytes> captures =
        kernel_captures(smoke ? 2 : 8, 192ull << 10, seed);
    struct Leg {
      std::unique_ptr<compress::Codec> codec;
      std::vector<Bytes> inputs;
      std::vector<Bytes> packed;
      std::vector<Bytes> back;
      std::size_t bytes = 0;
    };
    std::vector<Leg> legs(cfgs.size());
    std::vector<std::function<void()>> comp_fns;
    std::vector<std::function<void()>> decomp_fns;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const KernelCfg& cfg = cfgs[i];
      Leg& leg = legs[i];
      leg.codec = cfg.accel ? std::make_unique<compress::Lz4StyleCodec>(
                                  cfg.level, /*accelerate=*/true)
                            : compress::make_codec(cfg.codec, cfg.level);
      if (cfg.full_mib == 0) {
        leg.inputs = captures;
      } else {
        leg.inputs.push_back(
            mixed_payload(smoke ? (256ull << 10) : (cfg.full_mib << 20),
                          2026));
      }
      for (const Bytes& in : leg.inputs) leg.bytes += in.size();
      leg.packed.resize(leg.inputs.size());
      leg.back.resize(leg.inputs.size());
      comp_fns.push_back([&leg] {
        for (std::size_t k = 0; k < leg.inputs.size(); ++k) {
          leg.packed[k] = leg.codec->compress(leg.inputs[k]);
        }
      });
      decomp_fns.push_back([&leg] {
        for (std::size_t k = 0; k < leg.inputs.size(); ++k) {
          leg.back[k] = leg.codec->decompress(leg.packed[k]);
        }
      });
    }
    const std::vector<bench::Timing> comp_t =
        bench::measure_interleaved(reps, comp_fns);
    const std::vector<bench::Timing> decomp_t =
        bench::measure_interleaved(reps, decomp_fns);
    out.add_section("codec_kernels",
                    {"codec", "level", "comp_mib_s", "comp_vs_base",
                     "decomp_mib_s", "decomp_vs_base", "ratio",
                     "median_comp_ms", "min_comp_ms", "iqr_comp_ms",
                     "median_decomp_ms", "min_decomp_ms", "iqr_decomp_ms",
                     "reps"});
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const KernelCfg& cfg = cfgs[i];
      const Leg& leg = legs[i];
      if (leg.back != leg.inputs) {
        std::fprintf(stderr, "FAIL: %s kernel round-trip\n", cfg.name);
        return 1;
      }
      std::size_t packed_bytes = 0;
      for (const Bytes& p : leg.packed) packed_bytes += p.size();
      const double mib = static_cast<double>(leg.bytes) / (1024.0 * 1024.0);
      const double comp = mib / comp_t[i].median;
      const double decomp = mib / decomp_t[i].median;
      const auto vs_base = [](double v, double base) {
        return base > 0.0 ? fmt(v / base) : std::string("-");
      };
      std::vector<std::string> row = {
          cfg.name, std::to_string(cfg.level), fmt(comp, 1),
          vs_base(comp, cfg.comp_base), fmt(decomp, 1),
          vs_base(decomp, cfg.decomp_base),
          fmt(static_cast<double>(packed_bytes) /
                  static_cast<double>(leg.bytes),
              3)};
      add_timing_cells(row, comp_t[i]);
      add_timing_cells(row, decomp_t[i]);
      row.push_back(std::to_string(reps));
      out.add_row(std::move(row));
    }
  }

  // --- chunked compression / decompression worker sweep ---------------
  {
    const std::size_t bytes = smoke ? (512ull << 10) : (8ull << 20);
    const Bytes data = mixed_payload(bytes, seed + 1);
    constexpr std::size_t kSlices = 8;  // one container per "rank"
    std::vector<ByteSpan> slices;
    for (std::size_t i = 0; i < kSlices; ++i) {
      slices.push_back(
          ByteSpan(data).subspan(i * bytes / kSlices, bytes / kSlices));
    }
    // Pre-overhaul single-thread chunked nlz4 on the reference host:
    // compress 55.3 MiB/s (committed BENCH_datapath.json), decompress
    // 453.1 MiB/s (same payload through the old whole-stream kernel).
    constexpr double kCompBase = 55.3;
    constexpr double kDecompBase = 453.1;
    const int reps = smoke ? 2 : 7;
    struct Cfg {
      bool accel;
      unsigned threads;
      std::unique_ptr<compress::ChunkedCodec> codec;
      std::unique_ptr<exec::TaskPool> pool;
      std::vector<Bytes> packed;
      std::vector<Bytes> back;
    };
    std::vector<Cfg> cfgs;
    for (const bool accel : {false, true}) {
      for (const unsigned threads : pool_sizes) {
        cfgs.push_back({accel, threads,
                        std::make_unique<compress::ChunkedCodec>(
                            compress::CodecId::kLz4Style, 1, 64ull << 10,
                            threads, accel),
                        std::make_unique<exec::TaskPool>(threads),
                        {}, {}});
      }
    }
    std::vector<std::function<void()>> comp_fns;
    std::vector<std::function<void()>> decomp_fns;
    for (Cfg& cfg : cfgs) {
      comp_fns.push_back([&cfg, &slices] {
        cfg.packed = pool_compress(*cfg.codec, slices, *cfg.pool);
      });
      decomp_fns.push_back([&cfg] {
        cfg.back.resize(cfg.packed.size());
        for (std::size_t i = 0; i < cfg.packed.size(); ++i) {
          cfg.back[i] = cfg.codec->decompress(cfg.packed[i], cfg.pool.get());
        }
      });
    }
    const std::vector<bench::Timing> comp_t =
        bench::measure_interleaved(reps, comp_fns);
    const std::vector<bench::Timing> decomp_t =
        bench::measure_interleaved(reps, decomp_fns);
    out.add_section("chunked_compress",
                    {"codec", "mode", "threads", "comp_mib_s",
                     "comp_vs_base", "decomp_mib_s", "decomp_vs_base",
                     "ratio", "median_comp_ms", "min_comp_ms", "iqr_comp_ms",
                     "median_decomp_ms", "min_decomp_ms", "iqr_decomp_ms",
                     "reps"});
    const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const Cfg& cfg = cfgs[i];
      std::size_t packed_bytes = 0;
      for (std::size_t k = 0; k < kSlices; ++k) {
        packed_bytes += cfg.packed[k].size();
        if (!std::equal(cfg.back[k].begin(), cfg.back[k].end(),
                        slices[k].begin(), slices[k].end())) {
          std::fprintf(stderr, "FAIL: chunked round-trip\n");
          return 1;
        }
      }
      const double comp = mib / comp_t[i].median;
      const double decomp = mib / decomp_t[i].median;
      std::vector<std::string> row = {
          "nlz4", cfg.accel ? "accel" : "plain", std::to_string(cfg.threads),
          fmt(comp, 1), fmt(comp / kCompBase), fmt(decomp, 1),
          fmt(decomp / kDecompBase),
          fmt(static_cast<double>(packed_bytes) / static_cast<double>(bytes),
              3)};
      add_timing_cells(row, comp_t[i]);
      add_timing_cells(row, decomp_t[i]);
      row.push_back(std::to_string(reps));
      out.add_row(std::move(row));
    }
  }

  // --- multilevel commit / recover across pool sizes ------------------
  {
    // At each pool size the null- and nlz4-IO managers commit in
    // interleaved repeats (one full commit per sample), then recover in
    // interleaved repeats. One manager serves every sample, so after the
    // first two commits its stores hold only the generations retention
    // keeps and each commit writes into recycled buffers - the steady
    // state of a long run.
    const std::uint32_t ranks = 8;
    const std::size_t per_rank = smoke ? (64ull << 10) : (512ull << 10);
    const int reps = smoke ? 2 : 9;
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      payloads.push_back(mixed_payload(per_rank, seed + 2 + r));
    }
    const std::vector<ByteSpan> views(payloads.begin(), payloads.end());
    const std::vector<std::pair<const char*, compress::CodecId>> io_codecs =
        {{"null", compress::CodecId::kNull},
         {"nlz4", compress::CodecId::kLz4Style}};
    std::vector<std::vector<std::vector<std::string>>> commit_rows(
        io_codecs.size());
    std::vector<std::vector<std::vector<std::string>>> recover_rows(
        io_codecs.size());
    std::vector<double> base_s(io_codecs.size(), 0.0);
    const double total_gib =
        static_cast<double>(per_rank) * ranks / (1024.0 * 1024.0 * 1024.0);
    for (const unsigned threads : pool_sizes) {
      exec::TaskPool pool(threads);
      std::vector<std::unique_ptr<ckpt::MultilevelManager>> managers;
      std::vector<std::function<void()>> fns;
      std::vector<std::vector<double>> faults(io_codecs.size());
      for (const auto& [name, id] : io_codecs) {
        ckpt::MultilevelConfig mc;
        mc.node_count = ranks;
        mc.nvm_capacity_bytes = (per_rank + 4096) * 5;
        mc.partner_every = 1;
        mc.io_every = 1;
        mc.io_codec = id;
        mc.io_codec_level = id == compress::CodecId::kNull ? 0 : 1;
        mc.io_chunk_bytes = 64ull << 10;
        mc.pool = &pool;
        managers.push_back(std::make_unique<ckpt::MultilevelManager>(mc));
        fns.push_back(counting_faults(
            [m = managers.back().get(), &views] { (void)m->commit(views); },
            faults[fns.size()]));
      }
      const std::vector<bench::Timing> t =
          bench::measure_interleaved(reps, fns);
      std::vector<std::optional<ckpt::MultilevelManager::Recovery>>
          recovery(io_codecs.size());
      std::vector<std::function<void()>> recover_fns;
      for (std::size_t c = 0; c < io_codecs.size(); ++c) {
        recover_fns.push_back(
            [&, c] { recovery[c] = managers[c]->recover(); });
      }
      const std::vector<bench::Timing> rt =
          bench::measure_interleaved(reps, recover_fns);
      for (std::size_t c = 0; c < io_codecs.size(); ++c) {
        if (threads == 1) base_s[c] = t[c].median;
        std::vector<std::string> row = {
            io_codecs[c].first, std::to_string(threads),
            fmt(total_gib / t[c].median, 3), fmt(base_s[c] / t[c].median)};
        add_timing_cells(row, t[c]);
        row.push_back(fmt(t[c].cpu * 1e3, 3));
        row.push_back(median_of(faults[c]));
        row.push_back(std::to_string(reps));
        commit_rows[c].push_back(std::move(row));

        if (!recovery[c] || recovery[c]->payloads != payloads) {
          std::fprintf(stderr, "FAIL: recover mismatch\n");
          return 1;
        }
        std::vector<std::string> rrow = {io_codecs[c].first,
                                         std::to_string(threads),
                                         fmt(total_gib / rt[c].median, 3)};
        add_timing_cells(rrow, rt[c]);
        rrow.push_back(fmt(rt[c].cpu * 1e3, 3));
        rrow.push_back(std::to_string(reps));
        recover_rows[c].push_back(std::move(rrow));
      }
    }
    out.add_section("commit", {"codec", "pool_threads", "gib_per_s",
                               "speedup", "median_ms", "min_ms", "iqr_ms",
                               "cpu_ms", "minflt", "reps"});
    for (auto& rows : commit_rows) {
      for (auto& row : rows) out.add_row(std::move(row));
    }
    out.add_section("recover", {"codec", "pool_threads", "gib_per_s",
                                "median_ms", "min_ms", "iqr_ms", "cpu_ms",
                                "reps"});
    for (auto& rows : recover_rows) {
      for (auto& row : rows) out.add_row(std::move(row));
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
    // Wall time of pumping staged drains to completion at virtual
    // bandwidths far above real speed, so the pump's cost is the
    // pipeline's actual compression work. Each sample stages fresh agents
    // untimed, then times the pump. `overlap`/`serial`: one nlz4 agent
    // draining one image. `ndp8`: campaign_ndp's shape, eight
    // default-config (ngzip-1) agents with a 1 MiB proxy-kernel capture
    // each, pumped round-robin on one thread in 1 ms virtual slices.
    const std::size_t bytes = smoke ? (1ull << 20) : (8ull << 20);
    const Bytes image = mixed_payload(bytes, seed + 99);
    const std::vector<Bytes> captures =
        kernel_captures(8, smoke ? (256ull << 10) : (1ull << 20), seed + 98);
    const int reps = smoke ? 2 : 9;
    // An agent draining its node's NVM, where `image` was committed as
    // checkpoint 1 (the composition every NDP configuration uses).
    const auto agent_over = [](const ndp::AgentConfig& cfg, ckpt::KvStore& io,
                               std::size_t nvm_bytes, const Bytes& image) {
      auto nvm = std::make_shared<ckpt::NvmStore>(nvm_bytes);
      if (!nvm->put(1, Bytes(image))) {
        throw std::runtime_error("drain: image exceeds the node NVM");
      }
      auto agent = std::make_unique<ndp::NdpAgent>(cfg, io, std::move(nvm));
      agent->local_committed(1);
      return agent;
    };
    struct Row {
      const char* mode;
      ndp::AgentConfig cfg;
      std::size_t nvm_bytes = 64ull << 20;  // each agent's node NVM
      std::vector<Bytes> images;
      std::unique_ptr<ckpt::KvStore> io;  // outlives the agents' drains
      std::vector<std::unique_ptr<ndp::NdpAgent>> agents;
      std::size_t bytes = 0;
    };
    std::vector<Row> rows(3);
    for (Row& row : rows) {
      row.cfg.compress_bw = 1e15;
      row.cfg.io_bw = 1e15;
    }
    for (std::size_t i = 0; i < 2; ++i) {
      Row& row = rows[i];
      row.mode = i == 0 ? "overlap" : "serial";
      row.nvm_bytes = bytes * 2;
      row.cfg.compressed_capacity = bytes * 2;
      row.cfg.codec = compress::CodecId::kLz4Style;
      row.cfg.chunk_bytes = 256ull << 10;
      row.cfg.overlap = i == 0;
      row.images = {image};
    }
    rows[2].mode = "ndp8";
    rows[2].images = captures;
    std::vector<std::function<void()>> stage_fns;
    std::vector<std::function<void()>> pump_fns;
    std::vector<std::vector<double>> faults(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      Row& row = rows[i];
      for (const Bytes& b : row.images) row.bytes += b.size();
      stage_fns.push_back([&row, &agent_over] {
        row.agents.clear();
        row.io = std::make_unique<ckpt::KvStore>();
        for (std::uint32_t r = 0; r < row.images.size(); ++r) {
          ndp::AgentConfig cfg = row.cfg;
          cfg.rank = r;
          row.agents.push_back(
              agent_over(cfg, *row.io, row.nvm_bytes, row.images[r]));
        }
      });
      pump_fns.push_back(counting_faults(
          [&row] {
            for (bool busy = true; busy;) {
              busy = false;
              for (const auto& agent : row.agents) {
                busy = agent->pump(1e-3) > 0.0 || busy;
              }
            }
          },
          faults[i]));
    }
    const std::vector<bench::Timing> t =
        bench::measure_interleaved(reps, pump_fns, stage_fns);
    out.add_section("drain", {"mode", "agents", "wall_mib_per_s", "median_ms",
                              "min_ms", "iqr_ms", "cpu_ms", "minflt",
                              "virtual_s", "reps"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      Row& row = rows[i];
      for (std::uint32_t r = 0; r < row.images.size(); ++r) {
        const auto stored = row.io->get(r, 1);
        if (!stored.ok() ||
            row.agents[r]->decode_io(*stored) != row.images[r]) {
          std::fprintf(stderr, "FAIL: %s drain round-trip\n", row.mode);
          return 1;
        }
      }
      // Virtual overlap win at paper-like rates (compress 2x the wire).
      std::string virtual_s = "-";
      if (row.images.size() == 1) {
        ckpt::KvStore io;
        ndp::AgentConfig cfg = row.cfg;
        cfg.compress_bw = 1e6;
        cfg.io_bw = 0.5e6;
        virtual_s =
            fmt(agent_over(cfg, io, row.nvm_bytes, image)->pump(1e9), 3);
      }
      std::vector<std::string> cells = {
          row.mode, std::to_string(row.images.size()),
          fmt(static_cast<double>(row.bytes) / (1024.0 * 1024.0) /
                  t[i].median,
              1)};
      add_timing_cells(cells, t[i]);
      cells.push_back(fmt(t[i].cpu * 1e3, 3));
      cells.push_back(median_of(faults[i]));
      cells.push_back(virtual_s);
      cells.push_back(std::to_string(reps));
      out.add_row(std::move(cells));
    }
  }

  // --- observability overhead -----------------------------------------
  {
    // The same commit loop on a fresh manager, untraced and traced, as
    // interleaved repeats: the off row is the disabled-cost budget, the
    // on row's ratio the price of tracing. Each repeat builds its manager
    // (and tracer) untimed, so only the commits are timed.
    const std::uint32_t ranks = 4;
    const std::size_t per_rank = smoke ? (64ull << 10) : (256ull << 10);
    const int commits = smoke ? 4 : 8;
    const int reps = smoke ? 3 : 9;
    std::vector<Bytes> payloads;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      payloads.push_back(mixed_payload(per_rank, seed + 200 + r));
    }
    const std::vector<ByteSpan> views(payloads.begin(), payloads.end());
    exec::TaskPool pool(2);
    std::optional<obs::Tracer> tracer;  // the last traced repeat's events
    std::unique_ptr<ckpt::MultilevelManager> manager;
    const auto stage = [&](bool traced) {
      return [&, traced] {
        manager.reset();
        if (traced) tracer.emplace();
        ckpt::MultilevelConfig mc;
        mc.node_count = ranks;
        mc.nvm_capacity_bytes = (per_rank + 4096) * (commits + 1);
        mc.partner_every = 1;
        mc.io_every = 1;
        mc.io_codec = compress::CodecId::kLz4Style;
        mc.io_codec_level = 1;
        mc.io_chunk_bytes = 64ull << 10;
        mc.pool = &pool;
        mc.trace = traced ? &*tracer : nullptr;
        manager = std::make_unique<ckpt::MultilevelManager>(mc);
      };
    };
    const auto run_commits = [&] {
      for (int c = 0; c < commits; ++c) (void)manager->commit(views);
    };
    const std::vector<bench::Timing> t = bench::measure_interleaved(
        reps, {run_commits, run_commits}, {stage(false), stage(true)});
    manager.reset();
    out.add_section("obs_overhead", {"tracing", "median_ms", "min_ms",
                                     "iqr_ms", "cpu_ms", "ratio", "reps"});
    for (std::size_t i = 0; i < t.size(); ++i) {
      std::vector<std::string> cells = {i == 0 ? "off" : "on"};
      add_timing_cells(cells, t[i]);
      cells.push_back(fmt(t[i].cpu * 1e3, 3));
      cells.push_back(fmt(t[i].median / t[0].median));
      cells.push_back(std::to_string(reps));
      out.add_row(std::move(cells));
    }
    if (!args.trace.empty()) tracer->write(args.trace);
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

  // --- host stall: capture, XOR parity, local + XOR commit ------------
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

    // The payloads double as an application's 8 registered regions.
    ckpt::RegionRegistry registry;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      registry.register_vector("rank" + std::to_string(r), payloads[r]);
    }

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
        {"capture", [&] { sink += registry.capture().size(); }},
        {"xor_encode", encode},
        {"xor_encode_ref", encode_ref},
        {"xor_rebuild", rebuild},
        {"commit_local_xor_verify", [&] { (void)verified->commit(views); }},
        {"commit_local_xor", [&] { (void)unverified->commit(views); }},
    };
    std::vector<std::function<void()>> fns;
    std::vector<std::vector<double>> faults(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      fns.push_back(counting_faults(rows[i].second, faults[i]));
    }
    const std::vector<bench::Timing> t = bench::measure_interleaved(reps, fns);
    const double gib =
        static_cast<double>(per_rank) * ranks / (1024.0 * 1024.0 * 1024.0);
    out.add_section("host_stall", {"row", "median_ms", "min_ms", "iqr_ms",
                                   "gib_per_s", "minflt", "reps"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out.add_row({rows[i].first, fmt(t[i].median * 1e3, 3),
                   fmt(t[i].min * 1e3, 3), fmt(t[i].iqr * 1e3, 3),
                   fmt(gib / t[i].median, 2), median_of(faults[i]),
                   std::to_string(reps)});
    }
    if (sink == 42) std::fprintf(stderr, "\n");  // keep the results live
  }

  out.finish();
  return 0;
}
