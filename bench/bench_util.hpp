#pragma once

// Shared helpers for the figure-reproduction harnesses: the common
// command-line surface (--trials/--seed/--threads/--csv), a stopwatch for
// run metadata, and re-exports of the breakdown table rows that now live
// in common/breakdown_table.hpp (kept here so harnesses keep writing
// bench::breakdown_row).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/breakdown_table.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "exec/reporter.hpp"
#include "exec/task_pool.hpp"

namespace ndpcr::bench {

using table::breakdown_header;
using table::breakdown_row;
using table::normalized_header;
using table::normalized_row;

// The engine flags every figure binary understands:
//   --trials N    Monte-Carlo trials per point (harness default if absent)
//   --seed S      base RNG seed
//   --threads T   engine threads (0/absent = NDPCR_THREADS or hardware)
//   --csv PATH    write the Reporter's structured output ("-" = stdout;
//                 a .json suffix selects JSON, anything else CSV)
//   --trace PATH  harnesses that support tracing write a Chrome-trace
//                 JSON here (docs/OBSERVABILITY.md); ignored elsewhere
//   --metrics PATH  likewise for a metrics snapshot (Reporter semantics)
// Unknown "--key value" pairs are collected for harness-specific options
// (e.g. table2's --bytes-per-app).
struct BenchArgs {
  int trials = 0;  // 0 = keep the harness default
  std::uint64_t seed = 0;
  bool has_seed = false;
  unsigned threads = 0;
  std::string csv;
  std::string trace;
  std::string metrics;
  std::map<std::string, std::string> extra;

  // Parses argv; on --help (or a stray non-flag token) prints usage and
  // returns false. Applies --threads to the global engine pool.
  bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "--help" || key == "-h" || key.rfind("--", 0) != 0 ||
          i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--trials N] [--seed S] [--threads T] "
                     "[--csv PATH] [--trace PATH] [--metrics PATH] "
                     "[--<harness-option> VALUE ...]\n",
                     argv[0]);
        return false;
      }
      const std::string value = argv[++i];
      if (key == "--trials") {
        trials = std::atoi(value.c_str());
      } else if (key == "--seed") {
        seed = std::strtoull(value.c_str(), nullptr, 0);
        has_seed = true;
      } else if (key == "--threads") {
        threads = static_cast<unsigned>(std::strtoul(value.c_str(),
                                                     nullptr, 10));
      } else if (key == "--csv") {
        csv = value;
      } else if (key == "--trace") {
        trace = value;
      } else if (key == "--metrics") {
        metrics = value;
      } else {
        extra[key.substr(2)] = value;
      }
    }
    if (threads > 0) exec::set_global_threads(threads);
    return true;
  }

  [[nodiscard]] int trials_or(int fallback) const {
    return trials > 0 ? trials : fallback;
  }
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    return has_seed ? seed : fallback;
  }
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = extra.find(key);
    return it == extra.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
  }
};

// Time summary of one measured row: the median, fastest and
// interquartile spread of its wall time, and the median process CPU
// time (all threads), over its repeats, in seconds. CPU well above wall
// means the pool ran in parallel; well below, the host took the core.
struct Timing {
  double median = 0.0;
  double min = 0.0;
  double iqr = 0.0;
  double cpu = 0.0;
};

// Process CPU seconds consumed so far, summed over every thread.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Time every row `reps` times, interleaved (round r runs row 0, 1, ...
// before round r + 1), so a drift in the shared host's speed spreads
// over all rows instead of landing on whichever ran last. Returns one
// Timing per row. `prepare`, when given, holds one untimed step per row
// that runs right before each timed call (e.g. staging a fresh image).
inline std::vector<Timing> measure_interleaved(
    int reps, const std::vector<std::function<void()>>& rows,
    const std::vector<std::function<void()>>& prepare = {}) {
  std::vector<std::vector<double>> walls(rows.size());
  std::vector<std::vector<double>> cpus(rows.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i < prepare.size() && prepare[i]) prepare[i]();
      const double c0 = process_cpu_seconds();
      const auto t0 = std::chrono::steady_clock::now();
      rows[i]();
      walls[i].push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
      cpus[i].push_back(process_cpu_seconds() - c0);
    }
  }
  const auto at = [](const std::vector<double>& s, double q) {
    return s[static_cast<std::size_t>(q * static_cast<double>(s.size() - 1) +
                                      0.5)];
  };
  std::vector<Timing> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::vector<double>& w = walls[i];
    std::vector<double>& c = cpus[i];
    std::sort(w.begin(), w.end());
    std::sort(c.begin(), c.end());
    out.push_back({at(w, 0.5), w.front(), at(w, 0.75) - at(w, 0.25),
                   at(c, 0.5)});
  }
  return out;
}

// The CPU model name the kernel reports, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const std::size_t start = line.find_first_not_of(' ', colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

// Effective parallelism right now: a fixed integer spin timed on one
// thread, then on `threads` threads at once, best of three each, as
// threads * t1 / tN. It reads `threads` on an idle host and less while
// other tenants hold cores; a multi-thread speedup measured when it reads
// well below the pool size shows the host, not the code.
inline double parallelism_probe(unsigned threads) {
  const auto spin = [] {
    std::uint64_t x = 1;
    for (std::uint32_t i = 0; i < (1u << 23); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    asm volatile("" : : "r"(x));  // keep the loop
  };
  const auto best_of_three = [&](unsigned n) {
    double best = 1e300;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> others;
      for (unsigned t = 1; t < n; ++t) others.emplace_back(spin);
      spin();
      for (std::thread& t : others) t.join();
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    return best;
  };
  const double one = best_of_three(1);
  return static_cast<double>(threads) * one / best_of_three(threads);
}

// A Reporter pre-stamped with the run metadata, plus the finish() step
// that prints the ASCII tables and writes the structured form.
class BenchReport {
 public:
  BenchReport(std::string bench_name, const BenchArgs& args,
              std::uint64_t seed, int trials, std::string config)
      : reporter_({std::move(bench_name), seed, trials,
                   exec::global_pool().thread_count(), std::move(config)}),
        csv_(args.csv),
        start_(std::chrono::steady_clock::now()) {}

  exec::Reporter& reporter() { return reporter_; }
  void add_section(std::string name, std::vector<std::string> header) {
    reporter_.add_section(std::move(name), std::move(header));
  }
  void add_row(std::vector<std::string> cells) {
    reporter_.add_row(std::move(cells));
  }

  // Record the host in the report's meta: CPU model, online CPUs, the ISA
  // extensions the kernels dispatch on (AVX-512F for the failure DES and
  // batch RNG, VPCLMULQDQ for CRC-32) plus GFNI, and parallelism_probe()
  // over every online CPU. Takes about 0.2 s; call it before measuring.
  void stamp_host() {
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    char tail[192];
    std::snprintf(tail, sizeof tail,
                  ",\"nproc\":%u,\"avx512f\":%d,\"vpclmulqdq\":%d,"
                  "\"gfni\":%d,\"parallelism\":%.2f}",
                  nproc, __builtin_cpu_supports("avx512f") ? 1 : 0,
                  __builtin_cpu_supports("vpclmulqdq") ? 1 : 0,
                  __builtin_cpu_supports("gfni") ? 1 : 0,
                  parallelism_probe(nproc));
    reporter_.set_host("{\"cpu\":" + json_escape(cpu_model()) + tail);
  }

  // Print every section as the classic fixed-width tables and, when
  // --csv was given, emit the structured rows as well. An unwritable
  // --csv path must not abort the process after a long run: the ASCII
  // output above already reached the user, so report and exit cleanly.
  void finish() {
    reporter_.set_wall_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count());
    std::fputs(reporter_.ascii().c_str(), stdout);
    if (csv_.empty()) return;
    try {
      reporter_.write(csv_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(1);
    }
  }

 private:
  exec::Reporter reporter_;
  std::string csv_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ndpcr::bench
