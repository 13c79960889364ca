#pragma once

// Shared helpers for the figure-reproduction harnesses: the common
// command-line surface (--trials/--seed/--threads/--csv), a stopwatch for
// run metadata, and re-exports of the breakdown table rows that now live
// in common/breakdown_table.hpp (kept here so harnesses keep writing
// bench::breakdown_row).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/breakdown_table.hpp"
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

// Wall-time summary of one measured row: median, fastest and the
// interquartile spread over its repeats, in seconds.
struct Timing {
  double median = 0.0;
  double min = 0.0;
  double iqr = 0.0;
};

// Time every row `reps` times, interleaved (round r runs row 0, 1, ...
// before round r + 1), so a drift in the shared host's speed spreads
// over all rows instead of landing on whichever ran last. Returns one
// Timing per row.
inline std::vector<Timing> measure_interleaved(
    int reps, const std::vector<std::function<void()>>& rows) {
  std::vector<std::vector<double>> samples(rows.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      rows[i]();
      samples[i].push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
  }
  std::vector<Timing> out;
  for (auto& s : samples) {
    std::sort(s.begin(), s.end());
    const auto at = [&](double q) {
      return s[static_cast<std::size_t>(q * static_cast<double>(s.size() - 1) +
                                        0.5)];
    };
    out.push_back({at(0.5), s.front(), at(0.75) - at(0.25)});
  }
  return out;
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
