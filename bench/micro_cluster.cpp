// Microbenchmark for the failure/cluster simulator (docs/SIM.md):
//
//   failure_engine   event throughput at N in {1k, 10k, 100k, 1M} nodes
//                    for the pre-PR heap baseline (kept verbatim below),
//                    the DES on the calendar queue, and the memoryless
//                    superposition fast path; speedup is vs the pinned
//                    baseline at the same N
//   scenario         the widened scenario space at 100k nodes through
//                    the calendar engine: Weibull inter-arrivals,
//                    cascades, rack outages under both partner
//                    placements, plus perfbench failure_sim's query
//                    (20k nodes, all three at once); medians of
//                    interleaved repeats with IQR and CPU time
//   replicates       run_failure_replicates serial vs the engine pool
//                    (honest ~1x on a single-core host), with the
//                    pool-invariant aggregate printed from each leg
//   guard            host-relative throughput ratios - the rows
//                    tools/bench_diff gates with --fail-on-regress so
//                    future PRs can't silently regress the simulator
//
//   --smoke 1   tiny sizes (CI); also the `perf` ctest label
//   --guard 1   re-measure only the guard ratios (quick) - the ctest
//               regression pair diffs this against BENCH_cluster.json
//   --csv PATH  structured output (default BENCH_cluster.json)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cluster/failure_analysis.hpp"
#include "cluster/replicates.hpp"
#include "common/rng.hpp"
#include "exec/task_pool.hpp"

using namespace ndpcr;
using namespace ndpcr::cluster;

namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double best_seconds(int trials, const std::function<void()>& fn) {
  double best = 1e300;
  for (int t = 0; t < std::max(trials, 1); ++t) {
    best = std::min(best, seconds_of(fn));
  }
  return best;
}

// Best-of-N with the candidates interleaved per round, so every engine
// samples the same sequence of machine states (turbo/throttle drift on
// a shared host skews a ratio when the two sides run minutes apart).
// Each timed run is preceded by >=5ms of untimed warmup passes: the
// engines evict each other's working sets and flip the core's AVX
// frequency license, and those transitions take milliseconds to settle
// - a sub-millisecond kernel timed right after a scalar neighbour
// otherwise never reaches steady state. The rows compare steady-state
// throughput, not the neighbour's pollution.
std::vector<double> best_seconds_interleaved(
    int trials, const std::vector<std::function<void()>>& fns) {
  std::vector<double> best(fns.size(), 1e300);
  for (int t = 0; t < std::max(trials, 1); ++t) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const auto w0 = std::chrono::steady_clock::now();
      do {
        fns[i]();
      } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             w0)
                   .count() < 5e-3);
      // Three timed samples per round: the later ones run deep in the
      // warmed state, and the min survives.
      for (int k = 0; k < 3; ++k) {
        best[i] = std::min(best[i], seconds_of(fns[i]));
      }
    }
  }
  return best;
}

// The pre-PR analyze_failures, verbatim (std::priority_queue over AoS
// events, log1p exponentials): the pinned baseline the >=50x acceptance
// criterion is measured against. Do not modernize this copy.
struct BaselineResult {
  std::uint64_t failures = 0;
  std::uint64_t local_recoverable = 0;
  std::uint64_t io_required = 0;
};

BaselineResult heap_baseline(std::uint32_t node_count, double node_mttf,
                             double rebuild_time,
                             std::uint64_t target_failures,
                             std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t n = node_count;
  struct Event {
    double time;
    std::uint32_t node;
    bool operator>(const Event& o) const { return time > o.time; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (std::uint32_t i = 0; i < n; ++i) {
    events.push({rng.exponential(node_mttf), i});
  }
  std::vector<double> rebuilding_until(n, 0.0);
  BaselineResult result;
  double now = 0.0;
  while (result.failures < target_failures) {
    const Event ev = events.top();
    events.pop();
    now = ev.time;
    ++result.failures;
    const std::uint32_t partner = (ev.node + 1) % n;
    if (rebuilding_until[partner] > now) {
      ++result.io_required;
    } else {
      ++result.local_recoverable;
    }
    rebuilding_until[ev.node] = now + rebuild_time;
    events.push({now + rng.exponential(node_mttf), ev.node});
  }
  return result;
}

constexpr double kMttf = 5.0 * 365.25 * 86400;

FailureAnalysisConfig base_config(std::uint32_t nodes,
                                  std::uint64_t failures,
                                  std::uint64_t seed) {
  FailureAnalysisConfig cfg;
  cfg.node_count = nodes;
  cfg.node_mttf = kMttf;
  cfg.rebuild_time = 600.0;
  cfg.target_failures = failures;
  cfg.seed = seed;
  return cfg;
}

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args;
  if (!args.parse(argc, argv)) return 2;
  const bool smoke = args.number("smoke", 0) > 0;
  const bool guard_only = args.number("guard", 0) > 0;
  const std::uint64_t seed = args.seed_or(20260808);
  const int trials = args.trials_or(smoke || guard_only ? 1 : 3);
  if (args.csv.empty()) args.csv = "BENCH_cluster.json";

  bench::BenchReport report("micro_cluster", args, seed, trials,
                            smoke ? "smoke" : guard_only ? "guard" : "full");
  report.stamp_host();

  // ---- guard ratios: measured in every mode (cheap) -------------------
  // Host-relative, so the regression gate survives machine changes: each
  // row is (this engine's failures/sec) / (pre-PR baseline failures/sec)
  // at guard scale. bench_diff --fail-on-regress trips when a ratio
  // moves by more than the bound in either direction.
  {
    const std::uint32_t nodes = smoke ? 10'000 : 100'000;
    const std::uint64_t fails = smoke ? 20'000 : 100'000;
    auto cal_cfg = base_config(nodes, fails, seed);
    cal_cfg.engine = FailureEngine::kCalendar;
    auto sup_cfg = base_config(nodes, fails, seed);
    sup_cfg.engine = FailureEngine::kSuperposition;
    const auto walls = best_seconds_interleaved(
        std::max(trials, 3),
        {[&] { heap_baseline(nodes, kMttf, 600.0, fails, seed); },
         [&] { analyze_failures(cal_cfg); },
         [&] { analyze_failures(sup_cfg); }});
    report.add_section("guard", {"ratio", "value"});
    report.add_row({"calendar_vs_heap", fmt("%.2f", walls[0] / walls[1])});
    report.add_row({"super_vs_heap", fmt("%.2f", walls[0] / walls[2])});
  }

  if (guard_only) {
    report.finish();
    return 0;
  }

  // ---- failure_engine: throughput sweep -------------------------------
  {
    report.add_section("failure_engine", {"nodes", "engine", "wall_s",
                                          "fails_per_s", "speedup"});
    std::vector<std::uint32_t> sizes = smoke
                                           ? std::vector<std::uint32_t>{1'000}
                                           : std::vector<std::uint32_t>{
                                                 1'000, 10'000, 100'000,
                                                 1'000'000};
    for (const std::uint32_t nodes : sizes) {
      const std::uint64_t fails = smoke ? 10'000 : 100'000;
      auto cal_cfg = base_config(nodes, fails, seed);
      cal_cfg.engine = FailureEngine::kCalendar;
      auto sup_cfg = base_config(nodes, fails, seed);
      sup_cfg.engine = FailureEngine::kSuperposition;
      const auto walls = best_seconds_interleaved(
          trials,
          {[&] { heap_baseline(nodes, kMttf, 600.0, fails, seed); },
           [&] { analyze_failures(cal_cfg); },
           [&] { analyze_failures(sup_cfg); }});
      const char* names[] = {"heap_baseline", "calendar", "superposition"};
      for (std::size_t i = 0; i < 3; ++i) {
        report.add_row({std::to_string(nodes), names[i],
                        fmt("%.4f", walls[i]),
                        fmt("%.0f", static_cast<double>(fails) / walls[i]),
                        fmt("%.2f", walls[0] / walls[i])});
      }
    }
  }

  // ---- scenario: the widened space at scale ---------------------------
  // Every row is timed as the median of interleaved repeats, with its IQR
  // and the median process CPU time next to the wall time.
  {
    report.add_section("scenario",
                       {"scenario", "failures", "p_local", "p_cascade",
                        "rack_outages", "median_ms", "iqr_ms", "cpu_ms",
                        "fails_per_s", "reps"});
    const std::uint32_t nodes = smoke ? 1'000 : 100'000;
    const std::uint64_t fails = smoke ? 10'000 : 100'000;
    std::vector<std::pair<const char*, FailureAnalysisConfig>> rows;
    rows.emplace_back("exponential", base_config(nodes, fails, seed));
    {
      auto cfg = base_config(nodes, fails, seed);
      cfg.distribution = FailureDistribution::kWeibull;
      cfg.weibull_shape = 0.7;
      rows.emplace_back("weibull_0.7", cfg);
    }
    {
      auto cfg = base_config(nodes, fails, seed);
      cfg.cascade.probability = 0.1;
      rows.emplace_back("cascade_0.1", cfg);
    }
    {
      auto cfg = base_config(nodes, fails, seed);
      cfg.racks.rack_size = 64;
      cfg.racks.outage_mttf = 50.0 * kMttf;
      rows.emplace_back("racks_ring", cfg);
      cfg.placement = PartnerPlacement::kCrossRack;
      rows.emplace_back("racks_cross", cfg);
    }
    {
      // perfbench failure_sim's query shape: Weibull renewals with
      // cascades and rack outages, all at once.
      auto cfg = base_config(smoke ? 10'000 : 20'000,
                             smoke ? 5'000 : 300'000, seed);
      cfg.distribution = FailureDistribution::kWeibull;
      cfg.weibull_shape = 0.7;
      cfg.cascade.probability = 0.05;
      cfg.racks.rack_size = 32;
      cfg.racks.outage_mttf = 10.0 * 365.25 * 86400;
      rows.emplace_back("failure_sim_20k", cfg);
    }
    const int reps = smoke ? 1 : 5 * trials;
    std::vector<FailureAnalysisResult> results(rows.size());
    std::vector<std::function<void()>> fns;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      fns.push_back([&, i] { results[i] = analyze_failures(rows[i].second); });
    }
    const std::vector<bench::Timing> t = bench::measure_interleaved(reps, fns);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const FailureAnalysisResult& r = results[i];
      report.add_row({rows[i].first, std::to_string(r.failures),
                      fmt("%.4f", r.p_local()), fmt("%.4f", r.p_cascade()),
                      std::to_string(r.rack_outages),
                      fmt("%.3f", t[i].median * 1e3),
                      fmt("%.3f", t[i].iqr * 1e3), fmt("%.3f", t[i].cpu * 1e3),
                      fmt("%.0f", static_cast<double>(r.failures) /
                                      t[i].median),
                      std::to_string(reps)});
    }
  }

  // ---- replicates: serial vs engine pool ------------------------------
  {
    report.add_section("replicates", {"mode", "replicates", "total_failures",
                                      "p_local", "wall_s"});
    auto base = base_config(smoke ? 1'000 : 100'000,
                            smoke ? 5'000 : 100'000, seed);
    const int replicates = smoke ? 2 : 8;
    exec::TaskPool serial(1);
    FailureReplicateSummary sum;
    const double serial_wall = best_seconds(trials, [&] {
      sum = run_failure_replicates(base, replicates, serial);
    });
    report.add_row({"serial", std::to_string(replicates),
                    std::to_string(sum.total_failures),
                    fmt("%.4f", sum.p_local()), fmt("%.4f", serial_wall)});
    const double pool_wall = best_seconds(trials, [&] {
      sum = run_failure_replicates(base, replicates);
    });
    report.add_row({"pool", std::to_string(replicates),
                    std::to_string(sum.total_failures),
                    fmt("%.4f", sum.p_local()), fmt("%.4f", pool_wall)});
  }

  report.finish();
  return 0;
}
