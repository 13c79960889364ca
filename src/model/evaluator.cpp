#include "model/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analytic/daly.hpp"
#include "common/table.hpp"
#include "exec/task_pool.hpp"
#include "ndp/ndp.hpp"

namespace ndpcr::model {

std::string CrConfig::label() const {
  std::string s;
  switch (kind) {
    case ConfigKind::kIoOnly:
      s = "I/O Only";
      break;
    case ConfigKind::kLocalIoHost:
      s = "Local(" + fmt_fixed(p_local_recovery * 100.0, 0) + "%) + I/O-Host";
      break;
    case ConfigKind::kLocalIoNdp:
      s = "Local(" + fmt_fixed(p_local_recovery * 100.0, 0) + "%) + I/O-NDP";
      break;
  }
  if (compression_factor > 0.0) {
    s += " (cf " + fmt_fixed(compression_factor * 100.0, 0) + "%)";
  }
  return s;
}

Evaluator::Evaluator(const CrScenario& scenario, const SimOptions& options)
    : scenario_(scenario), options_(options) {
  if (scenario.mtti <= 0 || scenario.checkpoint_bytes <= 0 ||
      scenario.io_bw_per_node <= 0) {
    throw std::invalid_argument("scenario values must be positive");
  }
}

sim::TimelineConfig Evaluator::timeline_config(
    const CrConfig& config, std::uint32_t io_every) const {
  sim::TimelineConfig tc;
  tc.mtti = scenario_.mtti;
  tc.checkpoint_bytes = scenario_.checkpoint_bytes;
  tc.local_bw = scenario_.local_bw;
  tc.io_bw = scenario_.io_bw_per_node;
  tc.compression_factor = config.compression_factor;
  tc.host_compress_bw = scenario_.host_compress_bw;
  tc.host_decompress_bw = scenario_.host_decompress_bw;
  tc.ndp_compress_bw = scenario_.ndp_compress_bw;
  tc.p_local_recovery = config.p_local_recovery;
  tc.total_work = options_.total_work;
  tc.io_every = io_every;

  switch (config.kind) {
    case ConfigKind::kIoOnly: {
      tc.strategy = sim::Strategy::kIoOnly;
      // Daly-optimal interval for the (compressed) IO commit time.
      sim::TimelineSimulator probe(
          [&] {
            sim::TimelineConfig t = tc;
            t.strategy = sim::Strategy::kIoOnly;
            t.local_interval = 1.0;  // placeholder for construction
            return t;
          }(),
          0);
      const double delta = probe.host_io_commit_time();
      tc.local_interval =
          analytic::daly_optimal_interval(delta, scenario_.mtti);
      tc.io_every = 0;
      break;
    }
    case ConfigKind::kLocalIoHost:
      tc.strategy = sim::Strategy::kLocalIoHost;
      tc.local_interval = scenario_.local_interval;
      break;
    case ConfigKind::kLocalIoNdp:
      tc.strategy = sim::Strategy::kLocalIoNdp;
      tc.local_interval = scenario_.local_interval;
      tc.io_every = 0;  // the NDP drains as fast as it can
      break;
  }
  return tc;
}

double Evaluator::rate_at_interval(const CrConfig& config,
                                   std::uint32_t io_every,
                                   double interval) const {
  auto tc = timeline_config(config, io_every);
  tc.local_interval = interval;
  return sim::TimelineSimulator::run_trials(tc, options_.trials,
                                            options_.seed)
      .progress_rate();
}

std::vector<double> Evaluator::rates_at_ratios(
    const CrConfig& config, const std::vector<std::uint32_t>& ratios) const {
  return exec::global_pool().parallel_map(ratios.size(), [&](std::size_t i) {
    const auto tc = timeline_config(config, ratios[i]);
    return sim::TimelineSimulator::run_trials(tc, options_.trials,
                                              options_.seed)
        .progress_rate();
  });
}

std::vector<double> Evaluator::rates_at_intervals(
    const CrConfig& config, std::uint32_t io_every,
    const std::vector<double>& intervals) const {
  return exec::global_pool().parallel_map(
      intervals.size(), [&](std::size_t i) {
        auto tc = timeline_config(config, io_every);
        tc.local_interval = intervals[i];
        return sim::TimelineSimulator::run_trials(tc, options_.trials,
                                                  options_.seed)
            .progress_rate();
      });
}

double Evaluator::optimal_local_interval(const CrConfig& config,
                                         std::uint32_t io_every) const {
  // Seed with Daly's optimum for the local commit time, then shrink a
  // generous bracket around the best of a fixed grid of interior points,
  // batch by batch. Each batch evaluates concurrently on the engine;
  // because the candidate grid depends only on the bracket (never on the
  // schedule) and ties break toward the lower interval, the result is
  // identical for any thread count. Common random numbers (fixed seeds in
  // the rate evaluations) keep the objective smooth enough to search.
  const double local_commit = scenario_.checkpoint_bytes / scenario_.local_bw;
  const double seed_tau =
      analytic::daly_optimal_interval(local_commit, scenario_.mtti);
  double lo = seed_tau / 8.0;
  double hi = seed_tau * 8.0;
  constexpr int kPointsPerRound = 5;
  for (int round = 0; round < 12 && (hi - lo) > 1.0; ++round) {
    std::vector<double> points(kPointsPerRound);
    for (int i = 0; i < kPointsPerRound; ++i) {
      points[i] = lo + (hi - lo) * (i + 1) / (kPointsPerRound + 1);
    }
    const std::vector<double> rates =
        rates_at_intervals(config, io_every, points);
    std::size_t best = 0;
    for (std::size_t i = 1; i < rates.size(); ++i) {
      if (rates[i] > rates[best]) best = i;
    }
    // Narrow to the neighbours of the winner (the bracket endpoints stand
    // in at the edges), keeping the maximizer inside the new bracket.
    const double new_lo = best == 0 ? lo : points[best - 1];
    const double new_hi =
        best + 1 == rates.size() ? hi : points[best + 1];
    lo = new_lo;
    hi = new_hi;
  }
  return 0.5 * (lo + hi);
}

std::uint32_t Evaluator::ndp_effective_ratio(const CrConfig& config) const {
  const auto tc = timeline_config(config, 0);
  sim::TimelineSimulator sim(tc, 0);
  const double local_period =
      scenario_.local_interval + sim.local_commit_time();
  return static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(sim.ndp_drain_time() / local_period)));
}

std::uint32_t Evaluator::optimal_io_every(const CrConfig& config) const {
  if (config.kind != ConfigKind::kLocalIoHost) {
    throw std::logic_error(
        "ratio optimization only applies to Local + I/O-Host");
  }
  // Coarse geometric sweep followed by a local refinement, each stage a
  // concurrent candidate batch on the engine. Common random numbers
  // (fixed seeds in the rate evaluations) keep the comparison low-noise,
  // and the index-ordered strict-> fold reproduces the serial sweep's
  // first-winner tie-breaking exactly.
  std::uint32_t best_k = 1;
  double best_rate = -1.0;
  std::uint32_t k = 1;
  std::vector<std::uint32_t> grid;
  while (k <= 4096) {
    grid.push_back(k);
    k = std::max(k + 1, static_cast<std::uint32_t>(
                            std::lround(static_cast<double>(k) * 1.5)));
  }
  const std::vector<double> coarse = rates_at_ratios(config, grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (coarse[i] > best_rate) {
      best_rate = coarse[i];
      best_k = grid[i];
    }
  }
  // Refine around the coarse winner.
  const auto lo = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(best_k * 2) / 3));
  const std::uint32_t hi = best_k + std::max<std::uint32_t>(2, best_k / 2);
  const std::uint32_t stride = std::max<std::uint32_t>(1, (hi - lo) / 16);
  std::vector<std::uint32_t> fine;
  for (std::uint32_t candidate = lo; candidate <= hi; candidate += stride) {
    fine.push_back(candidate);
  }
  const std::vector<double> refined = rates_at_ratios(config, fine);
  for (std::size_t i = 0; i < fine.size(); ++i) {
    if (refined[i] > best_rate) {
      best_rate = refined[i];
      best_k = fine[i];
    }
  }
  return best_k;
}

Evaluation Evaluator::evaluate_at_ratio(const CrConfig& config,
                                        std::uint32_t io_every) const {
  const auto tc = timeline_config(config, io_every);
  Evaluation ev;
  ev.result = sim::TimelineSimulator::run_trials(tc, options_.trials,
                                                 options_.seed);
  ev.interval = tc.local_interval;
  switch (config.kind) {
    case ConfigKind::kIoOnly:
      ev.io_every = 1;
      break;
    case ConfigKind::kLocalIoHost:
      ev.io_every = io_every;
      break;
    case ConfigKind::kLocalIoNdp:
      ev.io_every = ndp_effective_ratio(config);
      break;
  }
  return ev;
}

Evaluation Evaluator::evaluate(const CrConfig& config) const {
  std::uint32_t ratio = 0;
  if (config.kind == ConfigKind::kLocalIoHost) {
    ratio = optimal_io_every(config);
  }
  return evaluate_at_ratio(config, ratio);
}

}  // namespace ndpcr::model
