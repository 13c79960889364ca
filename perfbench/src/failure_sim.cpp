// failure_sim: the failure analysis a user reaches through `ndpcr
// failures`, run single-threaded. Every query simulates a 20k-node
// machine with Weibull (shape 0.7) renewals, failure cascades and rack
// outages - so kAuto selects the calendar-queue DES - until a fixed number
// of failures has been observed.
//
// Why 20k nodes and not the exascale 1M: at 1M nodes the node state and
// calendar live in the shared L3 and DRAM, and on a shared 4-vCPU VM the
// query time swung 247-378 ms across ten runs (quartile spread 20% at
// p50, 33% at the tail) as neighbours came and went. At 20k nodes the
// working set fits the 2 MiB per-core L2 and the spread stays under 10%.
// The engine, distribution, cascades and racks are the same.
//
// Set-up computes the reference answer of each of four seeded query
// configurations (five times over, see kSetupRounds); the timed queries then cycle through the four and must
// reproduce their reference counters bit for bit. The paper feeds
// P(recovery from the partner level) into its progress-rate model; the
// workload does the same with the analytic model at its default (paper)
// constants, so progress_rate here is modelled, not timed.

#include <string>
#include <vector>

#include "cluster/failure_analysis.hpp"
#include "exec/task_pool.hpp"
#include "model/analytic_multilevel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace cluster = ndpcr::cluster;

constexpr std::uint64_t kConfigs = 4;
// Set-up (the four reference queries) runs this many times and setup_s is
// the median round: one round, cold caches included, spread 40% between
// runs. Every later round must reproduce the first round's answers.
constexpr int kSetupRounds = 5;
// A query takes ~60 ms, so a run holds a few hundred; p90 leaves ten
// beyond it after a hundred queries.
constexpr double kTailCap = 90.0;

cluster::FailureAnalysisConfig query_config(const Options& opt,
                                            std::uint64_t k) {
  cluster::FailureAnalysisConfig c;
  c.node_count = opt.smoke ? 10'000 : 20'000;
  c.target_failures = opt.smoke ? 5'000 : 300'000;
  c.seed = ndpcr::exec::sub_seed(opt.seed, 0x51A, k);
  c.distribution = cluster::FailureDistribution::kWeibull;
  c.weibull_shape = 0.7;
  c.cascade.probability = 0.05;
  c.racks.rack_size = 32;
  c.racks.outage_mttf = 10.0 * 365.25 * 86400;  // 10 years per rack
  c.engine = cluster::FailureEngine::kAuto;
  return c;
}

bool same_counts(const cluster::FailureAnalysisResult& a,
                 const cluster::FailureAnalysisResult& b) {
  return a.failures == b.failures &&
         a.local_recoverable == b.local_recoverable &&
         a.io_required == b.io_required &&
         a.cascade_failures == b.cascade_failures &&
         a.rack_outages == b.rack_outages &&
         a.rack_node_failures == b.rack_node_failures &&
         a.events_processed == b.events_processed && a.elapsed == b.elapsed;
}

}  // namespace

Result run_failure_sim(const Options& opt, double seconds,
                       ndpcr::obs::Tracer* tracer) {
  Probe probe(tracer);
  Result result;
  Samples setup;
  std::vector<cluster::FailureAnalysisResult> reference;
  std::vector<cluster::FailureAnalysisConfig> configs;

  const auto query = [&](Probe& p, const cluster::FailureAnalysisConfig& c,
                         double& s) {
    Probe::Scope scope(p, "cluster.analyze_failures", "cluster");
    auto r = cluster::analyze_failures(c);
    s = scope.stop();
    result.check(r.failures == r.local_recoverable + r.io_required &&
                     r.failures >= c.target_failures,
                 "failure counts do not add up");
    return r;
  };

  Probe setup_probe(nullptr);  // set-up stays out of the trace
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < kConfigs; ++k) {
      const auto c = query_config(opt, k);
      double s = 0.0;
      auto r = query(setup_probe, c, s);
      if (round == 0) {
        configs.push_back(c);
        reference.push_back(std::move(r));
      } else {
        result.check(same_counts(r, reference[k]),
                     "set-up round " + std::to_string(round) +
                         " differs from the first");
      }
    }
    setup.add(seconds_since(t0));
  }

  std::uint64_t failures = 0;
  std::uint64_t next = 0;
  double analyze = 0.0;
  const auto unit = [&]() -> double {
    const std::uint64_t k = next++ % kConfigs;
    double s = 0.0;
    const auto r = query(probe, configs[k], s);
    result.check(same_counts(r, reference[k]),
                 "query " + std::to_string(k) +
                     " differs from its reference answer");
    result.op.add(s);
    failures += r.failures;
    analyze += s;
    return s;
  };
  const std::size_t want = samples_for_tail(kTailCap);
  result.units = run_units(
      seconds, [&] { return opt.smoke || result.op.size() >= want; }, unit);

  std::uint64_t events = 0, ref_failures = 0, local = 0;
  for (const auto& r : reference) {
    events += r.events_processed;
    ref_failures += r.failures;
    local += r.local_recoverable;
  }
  const double p_local =
      static_cast<double>(local) / static_cast<double>(ref_failures);
  result.exact["cluster.events_processed"] = static_cast<double>(events);
  result.exact["cluster.p_local"] = p_local;
  result.exact["cluster.events_per_failure"] =
      static_cast<double>(events) / static_cast<double>(ref_failures);

  ndpcr::model::AnalyticInputs model;
  model.p_local = p_local;
  result.tail_cap = kTailCap;
  result.e2e["progress_rate"] = {
      ndpcr::model::analytic_multilevel(model).progress_rate(), "ratio"};
  result.e2e["setup_s"] = {setup.median(), "s"};
  const auto n = static_cast<double>(result.units);
  result.layer["cluster.analyze_s"] = {analyze / n, "s"};
  result.layer["sim_failures_per_s"] = {static_cast<double>(failures) /
                                            analyze,
                                        "1/s"};
  result.layer["exec.threads"] = {1.0, "count"};
  return result;
}

}  // namespace perfbench
