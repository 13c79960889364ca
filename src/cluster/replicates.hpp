#pragma once

// Parallel multi-replicate drivers for the cluster simulations: run N
// independent replicates of a ClusterSim or failure-analysis configuration
// on the execution engine (exec::TaskPool) and aggregate. Replicate r runs
// with seed exec::sub_seed(base_seed, r), so the replicate set is a pure
// function of the base seed - the same for any thread count - and
// replicates never share RNG streams even for adjacent base seeds.

#include <cstdint>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/failure_analysis.hpp"

namespace ndpcr::exec {
class TaskPool;
TaskPool& global_pool();
}  // namespace ndpcr::exec

namespace ndpcr::cluster {

struct ClusterReplicateSummary {
  std::vector<ClusterSimResult> runs;  // index = replicate, deterministic

  std::uint64_t total_failures = 0;
  std::uint64_t total_unrecoverable = 0;
  double mean_failures = 0.0;
  double mean_steps_rerun = 0.0;
  double mean_local_level_ranks = 0.0;
  double mean_partner_level_ranks = 0.0;
  double mean_io_level_ranks = 0.0;
  bool all_verified = false;  // every replicate ended state-consistent
};

// Replicated analyze_failures. Aggregation is exact: the totals are
// sums of the per-replicate integer counters (no float accumulation, so
// the summary is bit-identical for any pool size), and every probability
// below is *derived* from those totals on demand.
struct FailureReplicateSummary {
  std::vector<FailureAnalysisResult> runs;  // index = replicate

  std::uint64_t total_failures = 0;
  std::uint64_t total_local_recoverable = 0;
  std::uint64_t total_io_required = 0;
  std::uint64_t total_cascade_failures = 0;
  std::uint64_t total_rack_outages = 0;
  std::uint64_t total_rack_node_failures = 0;
  std::uint64_t total_events_processed = 0;
  double total_elapsed = 0.0;        // index-order sum (fixed order)
  double total_energy_joules = 0.0;  // index-order sum of per-run totals

  [[nodiscard]] double p_local() const {
    return total_failures ? static_cast<double>(total_local_recoverable) /
                                static_cast<double>(total_failures)
                          : 0.0;
  }
  [[nodiscard]] double p_cascade() const {
    return total_failures ? static_cast<double>(total_cascade_failures) /
                                static_cast<double>(total_failures)
                          : 0.0;
  }
  [[nodiscard]] double p_rack() const {
    return total_failures ? static_cast<double>(total_rack_node_failures) /
                                static_cast<double>(total_failures)
                          : 0.0;
  }
  [[nodiscard]] double mean_system_mtti() const {
    return total_failures ? total_elapsed /
                                static_cast<double>(total_failures)
                          : 0.0;
  }
  [[nodiscard]] double mean_failures() const {
    return runs.empty() ? 0.0
                        : static_cast<double>(total_failures) /
                              static_cast<double>(runs.size());
  }
};

// Run `replicates` independent ClusterSim instances of
// `base` (seed = sub_seed(base.seed, r)) across `pool` (inline when
// called from inside a pool task).
ClusterReplicateSummary run_cluster_replicates(
    const ClusterSimConfig& base, int replicates,
    exec::TaskPool& pool = exec::global_pool());

// Replicated failure analysis. Each replicate drops `base.metrics`
// (registries are single-writer); pass a registry in `base` only if you
// also keep replicates == 1.
FailureReplicateSummary run_failure_replicates(
    const FailureAnalysisConfig& base, int replicates,
    exec::TaskPool& pool = exec::global_pool());

}  // namespace ndpcr::cluster
