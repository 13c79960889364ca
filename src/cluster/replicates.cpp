#include "cluster/replicates.hpp"

#include <algorithm>

#include "exec/task_pool.hpp"

namespace ndpcr::cluster {

ClusterReplicateSummary run_cluster_replicates(const ClusterSimConfig& base,
                                               int replicates,
                                               exec::TaskPool& pool) {
  ClusterReplicateSummary s;
  s.runs = pool.parallel_map(
      static_cast<std::size_t>(std::max(replicates, 0)), [&](std::size_t r) {
        ClusterSimConfig cfg = base;
        cfg.seed = exec::sub_seed(base.seed, r);
        return ClusterSim(cfg).run();
      });
  if (s.runs.empty()) return s;
  s.all_verified = true;
  for (const auto& r : s.runs) {
    s.total_failures += r.failures;
    s.total_unrecoverable += r.unrecoverable;
    s.mean_failures += static_cast<double>(r.failures);
    s.mean_steps_rerun += static_cast<double>(r.steps_rerun);
    s.mean_local_level_ranks += static_cast<double>(r.local_level_ranks);
    s.mean_partner_level_ranks += static_cast<double>(r.partner_level_ranks);
    s.mean_io_level_ranks += static_cast<double>(r.io_level_ranks);
    s.all_verified = s.all_verified && r.state_verified;
  }
  const auto n = static_cast<double>(s.runs.size());
  s.mean_failures /= n;
  s.mean_steps_rerun /= n;
  s.mean_local_level_ranks /= n;
  s.mean_partner_level_ranks /= n;
  s.mean_io_level_ranks /= n;
  return s;
}

FailureReplicateSummary run_failure_replicates(
    const FailureAnalysisConfig& base, int replicates,
    exec::TaskPool& pool) {
  FailureReplicateSummary s;
  s.runs = pool.parallel_map(
      static_cast<std::size_t>(std::max(replicates, 0)), [&](std::size_t r) {
        FailureAnalysisConfig cfg = base;
        cfg.seed = exec::sub_seed(base.seed, r);
        cfg.metrics = nullptr;  // single-writer; never shared across tasks
        return analyze_failures(cfg);
      });
  for (const auto& r : s.runs) {
    s.total_failures += r.failures;
    s.total_local_recoverable += r.local_recoverable;
    s.total_io_required += r.io_required;
    s.total_cascade_failures += r.cascade_failures;
    s.total_rack_outages += r.rack_outages;
    s.total_rack_node_failures += r.rack_node_failures;
    s.total_events_processed += r.events_processed;
    s.total_elapsed += r.elapsed;
    s.total_energy_joules += r.energy.total_joules();
  }
  return s;
}

}  // namespace ndpcr::cluster
