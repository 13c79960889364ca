// Validation: where does the paper's P(recovery from local) input come
// from? The failure-analysis DES derives it from first principles (double
// failures within a partner pair during the rebuild window), and the
// functional cluster simulation exercises the real byte-moving data path
// under the same failure process. The functional runs fan out as
// independent replicates on the execution engine (seed = sub_seed(base,
// r)), so the summary statistics are stable under --threads.
//
// Engine flags: --trials (= replicates) /--seed/--threads/--csv.

#include <cstdio>

#include "bench_util.hpp"
#include "cluster/failure_analysis.hpp"
#include "cluster/replicates.hpp"
#include "common/units.hpp"
#include "exec/task_pool.hpp"

int main(int argc, char** argv) {
  using namespace ndpcr;
  using namespace ndpcr::cluster;
  using namespace ndpcr::units;

  bench::BenchArgs args;
  if (!args.parse(argc, argv)) return 2;
  const int replicates = args.trials_or(4);
  const std::uint64_t seed = args.seed_or(7);

  bench::BenchReport report(
      "ablation_cluster_validation", args, seed, replicates,
      "100k-node failure DES + 8-node functional replicates");

  {
    report.add_section(
        "P(local recovery) from the failure process: 100k nodes, 5-year "
        "node MTTF, ring partner scheme",
        {"Rebuild window", "System MTTI", "P(local)", "IO recoveries"});
    for (double rebuild_minutes : {1.0, 10.0, 30.0, 60.0, 180.0, 600.0}) {
      FailureAnalysisConfig cfg;
      cfg.node_count = 100000;
      cfg.node_mttf = years(5);
      cfg.rebuild_time = minutes(rebuild_minutes);
      cfg.target_failures = 200000;
      cfg.seed = seed;
      const auto r = analyze_failures(cfg);
      report.add_row({fmt_fixed(rebuild_minutes, 0) + " min",
                      fmt_fixed(to_minutes(r.observed_system_mtti), 1) +
                          " min",
                      fmt_percent(r.p_local(), 3),
                      std::to_string(r.io_required)});
    }
  }

  {
    report.add_section(
        "Rack outages vs partner placement: 100k nodes in racks of 64, "
        "rack MTTF 250 node-lifetimes, ring vs cross-rack partners",
        {"Placement", "Rack outages", "Mean outage width", "P(rack)",
         "P(local)", "IO recoveries"});
    for (auto placement :
         {PartnerPlacement::kRing, PartnerPlacement::kCrossRack}) {
      FailureAnalysisConfig cfg;
      cfg.node_count = 100000;
      cfg.node_mttf = years(5);
      cfg.rebuild_time = minutes(30);
      cfg.target_failures = 200000;
      cfg.seed = seed;
      cfg.placement = placement;
      cfg.racks.rack_size = 64;
      cfg.racks.outage_mttf = 50.0 * years(5);
      const auto r = analyze_failures(cfg);
      report.add_row({placement == PartnerPlacement::kRing ? "ring"
                                                           : "cross-rack",
                      std::to_string(r.rack_outages),
                      fmt_fixed(r.mean_outage_width(), 1),
                      fmt_percent(r.p_rack(), 2), fmt_percent(r.p_local(), 3),
                      std::to_string(r.io_required)});
    }
  }

  {
    // Replicated failure DES: the aggregation sums exact integer
    // counters, so serial and pooled legs must agree to the last event.
    FailureAnalysisConfig base;
    base.node_count = 100000;
    base.node_mttf = years(5);
    base.rebuild_time = minutes(30);
    base.target_failures = 100000;
    base.seed = seed;
    base.cascade.probability = 0.05;
    exec::TaskPool serial(1);
    const auto s = run_failure_replicates(base, replicates, serial);
    const auto p = run_failure_replicates(base, replicates);
    const bool identical =
        s.total_failures == p.total_failures &&
        s.total_local_recoverable == p.total_local_recoverable &&
        s.total_io_required == p.total_io_required &&
        s.total_cascade_failures == p.total_cascade_failures &&
        s.total_events_processed == p.total_events_processed;
    report.add_section(
        "Failure-DES replicates, serial pool vs engine pool (" +
            std::to_string(replicates) +
            " replicates, 100k nodes, 5% cascades): integer-counter "
            "aggregation is pool-invariant",
        {"Aggregate", "Serial", "Pool"});
    report.add_row({"failures", std::to_string(s.total_failures),
                    std::to_string(p.total_failures)});
    report.add_row({"local recoverable",
                    std::to_string(s.total_local_recoverable),
                    std::to_string(p.total_local_recoverable)});
    report.add_row({"io required", std::to_string(s.total_io_required),
                    std::to_string(p.total_io_required)});
    report.add_row({"cascade failures",
                    std::to_string(s.total_cascade_failures),
                    std::to_string(p.total_cascade_failures)});
    report.add_row({"events processed",
                    std::to_string(s.total_events_processed),
                    std::to_string(p.total_events_processed)});
    report.add_row({"P(local)", fmt_percent(s.p_local(), 4),
                    fmt_percent(p.p_local(), 4)});
    report.add_row({"bit-identical", identical ? "yes" : "NO",
                    identical ? "yes" : "NO"});
  }

  {
    // Per-phase energy (Moran et al.): joules derive from the exact
    // counters after the run, so the split is as deterministic as the
    // counters themselves.
    report.add_section(
        "Per-phase energy at 100k nodes (165/185/140/175 W phases, "
        "hourly checkpoints): checkpointing dominates, recovery is noise",
        {"Rebuild window", "Compute GWh", "Checkpoint GWh", "Rebuild GWh",
         "Restart GWh", "Overhead", "GJ/failure"});
    for (double rebuild_minutes : {10.0, 60.0, 600.0}) {
      FailureAnalysisConfig cfg;
      cfg.node_count = 100000;
      cfg.node_mttf = years(5);
      cfg.rebuild_time = minutes(rebuild_minutes);
      cfg.target_failures = 200000;
      cfg.seed = seed;
      cfg.energy.enabled = true;
      const auto r = analyze_failures(cfg);
      const auto& e = r.energy;
      constexpr double kGWh = 3.6e12;  // joules per gigawatt-hour
      report.add_row(
          {fmt_fixed(rebuild_minutes, 0) + " min",
           fmt_fixed(e.compute_joules / kGWh, 1),
           fmt_fixed(e.checkpoint_joules / kGWh, 1),
           fmt_fixed(e.rebuild_joules / kGWh, 4),
           fmt_fixed(e.restart_joules / kGWh, 4),
           fmt_percent(e.overhead_fraction(), 2),
           fmt_fixed(r.energy_per_failure() / 1e9, 1)});
    }
  }

  {
    report.add_section(
        "Partner-scheme comparison (functional, 8 nodes, " +
            std::to_string(replicates) +
            " replicates each): full copies vs XOR groups of 4",
        {"Scheme", "mean partner recoveries", "mean io recoveries",
         "scratch (total)", "verified"});
    for (auto scheme : {ckpt::PartnerScheme::kCopy,
                        ckpt::PartnerScheme::kXorGroup}) {
      ClusterSimConfig c;
      c.node_count = 8;
      c.state_bytes_per_rank = 64 * 1024;
      c.node_mttf = 2500.0;
      c.total_steps = 2000;
      c.io_every = 4;
      c.partner_scheme = scheme;
      c.xor_group_size = 4;
      c.seed = seed;
      const auto sum = run_cluster_replicates(c, replicates);
      report.add_row({scheme == ckpt::PartnerScheme::kCopy ? "copy"
                                                           : "xor-group(4)",
                      fmt_fixed(sum.mean_partner_level_ranks, 2),
                      fmt_fixed(sum.mean_io_level_ranks, 2),
                      std::to_string(sum.total_unrecoverable),
                      sum.all_verified ? "yes" : "NO"});
    }
  }

  {
    ClusterSimConfig cfg;
    cfg.node_count = 8;
    cfg.state_bytes_per_rank = 128 * 1024;
    cfg.node_mttf = 2000.0;
    cfg.total_steps = 3000;
    cfg.io_every = 4;
    cfg.seed = seed;
    const auto sum = run_cluster_replicates(cfg, replicates);
    report.add_section(
        "Functional cluster replicates (real bytes through the multilevel "
        "store, 8 nodes, aggressive failure rate, " +
            std::to_string(replicates) + " replicates)",
        {"Metric", "Value"});
    report.add_row({"replicates", std::to_string(sum.runs.size())});
    report.add_row({"failures (total)", std::to_string(sum.total_failures)});
    report.add_row({"failures (mean/replicate)",
                    fmt_fixed(sum.mean_failures, 2)});
    report.add_row({"rank-recoveries from local (mean)",
                    fmt_fixed(sum.mean_local_level_ranks, 2)});
    report.add_row({"rank-recoveries from partner (mean)",
                    fmt_fixed(sum.mean_partner_level_ranks, 2)});
    report.add_row({"rank-recoveries from IO (mean)",
                    fmt_fixed(sum.mean_io_level_ranks, 2)});
    report.add_row({"unrecoverable (total scratch restarts)",
                    std::to_string(sum.total_unrecoverable)});
    report.add_row({"steps re-executed (mean)",
                    fmt_fixed(sum.mean_steps_rerun, 2)});
    report.add_row({"state verified (all replicates)",
                    sum.all_verified ? "yes" : "NO"});
  }
  report.finish();

  std::puts("\nNote: with independent exponential failures the ring-partner");
  std::puts("double-failure window alone yields P(local) >> 96%; the");
  std::puts("paper's 85% (Moody et al.) reflects correlated and multi-node");
  std::puts("failures, which is why the model keeps P(local) an input.");
  return 0;
}
