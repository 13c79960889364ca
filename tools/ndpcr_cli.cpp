// ndpcr - command-line front end to the library.
//
//   ndpcr project                         Table-1 exascale projection
//   ndpcr evaluate [options]             progress rate + breakdown for a
//                                        C/R configuration on a scenario
//   ndpcr study [options]                compression study on one app
//   ndpcr sweep --param {mtti|size|plocal} [options]
//                                        sensitivity sweep for one config
//   ndpcr --faults <seed> [options]      run one seeded chaos fault
//                                        schedule through the multilevel
//                                        data path and print the health
//                                        report (also: ndpcr chaos ...)
//       --nodes <n> --commits <n> --scheme {copy|xor} --outage {0|1}
//       --transient/--torn/--bitflip/--stall <rate>  per-op fault rates
//       --io-codec {null|rle|lz4|deflate|bzip|xz}  IO-level codec
//       --io-chunk <bytes>    IO container chunk size (fixes the bytes)
//       --trace <file>        write a Chrome-trace-event JSON of the run
//                             (open in Perfetto; docs/OBSERVABILITY.md)
//       --metrics <file>      write a metrics snapshot (.json = JSON,
//                             else CSV, "-" = stdout)
//   ndpcr equiv [options]                crash-anywhere restart-equivalence
//                                        sweep (docs/EQUIVALENCE.md)
//       --kernel {cg|mg|ft}   --mode {full|delta|dedup}
//       --nodes <n> --iters <n> --cadence <n> --bytes <per-rank state>
//       --seed <s> --stride <k>          sweep every k-th crash point
//       --list-crash-points 1            print the canonical enumeration
//       --crash-point <k>                run a single crash point
//       --torn {0|1}          dying writes land torn (1) or vanish (0)
//       --transient/--torn-rate/--bitflip/--stall <rate>  seeded device
//                             faults layered under the crash gates
//       --io-root <dir>       file-backed IO level (real latest pointers)
//   ndpcr failures [options]             exascale failure simulator
//                                        (docs/SIM.md): P(recovery from
//                                        local), cascade/rack shares and
//                                        per-phase energy from the DES,
//                                        optionally as parallel replicas
//       --nodes <n> --failures <n> --seed <s>
//       --mttf-years <y>      per-node MTTF (default 5)
//       --rebuild-min <m>     partner rebuild window (default 10)
//       --distribution {exponential|weibull}  --weibull-shape <k>
//       --cascade <p>         correlated-burst trigger probability
//       --racks <size>        rack structure (0 = none) with outages
//       --rack-mttf-years <y> per-rack outage MTTF (default 250)
//       --placement {ring|cross-rack}  partner placement
//       --engine {auto|calendar|superposition}
//       --energy {0|1}        per-phase energy accounting
//       --replicas <n>        independent replicas on the engine pool
//       --csv <file>          per-replica counters as CSV ("-" = stdout)
//   ndpcr serve [options]                seeded multi-tenant checkpoint
//                                        service demo (docs/SERVICE.md):
//                                        per-tenant admission/fairness
//                                        table, Jain indices, commit
//                                        latency, exit 1 on any
//                                        cross-tenant invariant violation
//       --tenants <n> --waves <n> --bytes <per-rank payload>
//       --faults {0|1}        seeded fault plans on odd tenants
//       --quota-every <n>     every n-th tenant gets a tight IO grant
//       --nvm-fraction <f>    shared-NVM budget (backpressure band)
//       --metrics <file>      per-tenant metrics snapshot ("-" = stdout)
//       --trace <file>        per-tenant scheduler event tracks
//
// Common options (defaults = the paper's Table 4 scenario):
//   --mtti <minutes>      --ckpt-gb <GB>       --local-gbps <GB/s>
//   --io-mbps <MB/s>      --cf <0..1>          --plocal <0..1>
//   --strategy {ndp|host|io-only}              --ratio <k>
//   --app <name>          --mb <megabytes>     --trials <n>
//   --threads <n>         execution-engine thread count (0 = auto)
//
// Examples:
//   ndpcr evaluate --strategy ndp --cf 0.73 --plocal 0.85
//   ndpcr sweep --param mtti --strategy host --cf 0.73
//   ndpcr study --app minife --mb 4

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/failure_analysis.hpp"
#include "cluster/replicates.hpp"
#include "common/breakdown_table.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "exec/reporter.hpp"
#include "exec/task_pool.hpp"
#include "faults/chaos.hpp"
#include "faults/fault_plan.hpp"
#include "faults/faulty_stores.hpp"
#include "ndp/agent.hpp"
#include "model/evaluator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proj/projection.hpp"
#include "harness/equivalence.hpp"
#include "study/compression_study.hpp"
#include "svc/svc_chaos.hpp"

namespace {

using namespace ndpcr;
using namespace ndpcr::units;

struct Options {
  std::map<std::string, std::string> values;

  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::strtod(it->second.c_str(),
                                                       nullptr);
  }
  [[nodiscard]] std::string text(const std::string& key,
                                 const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Options parse_options(int argc, char** argv, int first) {
  Options opts;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      std::exit(2);
    }
    opts.values[key.substr(2)] = argv[i + 1];
  }
  return opts;
}

model::CrScenario scenario_from(const Options& opts) {
  model::CrScenario s;
  s.mtti = minutes(opts.number("mtti", 30.0));
  s.checkpoint_bytes = bytes_from_gb(opts.number("ckpt-gb", 112.0));
  s.local_bw = gbps(opts.number("local-gbps", 15.0));
  s.io_bw_per_node = mbps(opts.number("io-mbps", 100.0));
  return s;
}

model::CrConfig config_from(const Options& opts) {
  model::CrConfig cfg;
  const std::string strategy = opts.text("strategy", "ndp");
  if (strategy == "ndp") {
    cfg.kind = model::ConfigKind::kLocalIoNdp;
  } else if (strategy == "host") {
    cfg.kind = model::ConfigKind::kLocalIoHost;
  } else if (strategy == "io-only") {
    cfg.kind = model::ConfigKind::kIoOnly;
  } else {
    std::fprintf(stderr, "unknown strategy: %s\n", strategy.c_str());
    std::exit(2);
  }
  cfg.compression_factor = opts.number("cf", 0.0);
  cfg.p_local_recovery = opts.number("plocal", 0.85);
  return cfg;
}

model::Evaluation evaluate_config(const model::Evaluator& ev,
                                  const model::CrConfig& cfg,
                                  const Options& opts) {
  const double ratio = opts.number("ratio", 0.0);
  if (ratio > 0 && cfg.kind == model::ConfigKind::kLocalIoHost) {
    return ev.evaluate_at_ratio(cfg,
                                static_cast<std::uint32_t>(ratio));
  }
  return ev.evaluate(cfg);
}

int cmd_project() {
  const auto t = proj::titan();
  const auto e = proj::project_exascale(t);
  TextTable table({"Parameter", "Titan", "Exascale"});
  table.add_row({"nodes", fmt_fixed(t.node_count, 0),
                 fmt_fixed(e.node_count, 0)});
  table.add_row({"node peak", fmt_fixed(t.node_peak_flops / 1e12, 2) + " TF",
                 fmt_fixed(e.node_peak_flops / 1e12, 0) + " TF"});
  table.add_row({"node memory", fmt_si_bytes(t.node_memory_bytes),
                 fmt_si_bytes(e.node_memory_bytes)});
  table.add_row({"system memory", fmt_si_bytes(t.system_memory_bytes),
                 fmt_si_bytes(e.system_memory_bytes)});
  table.add_row({"I/O bandwidth", fmt_si_bytes(t.io_bandwidth) + "/s",
                 fmt_si_bytes(e.io_bandwidth) + "/s"});
  table.add_row({"MTTI", fmt_fixed(to_minutes(t.system_mtti), 0) + " min",
                 fmt_fixed(to_minutes(e.system_mtti), 0) + " min"});
  std::fputs(table.str().c_str(), stdout);
  const auto r = proj::derive_cr_requirements(e);
  std::printf("\n90%% progress needs: commit %.1f s, period %.0f s, "
              "%.2f GB/s per node\n",
              r.commit_time, r.checkpoint_period,
              r.per_node_bandwidth / 1e9);
  return 0;
}

int cmd_evaluate(const Options& opts) {
  model::SimOptions sim;
  sim.trials = static_cast<int>(opts.number("trials", 3));
  sim.total_work = opts.number("hours", 250.0) * 3600;
  const model::Evaluator ev(scenario_from(opts), sim);
  const auto cfg = config_from(opts);
  const auto e = evaluate_config(ev, cfg, opts);

  std::printf("%s\n\n", cfg.label().c_str());
  TextTable tbl(table::breakdown_header("Configuration"));
  tbl.add_row(table::breakdown_row(cfg.label(), e.result.breakdown));
  std::fputs(tbl.str().c_str(), stdout);
  std::printf("\nlocal:IO checkpoint ratio %u, interval %.0f s, "
              "%llu failures over %d trials (%.2f per trial)\n",
              e.io_every, e.interval,
              static_cast<unsigned long long>(e.result.failures),
              e.result.trials, e.result.mean_failures());
  return 0;
}

int cmd_study(const Options& opts) {
  study::StudyConfig cfg;
  cfg.bytes_per_app =
      static_cast<std::size_t>(opts.number("mb", 2.0) * 1e6);
  const std::string app = opts.text("app", "");
  if (!app.empty()) cfg.apps = {app};
  const auto results = study::run_compression_study(cfg);
  TextTable table({"App", "Codec", "Factor", "Speed", "Decomp"});
  for (const auto& m : results.rows) {
    table.add_row({m.app, m.codec, fmt_percent(m.factor, 1),
                   fmt_fixed(m.compress_bw / 1e6, 1) + " MB/s",
                   fmt_fixed(m.decompress_bw / 1e6, 1) + " MB/s"});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_sweep(const Options& opts) {
  const std::string param = opts.text("param", "mtti");
  model::SimOptions sim;
  sim.trials = static_cast<int>(opts.number("trials", 2));
  sim.total_work = opts.number("hours", 200.0) * 3600;
  const auto cfg = config_from(opts);

  TextTable table({param, "progress rate", "ratio"});
  auto run_point = [&](const std::string& label,
                       const model::CrScenario& scenario,
                       const model::CrConfig& point_cfg) {
    const model::Evaluator ev(scenario, sim);
    const auto e = evaluate_config(ev, point_cfg, opts);
    table.add_row({label, fmt_percent(e.progress_rate(), 1),
                   std::to_string(e.io_every)});
  };

  if (param == "mtti") {
    for (double m : {30.0, 60.0, 90.0, 120.0, 150.0}) {
      auto scenario = scenario_from(opts);
      scenario.mtti = minutes(m);
      run_point(fmt_fixed(m, 0) + " min", scenario, cfg);
    }
  } else if (param == "size") {
    for (double g : {14.0, 28.0, 56.0, 84.0, 112.0}) {
      auto scenario = scenario_from(opts);
      scenario.checkpoint_bytes = bytes_from_gb(g);
      run_point(fmt_fixed(g, 0) + " GB", scenario, cfg);
    }
  } else if (param == "plocal") {
    for (double p : {0.2, 0.4, 0.6, 0.8, 0.96}) {
      auto point = cfg;
      point.p_local_recovery = p;
      run_point(fmt_percent(p, 0), scenario_from(opts), point);
    }
  } else {
    std::fprintf(stderr, "unknown sweep parameter: %s\n", param.c_str());
    return 2;
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_faults(const Options& opts) {
  faults::ChaosConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(opts.number("faults", 1));
  cfg.node_count = static_cast<std::uint32_t>(opts.number("nodes", 6));
  cfg.commits = static_cast<std::uint32_t>(opts.number("commits", 24));
  cfg.io_outage = opts.number("outage", 0) != 0;
  const std::string scheme = opts.text("scheme", "copy");
  if (scheme == "xor") {
    cfg.scheme = ckpt::PartnerScheme::kXorGroup;
  } else if (scheme != "copy") {
    std::fprintf(stderr, "unknown scheme: %s\n", scheme.c_str());
    return 2;
  }
  cfg.rates.transient = opts.number("transient", cfg.rates.transient);
  cfg.rates.torn = opts.number("torn", cfg.rates.torn);
  cfg.rates.bitflip = opts.number("bitflip", cfg.rates.bitflip);
  cfg.rates.stall = opts.number("stall", cfg.rates.stall);
  const std::string io_codec = opts.text("io-codec", "null");
  if (io_codec == "null") {
    cfg.io_codec = compress::CodecId::kNull;
  } else if (io_codec == "rle") {
    cfg.io_codec = compress::CodecId::kRle;
  } else if (io_codec == "lz4") {
    cfg.io_codec = compress::CodecId::kLz4Style;
  } else if (io_codec == "deflate") {
    cfg.io_codec = compress::CodecId::kDeflateStyle;
  } else if (io_codec == "bzip") {
    cfg.io_codec = compress::CodecId::kBzipStyle;
  } else if (io_codec == "xz") {
    cfg.io_codec = compress::CodecId::kXzStyle;
  } else {
    std::fprintf(stderr, "unknown io codec: %s\n", io_codec.c_str());
    return 2;
  }
  cfg.io_chunk_bytes = static_cast<std::size_t>(
      opts.number("io-chunk", static_cast<double>(cfg.io_chunk_bytes)));
  if (cfg.io_chunk_bytes == 0) {
    std::fputs("io-chunk must be positive\n", stderr);
    return 2;
  }

  const std::string trace_path = opts.text("trace", "");
  const std::string metrics_path = opts.text("metrics", "");
  obs::Tracer tracer(!trace_path.empty());
  obs::MetricsRegistry metrics;
  if (!trace_path.empty()) cfg.trace = &tracer;
  if (!metrics_path.empty()) cfg.metrics = &metrics;

  const auto report = faults::run_chaos(cfg);

  // NDP drain leg: the agent drains one compressible image through a
  // fault-injecting IO store seeded from the same schedule, so the
  // trace also covers the drain/compress/wire stages and the health
  // table gets the drain-side row (docs/OBSERVABILITY.md). Entirely
  // serial on the virtual clock, so thread-count invariance holds.
  auto drain_plan = std::make_shared<faults::FaultPlan>(
      exec::sub_seed(cfg.seed, 0x6472u), cfg.rates);
  faults::FaultyKvStore drain_io(drain_plan, faults::io_target());
  ndp::AgentConfig ac;
  ac.uncompressed_capacity = 4ull << 20;
  ac.compressed_capacity = 4ull << 20;
  ac.codec = compress::CodecId::kDeflateStyle;
  ac.codec_level = 1;
  ac.compress_bw = 1e6;
  ac.io_bw = 0.5e6;
  if (!trace_path.empty()) {
    ac.trace = &tracer;
    ac.trace_track = 40;
    tracer.set_track_name(43, "drain io");
  }
  ndp::NdpAgent agent(ac, drain_io);
  if (obs::TraceBuffer* rb = tracer.root()) drain_io.set_trace(rb, 43);
  Bytes drain_image(256ull << 10);
  {
    Rng rng(exec::sub_seed(cfg.seed, 0x696fu));
    for (auto& b : drain_image) {
      b = static_cast<std::byte>(rng.next_below(5));
    }
  }
  (void)agent.host_commit(1, std::move(drain_image));
  const double drain_s = agent.pump(1e9);

  std::printf("chaos schedule seed %llu: %llu commits, %u nodes, "
              "scheme %s%s\n\n",
              static_cast<unsigned long long>(report.seed),
              static_cast<unsigned long long>(report.commits),
              cfg.node_count, scheme.c_str(),
              cfg.io_outage ? ", IO outage window" : "");

  TextTable table({"Level", "State", "Puts", "Retries", "Failures",
                   "VerifyFail", "Quarantined", "Repairs", "Backoff"});
  auto level_row = [&](const char* name, const ckpt::LevelHealth& h) {
    table.add_row({name, ckpt::to_string(h.state),
                   std::to_string(h.puts), std::to_string(h.put_retries),
                   std::to_string(h.put_failures),
                   std::to_string(h.verify_failures),
                   std::to_string(h.quarantined),
                   std::to_string(h.repairs),
                   fmt_fixed(h.backoff_seconds, 2) + " s"});
  };
  level_row("local", report.health.local);
  level_row("partner", report.health.partner);
  level_row("io", report.health.io);
  level_row("ndp-drain", agent.drain_health());
  std::fputs(table.str().c_str(), stdout);

  std::printf("\ncommits %llu (degraded %llu), recoveries %llu of %llu "
              "probes, unrecoverable %llu\n",
              static_cast<unsigned long long>(report.health.commits),
              static_cast<unsigned long long>(
                  report.health.degraded_commits),
              static_cast<unsigned long long>(report.recoveries),
              static_cast<unsigned long long>(report.recover_calls),
              static_cast<unsigned long long>(report.unrecoverable));
  std::printf("faults injected: %llu transient, %llu torn, %llu bitflip, "
              "%llu stall (%.2f s), %llu outage\n",
              static_cast<unsigned long long>(
                  report.faults.transient_errors),
              static_cast<unsigned long long>(report.faults.torn_writes),
              static_cast<unsigned long long>(report.faults.bit_flips),
              static_cast<unsigned long long>(report.faults.stalls),
              report.faults.stall_seconds,
              static_cast<unsigned long long>(report.faults.outage_errors));
  const auto& as = agent.stats();
  std::printf("ndp drain: %llu IO puts (%llu retries), %llu host "
              "fallbacks, %.2f virtual s\n",
              static_cast<unsigned long long>(as.io_put_attempts),
              static_cast<unsigned long long>(as.drain_put_retries),
              static_cast<unsigned long long>(as.drain_put_failures),
              drain_s);
  std::printf("fingerprint %08x, violations %llu\n", report.fingerprint,
              static_cast<unsigned long long>(report.violations));
  for (const auto& note : report.violation_notes) {
    std::printf("  violation: %s\n", note.c_str());
  }
  if (!trace_path.empty()) {
    tracer.write(trace_path);
    std::printf("trace: %s (%zu events, fingerprint %08x)\n",
                trace_path.c_str(), tracer.events().size(),
                tracer.fingerprint());
  }
  if (!metrics_path.empty()) {
    const ckpt::LevelHealth dh = agent.drain_health();
    metrics.counter("ndp.drain.puts").add(dh.puts);
    metrics.counter("ndp.drain.put_retries").add(dh.put_retries);
    metrics.counter("ndp.drain.put_failures").add(dh.put_failures);
    metrics.counter("ndp.drain.verify_failures").add(dh.verify_failures);
    metrics.counter("ndp.drain.quarantined").add(dh.quarantined);
    metrics.counter("ndp.drain.host_fallbacks").add(as.drain_put_failures);
    metrics.gauge("ndp.drain.backoff_seconds").set(dh.backoff_seconds);
    exec::RunMeta meta;
    meta.bench = "chaos";
    meta.seed = cfg.seed;
    meta.trials = 1;
    meta.threads = exec::global_thread_count();
    meta.config = "nodes=" + std::to_string(cfg.node_count) +
                  " commits=" + std::to_string(cfg.commits) +
                  " scheme=" + scheme;
    metrics.write(metrics_path, meta);
    std::printf("metrics: %s (fingerprint %08x)\n", metrics_path.c_str(),
                metrics.fingerprint());
  }
  return report.violations == 0 ? 0 : 1;
}

int cmd_failures(const Options& opts) {
  cluster::FailureAnalysisConfig cfg;
  cfg.node_count = static_cast<std::uint32_t>(opts.number("nodes", 100000));
  cfg.node_mttf = years(opts.number("mttf-years", 5.0));
  cfg.rebuild_time = minutes(opts.number("rebuild-min", 10.0));
  cfg.target_failures =
      static_cast<std::uint64_t>(opts.number("failures", 100000));
  cfg.seed = static_cast<std::uint64_t>(opts.number("seed", 1));
  cfg.weibull_shape = opts.number("weibull-shape", 0.7);

  const std::string dist = opts.text("distribution", "exponential");
  if (dist == "weibull") {
    cfg.distribution = cluster::FailureDistribution::kWeibull;
  } else if (dist != "exponential") {
    std::fprintf(stderr, "unknown distribution: %s\n", dist.c_str());
    return 2;
  }
  cfg.cascade.probability = opts.number("cascade", 0.0);
  cfg.racks.rack_size =
      static_cast<std::uint32_t>(opts.number("racks", 0));
  if (cfg.racks.rack_size > 0) {
    cfg.racks.outage_mttf = years(opts.number("rack-mttf-years", 250.0));
  }
  const std::string placement = opts.text("placement", "ring");
  if (placement == "cross-rack") {
    cfg.placement = cluster::PartnerPlacement::kCrossRack;
  } else if (placement != "ring") {
    std::fprintf(stderr, "unknown placement: %s\n", placement.c_str());
    return 2;
  }
  const std::string engine = opts.text("engine", "auto");
  if (engine == "calendar") {
    cfg.engine = cluster::FailureEngine::kCalendar;
  } else if (engine == "superposition") {
    cfg.engine = cluster::FailureEngine::kSuperposition;
  } else if (engine != "auto") {
    std::fprintf(stderr, "unknown engine: %s\n", engine.c_str());
    return 2;
  }
  cfg.energy.enabled = opts.number("energy", 0) != 0;

  const int replicas =
      std::max(1, static_cast<int>(opts.number("replicas", 1)));
  const auto sum = cluster::run_failure_replicates(cfg, replicas);

  std::printf("failure simulator: %u nodes, %s renewals, %d replica%s "
              "(seed %llu)\n\n",
              cfg.node_count,
              dist == "weibull" ? "weibull" : "exponential", replicas,
              replicas == 1 ? "" : "s",
              static_cast<unsigned long long>(cfg.seed));

  TextTable table({"Metric", "Value"});
  table.add_row({"failures", std::to_string(sum.total_failures)});
  table.add_row({"local recoverable",
                 std::to_string(sum.total_local_recoverable)});
  table.add_row({"io required", std::to_string(sum.total_io_required)});
  table.add_row({"P(local)", fmt_percent(sum.p_local(), 3)});
  if (cfg.cascade.probability > 0.0) {
    table.add_row({"cascade failures",
                   std::to_string(sum.total_cascade_failures)});
    table.add_row({"P(cascade)", fmt_percent(sum.p_cascade(), 2)});
  }
  if (cfg.racks.rack_size > 0) {
    table.add_row({"rack outages", std::to_string(sum.total_rack_outages)});
    table.add_row({"rack node failures",
                   std::to_string(sum.total_rack_node_failures)});
    table.add_row({"P(rack)", fmt_percent(sum.p_rack(), 2)});
  }
  table.add_row({"system MTTI",
                 fmt_fixed(to_minutes(sum.mean_system_mtti()), 2) + " min"});
  table.add_row({"events processed",
                 std::to_string(sum.total_events_processed)});
  if (cfg.energy.enabled) {
    table.add_row({"energy (total)",
                   fmt_fixed(sum.total_energy_joules / 1e12, 3) + " TJ"});
  }
  std::fputs(table.str().c_str(), stdout);

  const std::string csv_path = opts.text("csv", "");
  if (!csv_path.empty()) {
    std::FILE* out = csv_path == "-" ? stdout
                                     : std::fopen(csv_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 2;
    }
    if (csv_path == "-") std::fputs("\n", out);
    std::fputs("replica,failures,local_recoverable,io_required,"
               "cascade_failures,rack_outages,rack_node_failures,"
               "events_processed,elapsed_s,energy_j\n",
               out);
    for (std::size_t r = 0; r < sum.runs.size(); ++r) {
      const auto& run = sum.runs[r];
      std::fprintf(out, "%zu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.6g,%.6g\n",
                   r, static_cast<unsigned long long>(run.failures),
                   static_cast<unsigned long long>(run.local_recoverable),
                   static_cast<unsigned long long>(run.io_required),
                   static_cast<unsigned long long>(run.cascade_failures),
                   static_cast<unsigned long long>(run.rack_outages),
                   static_cast<unsigned long long>(run.rack_node_failures),
                   static_cast<unsigned long long>(run.events_processed),
                   run.elapsed, run.energy.total_joules());
    }
    if (csv_path != "-") {
      std::fclose(out);
      std::printf("\ncsv: %s (%zu replicas)\n", csv_path.c_str(),
                  sum.runs.size());
    }
  }

  // Exact-counter invariant: every failure is classified exactly once.
  if (sum.total_failures !=
      sum.total_local_recoverable + sum.total_io_required) {
    std::fputs("\nINVARIANT VIOLATION: failures != local + io\n", stderr);
    return 1;
  }
  return 0;
}

int cmd_serve(const Options& opts) {
  svc::SvcChaosConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(opts.number("seed", 1));
  cfg.tenants = static_cast<std::uint32_t>(opts.number("tenants", 12));
  cfg.waves = static_cast<std::uint32_t>(opts.number("waves", 6));
  cfg.payload_bytes =
      static_cast<std::size_t>(opts.number("bytes", 1024));
  cfg.faults = opts.number("faults", 1) != 0;
  cfg.quota_every =
      static_cast<std::uint32_t>(opts.number("quota-every", 5));
  cfg.nvm_budget_fraction = opts.number("nvm-fraction", 0.30);
  const std::string trace_path = opts.text("trace", "");
  const std::string metrics_path = opts.text("metrics", "");
  obs::Tracer tracer(!trace_path.empty());
  if (!trace_path.empty()) cfg.trace = &tracer;
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;

  const auto report = svc::run_svc_chaos(cfg);

  std::printf("checkpoint service: %u tenants, %u waves, seed %llu%s\n\n",
              report.tenants, cfg.waves,
              static_cast<unsigned long long>(report.seed),
              cfg.faults ? ", seeded faults on odd tenants" : "");

  TextTable table({"Tenant", "Weight", "Accepted", "Throttled", "Denied",
                   "Commits", "IO bytes", "p50", "p99", "Restores"});
  for (std::uint32_t t = 0; t < report.tenants; ++t) {
    char name[16];
    std::snprintf(name, sizeof name, "t%04u", t);
    const std::string p = std::string("svc.") + name;
    const auto denied =
        metrics.counter(p + ".denied_backpressure").value() +
        metrics.counter(p + ".denied_quota").value();
    table.add_row(
        {name, fmt_fixed(metrics.gauge(p + ".weight").value(), 0),
         std::to_string(metrics.counter(p + ".accepted").value()),
         std::to_string(metrics.counter(p + ".throttled").value()),
         std::to_string(denied),
         std::to_string(metrics.counter(p + ".commits").value()),
         std::to_string(metrics.counter(p + ".io_bytes").value()),
         fmt_fixed(metrics.gauge(p + ".latency_p50").value() * 1e3, 3) +
             " ms",
         fmt_fixed(metrics.gauge(p + ".latency_p99").value() * 1e3, 3) +
             " ms",
         std::to_string(metrics.counter(p + ".restarts").value())});
  }
  std::fputs(table.str().c_str(), stdout);

  std::printf("\nfairness: jain %.4f raw, %.4f weight-normalized; "
              "virtual time %.4f s\n",
              report.jain_io, report.jain_io_weighted,
              report.virtual_time);
  std::printf("admission: %llu staged, %llu throttled, %llu denied "
              "(backpressure), %llu denied (quota), %llu seam denials\n",
              static_cast<unsigned long long>(report.staged),
              static_cast<unsigned long long>(report.throttled),
              static_cast<unsigned long long>(report.denied_backpressure),
              static_cast<unsigned long long>(report.denied_quota),
              static_cast<unsigned long long>(report.quota_write_denials));
  std::printf("restores: %llu of %llu probes, %llu faults injected\n",
              static_cast<unsigned long long>(report.restored),
              static_cast<unsigned long long>(report.restarts),
              static_cast<unsigned long long>(report.fault_injections));
  std::printf("fingerprint %08x, violations %llu\n", report.fingerprint,
              static_cast<unsigned long long>(report.violations));
  for (const auto& note : report.violation_notes) {
    std::printf("  violation: %s\n", note.c_str());
  }
  if (!trace_path.empty()) {
    tracer.write(trace_path);
    std::printf("trace: %s (%zu events)\n", trace_path.c_str(),
                tracer.events().size());
  }
  if (!metrics_path.empty()) {
    exec::RunMeta meta;
    meta.bench = "serve";
    meta.seed = report.seed;
    meta.trials = 1;
    meta.threads = exec::global_thread_count();
    meta.config = "tenants=" + std::to_string(report.tenants) +
                  " waves=" + std::to_string(cfg.waves);
    metrics.write(metrics_path, meta);
    if (metrics_path != "-") {
      std::printf("metrics: %s (fingerprint %08x)\n", metrics_path.c_str(),
                  metrics.fingerprint());
    }
  }
  return report.violations == 0 ? 0 : 1;
}

int cmd_equiv(const Options& opts) {
  harness::EquivalenceConfig config;
  config.kernel = opts.text("kernel", "cg");
  config.mode = harness::payload_mode_from(opts.text("mode", "full"));
  config.node_count = static_cast<std::uint32_t>(opts.number("nodes", 3));
  config.iterations = static_cast<std::uint64_t>(opts.number("iters", 12));
  config.cadence = static_cast<std::uint64_t>(opts.number("cadence", 3));
  config.state_bytes =
      static_cast<std::size_t>(opts.number("bytes", 32 << 10));
  config.seed = static_cast<std::uint64_t>(opts.number("seed", 1));
  config.rates.transient = opts.number("transient", 0.0);
  config.rates.torn = opts.number("torn-rate", 0.0);
  config.rates.bitflip = opts.number("bitflip", 0.0);
  config.rates.stall = opts.number("stall", 0.0);
  config.fault_seed =
      static_cast<std::uint64_t>(opts.number("fault-seed", 1));
  config.torn = opts.number("torn", 1) != 0;
  const std::string io_root = opts.text("io-root", "");
  if (!io_root.empty()) config.io_root = io_root;

  if (opts.number("list-crash-points", 0) != 0) {
    const auto golden = harness::run_golden(config);
    for (std::size_t k = 0; k < golden.points.size(); ++k) {
      std::printf("%4zu  %s\n", k,
                  faults::describe(golden.points[k]).c_str());
    }
    std::printf("%zu crash points over %llu commits (%s payloads, "
                "kernel %s)\n",
                golden.points.size(),
                static_cast<unsigned long long>(golden.commits),
                harness::to_string(config.mode), config.kernel.c_str());
    return 0;
  }

  if (opts.values.count("crash-point") > 0) {
    const auto k =
        static_cast<std::size_t>(opts.number("crash-point", 0));
    const auto golden = harness::run_golden(config);
    if (k >= golden.points.size()) {
      std::fprintf(stderr, "crash point %zu out of range (0..%zu)\n", k,
                   golden.points.size() - 1);
      return 2;
    }
    const auto res = harness::run_crash_point(config, golden, k);
    std::printf("crash point %zu: %s\n", k,
                faults::describe(golden.points[k]).c_str());
    std::printf("  crashed:    %s\n", res.crashed ? "yes" : "no");
    if (res.recovered) {
      std::printf("  recovered:  checkpoint %llu\n",
                  static_cast<unsigned long long>(res.recovered_id));
    } else {
      std::printf("  recovered:  none (restarted from initial state)\n");
    }
    std::printf("  equivalent: %s\n", res.ok() ? "yes" : "NO");
    if (!res.failure.empty()) {
      std::printf("  failure:    %s\n", res.failure.c_str());
    }
    return res.ok() ? 0 : 1;
  }

  const auto stride = static_cast<std::size_t>(opts.number("stride", 1));
  const auto report = harness::run_sweep(config, stride);
  std::printf("equivalence sweep: kernel %s, %s payloads, %u nodes\n",
              config.kernel.c_str(), harness::to_string(config.mode),
              config.node_count);
  std::printf("  crash points:  %zu (ran %zu, stride %zu)\n",
              report.points_total, report.points_run,
              std::max<std::size_t>(1, stride));
  std::printf("  failures:      %zu\n", report.failures);
  std::printf("  fingerprint:   %08x\n", report.fingerprint);
  for (const auto& f : report.failed) {
    std::printf("  FAILED point %zu: %s\n      %s\n", f.point,
                faults::describe(report.golden.points[f.point]).c_str(),
                f.failure.c_str());
  }
  return report.ok() ? 0 : 1;
}

void usage() {
  std::puts("usage: ndpcr {project|evaluate|study|sweep|chaos|equiv|"
            "failures|serve} [--key value ...]");
  std::puts("       ndpcr --faults <seed> [--nodes n --commits n "
            "--scheme copy|xor --outage 0|1]");
  std::puts("       ndpcr --faults <seed> --trace out.json "
            "--metrics metrics.json   (observability outputs)");
  std::puts("see the comment block in tools/ndpcr_cli.cpp for options");
}

int run(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  // `ndpcr --faults <seed> ...` is flag-led: everything is options.
  const bool flag_led = command.rfind("--", 0) == 0;
  const Options opts = parse_options(argc, argv, flag_led ? 1 : 2);
  const auto threads = static_cast<unsigned>(opts.number("threads", 0));
  if (threads > 0) ndpcr::exec::set_global_threads(threads);
  if (flag_led) {
    if (opts.values.count("faults") > 0) return cmd_faults(opts);
    usage();
    return 2;
  }
  if (command == "project") return cmd_project();
  if (command == "evaluate") return cmd_evaluate(opts);
  if (command == "study") return cmd_study(opts);
  if (command == "sweep") return cmd_sweep(opts);
  if (command == "chaos") return cmd_faults(opts);
  if (command == "equiv") return cmd_equiv(opts);
  if (command == "failures") return cmd_failures(opts);
  if (command == "serve") return cmd_serve(opts);
  usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A configuration the library rejects is a usage error, not a crash.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ndpcr: %s\n", e.what());
    return 2;
  }
}
