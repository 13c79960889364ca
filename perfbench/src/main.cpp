// ndpcr_perfbench: the repository's end-to-end benchmark binary.
//
//   ndpcr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--smoke] [--trace-out PATH] [--commit ID]
//
// --trace 0 measures one untraced pass of S seconds and reports the
// end-to-end metrics. --trace 1 runs an untraced pass and then a traced
// pass of S/2 seconds each, reports the per-layer metrics of the traced
// pass, its overhead against the untraced one, and writes the traced
// pass's Chrome trace to --trace-out. Exact counts must agree between the
// two passes.
//
// Output: a "meta" line (host stamp, exact counts, tail percentile and
// sample count, any correctness misses), then, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}. The exit
// status is 0 only when every output checked out.

#include <cpuid.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef NDPCR_PERFBENCH_BUILD_TYPE
#define NDPCR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported by every workload (BENCHMARK.json
// "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"progress_rate", "ratio"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

// The per-layer metrics (BENCHMARK.json "per_layer"). A workload that
// does not reach a layer reports it as 0.
const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"workloads.iterate_s", "s"},
      {"workloads.steps_rerun", "count"},
      {"workloads.capture_s", "s"},
      {"workloads.restore_s", "s"},
      {"ckpt.commit_s", "s"},
      {"ckpt.commit_cpu_per_wall", "ratio"},
      {"ckpt.recover_s", "s"},
      {"ckpt.recover_from.local", "count"},
      {"ckpt.recover_from.partner", "count"},
      {"ckpt.recover_from.io", "count"},
      {"ckpt.bytes.payload", "B"},
      {"ckpt.bytes.local", "B"},
      {"ckpt.bytes.partner", "B"},
      {"ckpt.bytes.io_logical", "B"},
      {"ckpt.bytes.io_written", "B"},
      {"ckpt.put_retries", "count"},
      {"ckpt.verify_failures", "count"},
      {"ckpt.writer.enqueue_stalls", "count"},
      {"ckpt.writer.queue_peak", "count"},
      {"ckpt.delta_factor", "ratio"},
      {"compress.choice.null", "count"},
      {"compress.choice.nlz4", "count"},
      {"compress.choice.nlz4-accel", "count"},
      {"compress.choice.ngzip", "count"},
      {"compress.probe.nlz4-accel", "count"},
      {"compress.replay_mib_s", "MiB/s"},
      {"ndp.host_commit_s", "s"},
      {"ndp.pump_s", "s"},
      {"ndp.bytes_compressed", "B"},
      {"ndp.bytes_to_io", "B"},
      {"ndp.drains_completed", "count"},
      {"ndp.drains_skipped", "count"},
      {"ndp.drain_useful_frac", "ratio"},
      {"ndp.restore_s", "s"},
      {"ndp.host_commit_refused", "count"},
      {"svc.commit_s", "s"},
      {"svc.rounds", "count"},
      {"svc.restart_s", "s"},
      {"svc.throttled", "count"},
      {"svc.denied", "count"},
      {"svc.latency_vt_p99", "s"},
      {"cluster.analyze_s", "s"},
      {"cluster.events_processed", "count"},
      {"cluster.events_per_failure", "ratio"},
      {"cluster.p_local", "ratio"},
      {"exec.threads", "count"},
      {"restart_ms_p50", "ms"},
      {"ckpt_gib_s", "GiB/s"},
      {"drain_mib_s", "MiB/s"},
      {"io_bytes_per_byte", "ratio"},
      {"jain_weighted", "ratio"},
      {"sim_failures_per_s", "1/s"},
      {"failed_frac", "ratio"},
      {"op_ms_p50", "ms"},
      {"op.samples", "count"},
      {"op.tail_pct", "%"},
      {"op.tail_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.self_s.workloads", "s"},
      {"trace.self_s.ckpt", "s"},
      {"trace.self_s.compress", "s"},
      {"trace.self_s.ndp", "s"},
      {"trace.self_s.svc", "s"},
      {"trace.self_s.cluster", "s"},
  };
  return specs;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: ndpcr_perfbench --workload "
               "campaign_host|campaign_ndp|service_mix|failure_sim "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-out PATH] [--commit ID]\n";
  std::exit(2);
}

struct Args {
  Options opt;
  std::string commit = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.opt.trace_out = value;
      } else if (flag == "--commit") {
        a.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.opt.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max = __get_cpuid_max(0x80000000, nullptr);
  if (max < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Result run(const Options& opt, double seconds, ndpcr::obs::Tracer* tracer) {
  if (opt.workload == "campaign_host") {
    return run_campaign_host(opt, seconds, tracer);
  }
  if (opt.workload == "campaign_ndp") {
    return run_campaign_ndp(opt, seconds, tracer);
  }
  if (opt.workload == "service_mix") {
    return run_service_mix(opt, seconds, tracer);
  }
  if (opt.workload == "failure_sim") {
    return run_failure_sim(opt, seconds, tracer);
  }
  usage("unknown workload " + opt.workload);
}

// The exact counts, plus every per-layer value a workload derived from
// them, land under their per-layer names.
std::map<std::string, Metric> per_layer(const Result& r) {
  std::map<std::string, Metric> out;
  for (const auto& spec : per_layer_specs()) {
    Metric m{0.0, spec.unit};
    if (const auto it = r.exact.find(spec.name); it != r.exact.end()) {
      m.value = it->second;
    }
    if (const auto it = r.layer.find(spec.name); it != r.layer.end()) {
      m.value = it->second.value;
    }
    out[spec.name] = m;
  }
  const Tail tail = tail_of(r.op, r.tail_cap);
  out["op_ms_p50"].value = r.op.median() * 1e3;
  out["op.samples"].value = static_cast<double>(r.op.size());
  out["op.tail_pct"].value = tail.percentile;
  out["op.tail_ms"].value = tail.value * 1e3;
  out["failed_frac"].value =
      r.attempted ? static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted)
                  : 1.0;
  return out;
}

std::map<std::string, Metric> end_to_end(const Result& r) {
  std::map<std::string, Metric> out = r.e2e;
  out["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  return out;
}

int main_impl(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Options& opt = args.opt;

  Result result;
  std::map<std::string, Metric> metrics;
  if (!opt.trace) {
    result = run(opt, opt.seconds, nullptr);
    const auto e2e = end_to_end(result);
    for (const auto& spec : kEndToEnd) metrics[spec.name] = e2e.at(spec.name);
  } else {
    const Result plain = run(opt, opt.seconds / 2, nullptr);
    ndpcr::obs::Tracer tracer(true);
    result = run(opt, opt.seconds / 2, &tracer);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.errors.insert(result.errors.end(), plain.errors.begin(),
                         plain.errors.end());
    result.check(plain.exact == result.exact,
                 "exact counts differ between the traced and untraced pass");
    metrics = per_layer(result);
    metrics["trace.overhead_frac"].value =
        result.op.median() / plain.op.median() - 1.0;
    for (const auto& [layer, s] : layer_self_seconds(tracer)) {
      const auto it = metrics.find("trace.self_s." + layer);
      if (it != metrics.end()) {
        it->second.value = s / static_cast<double>(result.units);
      }
    }
    if (!opt.trace_out.empty()) tracer.write(opt.trace_out);
  }

  std::ostringstream meta;
  meta << "meta {\"workload\":" << json_string(opt.workload)
       << ",\"seed\":" << opt.seed << ",\"smoke\":" << (opt.smoke ? 1 : 0)
       << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"host\":{\"cpu\":" << json_string(cpu_model())
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"avx512f\":" << (__builtin_cpu_supports("avx512f") ? 1 : 0)
       << ",\"vpclmulqdq\":" << (__builtin_cpu_supports("vpclmulqdq") ? 1 : 0)
       << ",\"gfni\":" << (__builtin_cpu_supports("gfni") ? 1 : 0)
       << ",\"pool_threads\":" << result.layer.at("exec.threads").value
       << ",\"build_type\":" << json_string(NDPCR_PERFBENCH_BUILD_TYPE)
       << ",\"commit\":" << json_string(args.commit) << "}"
       << ",\"units\":" << result.units
       << ",\"op_samples\":" << result.op.size()
       << ",\"op_tail_pct\":"
       << json_number(tail_of(result.op, result.tail_cap).percentile)
       << ",\"exact\":{";
  bool first = true;
  for (const auto& [name, v] : result.exact) {
    meta << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  meta << "},\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    meta << (i ? "," : "") << json_string(result.errors[i]);
  }
  meta << "]}";
  std::cout << meta.str() << "\n";

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ",") << json_string(name)
        << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  for (const auto& e : result.errors) std::cerr << "miss: " << e << "\n";
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
