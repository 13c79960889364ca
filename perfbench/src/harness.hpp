#pragma once

// Measurement plumbing shared by the benchmark workloads: wall-clock
// timing of calls into the library, sample sets with medians and tail
// percentiles, per-layer totals, exact-count bookkeeping, and the result
// record a workload hands back to main().
//
// Every timing is taken from outside the library: a Probe::Scope wraps
// one public call, adds its duration to a named per-layer total and, when
// the run is traced, records an obs::Tracer::wall_span around it. Nothing
// here reaches into src/ beyond the public headers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

// Process CPU seconds (user + system) so far, from getrusage.
[[nodiscard]] double process_cpu_seconds();

// Peak resident set size of this process in MiB, from getrusage.
[[nodiscard]] double peak_rss_mib();

// Pool size of service_mix, the one multi-threaded workload: the 4-vCPU
// host the benchmark was sized on.
constexpr unsigned kPoolThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny sizes and a short clock: the benchmark's own smoke test.
  bool smoke = false;
  std::string trace_out;  // Chrome trace path of a traced run ("" = none)
};

// One timing's samples, in seconds.
class Samples {
 public:
  void add(double seconds) { values_.push_back(seconds); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

// The highest percentile, no higher than `cap`, that leaves at least ten
// samples beyond it (p50 at worst).
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};
[[nodiscard]] Tail tail_of(const Samples& samples, double cap);

// Named per-layer time totals, with optional wall-clock spans. Span names
// are "<layer>.<call>"; the layer is the span category, so a trace groups
// by module.
class Probe {
 public:
  explicit Probe(ndpcr::obs::Tracer* tracer) : tracer_(tracer) {}

  class Scope {
   public:
    Scope(Probe& probe, std::string_view name, std::string_view layer);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Ends the scope (idempotent) and returns its duration in seconds.
    double stop();

   private:
    Probe& probe_;
    std::string_view name_;
    Clock::time_point t0_;
    double seconds_ = -1.0;
    ndpcr::obs::Tracer::WallSpan span_;
  };

  [[nodiscard]] double total(std::string_view name) const;
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr; }

 private:
  ndpcr::obs::Tracer* tracer_;
  std::map<std::string, double, std::less<>> totals_;
};

// Self time per layer (span category) over the tracer's wall spans: each
// span's duration minus the part its child spans cover.
[[nodiscard]] std::map<std::string, double> layer_self_seconds(
    const ndpcr::obs::Tracer& tracer);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload pass measured. `e2e` and `layer` hold the metrics by
// their BENCHMARK.json names; `exact` holds the counts that must repeat
// bit-for-bit across work units, passes and runs.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few correctness misses
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, double> exact;
  std::uint64_t units = 0;  // work units measured
  Samples op;               // the workload's blocking operation
  double tail_cap = 90.0;   // highest percentile op_ms_tail may use

  // Count one operation; a false `ok` is a correctness miss.
  void check(bool ok, const std::string& what);
};

// Compare one work unit's exact counts with the first unit's; a mismatch
// is a correctness miss.
void check_exact(Result& result, const std::map<std::string, double>& unit);

// Samples a tail percentile `pct` needs to leave ten beyond it.
[[nodiscard]] std::size_t samples_for_tail(double pct);

// Run work units until `seconds` of measured time have passed and
// `enough()` holds. `unit()` returns the seconds it measured.
std::uint64_t run_units(double seconds, const std::function<bool()>& enough,
                        const std::function<double()>& unit);

}  // namespace perfbench
