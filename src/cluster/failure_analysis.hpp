#pragma once

// Discrete-event failure analysis for partner-redundant multilevel C/R.
//
// The paper takes P(recovery from local/partner) as an input (85%, or 96%
// after improvements, citing Moody et al.). This module derives that
// probability from first principles: nodes fail under a renewal process
// (exponential, or Weibull with shape < 1 for the clustered failures
// Schroeder & Gibson measured); a failed node's state is rebuilt from its
// partner copy over a rebuild window; a failure is *not* recoverable from
// the partner level when the partner's copy is itself unavailable - the
// partner died first and is still rebuilding (the classic double-failure
// window), the same cascade or rack outage took both, or the partner sits
// in the same downed rack.
//
// Two engines run the same process (docs/SIM.md):
//
//   kCalendar       the DES on sim::CalendarQueue with struct-of-arrays
//                   node state - O(1) amortized scheduling, and the only
//                   engine for cascades, rack outages and Weibull
//                   inter-arrivals
//   kSuperposition  exact fast path for the memoryless case (exponential
//                   inter-arrivals, no cascades, no rack outages): the
//                   union of N independent Poisson processes is one
//                   Poisson process of rate N/mttf with a uniform victim,
//                   so the event loop needs no queue at all
//
// kAuto picks kSuperposition when the configuration is memoryless and
// kCalendar otherwise. Engines are individually deterministic in the
// seed but sample *different* (equally valid) failure paths for the same
// seed; golden tests pin the calendar engine's exact counters.

#include <cstdint>

#include "common/rng.hpp"

namespace ndpcr::obs {
class MetricsRegistry;
}  // namespace ndpcr::obs

namespace ndpcr::cluster {

enum class FailureDistribution : std::uint8_t {
  kExponential,
  kWeibull,  // renewal process; shape < 1 over-disperses (bursty)
};

// Where node n's partner copy lives. Ring keeps it on n+1 - usually the
// same rack, so a rack outage takes both copies. CrossRack places it on
// the same slot of the next rack (n + rack_size), trading rack-outage
// immunity for cross-rack rebuild traffic.
enum class PartnerPlacement : std::uint8_t { kRing, kCrossRack };

enum class FailureEngine : std::uint8_t {
  kAuto,
  kCalendar,
  kSuperposition,
};

// A failure triggers a correlated burst: with `probability`, between 1
// and `max_fanout` victims within `radius` ring-positions of the origin
// have their next failure pulled forward into (now, now + window].
// Secondary failures do not re-trigger (no chain explosions).
struct CascadeModel {
  double probability = 0.0;
  std::uint32_t max_fanout = 8;
  std::uint32_t radius = 16;
  double window = 120.0;  // seconds
};

// Rack-level outages: racks of `rack_size` consecutive nodes fail
// together under their own exponential process. Every node of the rack
// counts as failed, stays dark for `outage_duration`, then rebuilds for
// the usual rebuild window.
struct RackModel {
  std::uint32_t rack_size = 0;  // 0 = no rack structure
  double outage_mttf = 0.0;     // per-rack, seconds; 0 = no outages
  double outage_duration = 900.0;
};

// Per-phase energy accounting (Moran et al.: C/R phases draw measurably
// different power). Joules are derived *after* the run from the exact
// event counters and closed-form phase durations - no per-event float
// accumulation, so replica merge order cannot drift the totals.
struct EnergyModel {
  bool enabled = false;
  double compute_watts = 165.0;
  double checkpoint_watts = 185.0;
  double rebuild_watts = 140.0;
  double restart_watts = 175.0;
  double checkpoint_interval = 3600.0;   // per-node cadence, seconds
  double checkpoint_write_time = 60.0;   // seconds per checkpoint
  double restart_time_local = 90.0;      // restart from the partner copy
  double restart_time_io = 1500.0;       // restart from the IO level
};

struct FailureAnalysisConfig {
  std::uint32_t node_count = 1000;
  double node_mttf = 5.0 * 365.25 * 86400;  // 5 years, seconds
  double rebuild_time = 600.0;   // partner copy rebuild window (s)
  double sim_duration = 0.0;     // 0 = run until `target_failures` observed
  std::uint64_t target_failures = 100000;
  std::uint64_t seed = 1;

  FailureDistribution distribution = FailureDistribution::kExponential;
  double weibull_shape = 0.7;    // used when distribution == kWeibull
  PartnerPlacement placement = PartnerPlacement::kRing;
  CascadeModel cascade;
  RackModel racks;
  EnergyModel energy;
  FailureEngine engine = FailureEngine::kAuto;

  // Optional snapshot sink: counters and per-phase energy gauges under
  // "cluster.*" (docs/OBSERVABILITY.md).
  obs::MetricsRegistry* metrics = nullptr;

  [[nodiscard]] bool memoryless() const {
    return distribution == FailureDistribution::kExponential &&
           cascade.probability <= 0.0 &&
           (racks.rack_size == 0 || racks.outage_mttf <= 0.0);
  }
};

struct EnergyReport {
  double compute_joules = 0.0;
  double checkpoint_joules = 0.0;
  double rebuild_joules = 0.0;
  double restart_joules = 0.0;

  [[nodiscard]] double total_joules() const {
    return compute_joules + checkpoint_joules + rebuild_joules +
           restart_joules;
  }
  // C/R + recovery share of total energy; 0 when nothing was consumed.
  [[nodiscard]] double overhead_fraction() const {
    const double total = total_joules();
    return total > 0.0 ? (total - compute_joules) / total : 0.0;
  }
};

struct FailureAnalysisResult {
  // Exact event counters. failures == local_recoverable + io_required;
  // replicate aggregation sums these integers, never float shares.
  std::uint64_t failures = 0;
  std::uint64_t local_recoverable = 0;  // partner copy was available
  std::uint64_t io_required = 0;        // partner copy unavailable
  std::uint64_t cascade_failures = 0;   // pulled forward by a burst
  std::uint64_t rack_outages = 0;       // whole-rack outage events
  std::uint64_t rack_node_failures = 0;  // node failures from outages
  std::uint64_t events_processed = 0;   // engine events incl. stale pops

  double elapsed = 0.0;                 // simulated wall covered
  double observed_system_mtti = 0.0;    // elapsed / failures
  EnergyReport energy;                  // zeros unless energy.enabled

  [[nodiscard]] double p_local() const {
    return failures ? static_cast<double>(local_recoverable) /
                          static_cast<double>(failures)
                    : 0.0;
  }
  [[nodiscard]] double p_cascade() const {
    return failures ? static_cast<double>(cascade_failures) /
                          static_cast<double>(failures)
                    : 0.0;
  }
  [[nodiscard]] double p_rack() const {
    return failures ? static_cast<double>(rack_node_failures) /
                          static_cast<double>(failures)
                    : 0.0;
  }
  [[nodiscard]] double mean_outage_width() const {
    return rack_outages ? static_cast<double>(rack_node_failures) /
                              static_cast<double>(rack_outages)
                        : 0.0;
  }
  [[nodiscard]] double energy_per_failure() const {
    return failures ? energy.total_joules() / static_cast<double>(failures)
                    : 0.0;
  }
};

// Node n's partner under `config` (flattened into a vector by the DES
// engines; computed inline by the superposition path).
[[nodiscard]] std::uint32_t partner_of(const FailureAnalysisConfig& config,
                                       std::uint32_t node);

// Run the failure process with the configured engine.
FailureAnalysisResult analyze_failures(const FailureAnalysisConfig& config);

}  // namespace ndpcr::cluster
