#include "cluster/failure_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/batch_rng.hpp"
#include "common/rng.hpp"
#include "common/ziggurat.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace ndpcr::cluster {
namespace {

// Every bound is written so that NaN fails it: `!(x > 0)` rejects NaN
// where `x <= 0` would let it through.
bool positive(double x) { return std::isfinite(x) && x > 0; }
bool non_negative(double x) { return std::isfinite(x) && x >= 0; }

void validate(const FailureAnalysisConfig& config) {
  if (config.node_count < 2) {
    throw std::invalid_argument("failure analysis needs at least 2 nodes");
  }
  if (!positive(config.node_mttf) || !non_negative(config.rebuild_time)) {
    throw std::invalid_argument(
        "mttf must be positive and finite, rebuild >= 0 and finite");
  }
  if (!non_negative(config.sim_duration)) {
    throw std::invalid_argument("sim duration must be >= 0 and finite");
  }
  if (config.distribution == FailureDistribution::kWeibull &&
      !positive(config.weibull_shape)) {
    throw std::invalid_argument("weibull shape must be positive and finite");
  }
  if (!(config.cascade.probability >= 0 && config.cascade.probability <= 1)) {
    throw std::invalid_argument("cascade probability must be in [0, 1]");
  }
  if (config.cascade.probability > 0 &&
      (config.cascade.max_fanout == 0 || config.cascade.radius == 0 ||
       !positive(config.cascade.window))) {
    throw std::invalid_argument(
        "cascade needs fanout >= 1, radius >= 1, finite window > 0");
  }
  if (config.racks.rack_size > 0 &&
      (!non_negative(config.racks.outage_mttf) ||
       (config.racks.outage_mttf > 0 &&
        !non_negative(config.racks.outage_duration)))) {
    throw std::invalid_argument(
        "rack outages need a finite mttf >= 0 (0 = none) and a finite "
        "duration >= 0");
  }
  if (config.placement == PartnerPlacement::kCrossRack &&
      (config.racks.rack_size == 0 ||
       config.racks.rack_size >= config.node_count)) {
    throw std::invalid_argument(
        "cross-rack placement needs 0 < rack_size < node_count");
  }
  if (config.engine == FailureEngine::kSuperposition && !config.memoryless()) {
    throw std::invalid_argument(
        "superposition engine is exact only for exponential arrivals "
        "without cascades or rack outages");
  }
  const EnergyModel& em = config.energy;
  if (em.enabled && (!positive(em.checkpoint_interval) ||
                     !non_negative(em.checkpoint_write_time) ||
                     !non_negative(em.restart_time_local) ||
                     !non_negative(em.restart_time_io))) {
    throw std::invalid_argument(
        "energy model needs a finite interval > 0 and finite non-negative "
        "phase times");
  }
}

// Joules from the exact event counters and closed-form phase durations.
// Rack outage downtime is dead time: not compute, not any C/R phase.
void finish_energy(const FailureAnalysisConfig& config,
                   FailureAnalysisResult& result) {
  if (!config.energy.enabled) return;
  const EnergyModel& em = config.energy;
  const double nodes = static_cast<double>(config.node_count);
  const std::uint64_t checkpoints =
      static_cast<std::uint64_t>(result.elapsed / em.checkpoint_interval) *
      config.node_count;
  const double checkpoint_s =
      static_cast<double>(checkpoints) * em.checkpoint_write_time;
  const double rebuild_s =
      static_cast<double>(result.failures) * config.rebuild_time;
  const double restart_s =
      static_cast<double>(result.local_recoverable) * em.restart_time_local +
      static_cast<double>(result.io_required) * em.restart_time_io;
  const double outage_s = static_cast<double>(result.rack_node_failures) *
                          config.racks.outage_duration;
  const double compute_s = std::max(
      0.0, nodes * result.elapsed - checkpoint_s - rebuild_s - restart_s -
               outage_s);
  result.energy.compute_joules = compute_s * em.compute_watts;
  result.energy.checkpoint_joules = checkpoint_s * em.checkpoint_watts;
  result.energy.rebuild_joules = rebuild_s * em.rebuild_watts;
  result.energy.restart_joules = restart_s * em.restart_watts;
}

void publish_metrics(const FailureAnalysisConfig& config,
                     const FailureAnalysisResult& result) {
  if (config.metrics == nullptr) return;
  obs::MetricsRegistry& m = *config.metrics;
  m.counter("cluster.failures").add(result.failures);
  m.counter("cluster.local_recoverable").add(result.local_recoverable);
  m.counter("cluster.io_required").add(result.io_required);
  m.counter("cluster.cascade_failures").add(result.cascade_failures);
  m.counter("cluster.rack_outages").add(result.rack_outages);
  m.counter("cluster.rack_node_failures").add(result.rack_node_failures);
  m.counter("cluster.events_processed").add(result.events_processed);
  m.gauge("cluster.p_local").set(result.p_local());
  m.gauge("cluster.observed_system_mtti").set(result.observed_system_mtti);
  if (config.energy.enabled) {
    m.gauge("cluster.energy.compute_joules")
        .set(result.energy.compute_joules);
    m.gauge("cluster.energy.checkpoint_joules")
        .set(result.energy.checkpoint_joules);
    m.gauge("cluster.energy.rebuild_joules")
        .set(result.energy.rebuild_joules);
    m.gauge("cluster.energy.restart_joules")
        .set(result.energy.restart_joules);
    m.gauge("cluster.energy.overhead_fraction")
        .set(result.energy.overhead_fraction());
  }
}

// The general discrete-event engine on sim::CalendarQueue.
// Struct-of-arrays node state; cascade pull-forwards use lazy
// invalidation (per-node generation counter in SimEvent::seq) instead of
// deleting from the queue.
//
// kWide selects the full scenario machinery (cascades and/or rack
// outages). The narrow instantiation is the hot one at exascale node
// counts: without pull-forwards or outages no event is ever
// invalidated, so the generation/next-time/cascade arrays - three
// random-access streams per event - disappear entirely and the partner
// comes from one add instead of a table load.
template <bool kWide>
FailureAnalysisResult run_des(const FailureAnalysisConfig& config) {
  const std::uint32_t n = config.node_count;
  const bool weibull = config.distribution == FailureDistribution::kWeibull;
  Rng rng(config.seed);
  const WeibullGaps weibull_gaps(config.weibull_shape, config.node_mttf);
  const auto draw_gap = [&]() {
    return weibull ? weibull_gaps(rng) : ziggurat_exp(rng, config.node_mttf);
  };

  // SoA node state (the invalidation arrays only exist in the wide
  // variant).
  std::vector<double> rebuild_until(n, 0.0);
  std::vector<double> next_time;  // currently scheduled failure
  std::vector<std::uint32_t> gen;  // valid iff event.seq == gen
  std::vector<std::uint32_t> partner;
  std::vector<std::uint8_t> is_cascade;
  if constexpr (kWide) {
    next_time.assign(n, 0.0);
    gen.assign(n, 0);
    partner.resize(n);
    is_cascade.assign(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) partner[i] = partner_of(config, i);
  }
  const std::uint32_t partner_step =
      config.placement == PartnerPlacement::kCrossRack
          ? config.racks.rack_size
          : 1;

  const bool rack_outages = config.racks.rack_size > 0 &&
                            config.racks.outage_mttf > 0;
  const std::uint32_t rack_size = config.racks.rack_size;
  const std::uint32_t nracks =
      rack_outages ? (n + rack_size - 1) / rack_size : 0;

  sim::CalendarQueue queue(static_cast<std::size_t>(n) + nracks,
                          config.node_mttf / n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const double t = draw_gap();
    if constexpr (kWide) next_time[i] = t;
    queue.push({t, i, 0});
  }
  for (std::uint32_t r = 0; r < nracks; ++r) {
    queue.push({rng.exponential(config.racks.outage_mttf), n + r, 0});
  }

  FailureAnalysisResult result;
  double now = 0.0;
  const double duration = config.sim_duration;
  while (true) {
    if (duration > 0 && now >= duration) break;
    if (duration <= 0 && result.failures >= config.target_failures) break;
    if (queue.empty()) break;
    const sim::SimEvent ev = queue.pop();
    ++result.events_processed;

    if constexpr (!kWide) {
      // No invalidation, no cascades, no rack events: every pop is a
      // live node failure.
      const std::uint32_t v = ev.id;
      now = ev.time;
      ++result.failures;
      std::uint32_t p = v + partner_step;
      if (p >= n) p -= n;
      if (rebuild_until[p] > now) {
        ++result.io_required;
      } else {
        ++result.local_recoverable;
      }
      rebuild_until[v] = now + config.rebuild_time;
      queue.push({now + draw_gap(), v, 0});
    } else if (ev.id < n) {
      const std::uint32_t v = ev.id;
      if (ev.seq != gen[v]) continue;  // invalidated by cascade/outage
      now = ev.time;

      ++result.failures;
      const bool cascade_victim = is_cascade[v] != 0;
      if (cascade_victim) {
        ++result.cascade_failures;
        is_cascade[v] = 0;
      }
      const std::uint32_t p = partner[v];
      if (rebuild_until[p] > now) {
        ++result.io_required;
      } else {
        ++result.local_recoverable;
      }
      rebuild_until[v] = now + config.rebuild_time;

      gen[v] += 1;
      const double next = now + draw_gap();
      next_time[v] = next;
      queue.push({next, v, gen[v]});

      // Primary failures may trigger a correlated burst; cascade
      // victims never re-trigger.
      if (!cascade_victim && config.cascade.probability > 0 &&
          rng.next_double() < config.cascade.probability) {
        const std::uint32_t fanout =
            1 + static_cast<std::uint32_t>(
                    rng.next_below(config.cascade.max_fanout));
        for (std::uint32_t k = 0; k < fanout; ++k) {
          const std::uint32_t delta =
              1 + static_cast<std::uint32_t>(
                      rng.next_below(config.cascade.radius));
          const bool left = (rng.next_u64() & 1u) != 0;
          const std::uint32_t victim =
              left ? (v + n - delta % n) % n : (v + delta) % n;
          const double pulled =
              now + config.cascade.window * rng.next_double();
          if (victim == v || pulled >= next_time[victim]) continue;
          gen[victim] += 1;
          is_cascade[victim] = 1;
          next_time[victim] = pulled;
          queue.push({pulled, victim, gen[victim]});
        }
      }
    } else {
      // Whole-rack outage: every node of the rack fails at once, stays
      // dark for outage_duration, then rebuilds. Classify all victims
      // against pre-outage state first so simultaneity is order-free.
      now = ev.time;
      const std::uint32_t r = ev.id - n;
      const std::uint32_t start = r * rack_size;
      const std::uint32_t end = std::min(start + rack_size, n);
      ++result.rack_outages;
      for (std::uint32_t v = start; v < end; ++v) {
        ++result.failures;
        ++result.rack_node_failures;
        const std::uint32_t p = partner[v];
        const bool partner_in_rack = p >= start && p < end;
        if (partner_in_rack || rebuild_until[p] > now) {
          ++result.io_required;
        } else {
          ++result.local_recoverable;
        }
      }
      const double back_up = now + config.racks.outage_duration;
      for (std::uint32_t v = start; v < end; ++v) {
        rebuild_until[v] = back_up + config.rebuild_time;
        gen[v] += 1;
        is_cascade[v] = 0;
        const double next = back_up + draw_gap();
        next_time[v] = next;
        queue.push({next, v, gen[v]});
      }
      queue.push({now + rng.exponential(config.racks.outage_mttf), ev.id, 0});
    }
  }
  result.elapsed = now;
  result.observed_system_mtti =
      result.failures ? now / static_cast<double>(result.failures) : 0.0;
  return result;
}

// Scalar failure classification: for each event, did the victim's
// partner finish rebuilding (local recovery) or not (I/O restart)?
// Returns the batch's io_required count and records each victim's
// failure time in last[].
std::uint64_t classify_scalar(const double* times,
                              const std::uint32_t* victims, std::size_t count,
                              double* last, std::uint32_t n,
                              std::uint32_t step, double rebuild) {
  constexpr std::size_t kAhead = 8;  // prefetch distance
  std::uint64_t io = 0;
  for (std::size_t k = 0; k < count; ++k) {
#if defined(__GNUC__)
    if (k + kAhead < count) {
      std::uint32_t pre = victims[k + kAhead] + step;
      if (pre >= n) pre -= n;
      __builtin_prefetch(&last[victims[k + kAhead]], 1);
      __builtin_prefetch(&last[pre], 0);
    }
#endif
    const std::uint32_t v = victims[k];
    std::uint32_t p = v + step;
    if (p >= n) p -= n;
    const double when = times[k];
    io += (when - last[p] < rebuild) ? 1 : 0;
    last[v] = when;
  }
  return io;
}

#if defined(__x86_64__) && defined(__GNUC__)

// Vector classification: gather last[p], compare, popcount the mask,
// scatter last[v] = when. Sequential semantics require that lane k see
// lane j's write (j < k) when p_k == v_j; _mm512_conflict_epi32 over
// the 16-lane (v..., p...) vector detects any such read-after-write
// pair (conservatively - also the harmless j > k direction), and those
// rare blocks (~n^-1 of them) fall back to the scalar loop. Duplicate
// victims are safe in vector form: scatter commits lanes in order, so
// the highest lane wins, exactly like the scalar loop's last store.
__attribute__((target("avx512f,avx512dq,avx512cd,avx512vl"))) std::uint64_t
classify_avx512(const double* times, const std::uint32_t* victims,
                std::size_t count, double* last, std::uint32_t n,
                std::uint32_t step, double rebuild) {
  std::uint64_t io = 0;
  const __m256i vn = _mm256_set1_epi32(static_cast<int>(n));
  const __m256i vstep = _mm256_set1_epi32(static_cast<int>(step));
  const __m512d vrebuild = _mm512_set1_pd(rebuild);
  std::size_t k = 0;
  for (; k + 8 <= count; k += 8) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(victims + k));
    __m256i p = _mm256_add_epi32(v, vstep);
    // p >= n  =>  p -= n (values stay in [0, n), n < 2^31).
    const __mmask8 wrap = _mm256_cmpge_epu32_mask(p, vn);
    p = _mm256_mask_sub_epi32(p, wrap, p, vn);
    // Combine (v | p) into one 16-lane vector via masked broadcasts:
    // gcc 12's _mm512_inserti64x4 / _mm512_zextsi256_si512 expand
    // through an undefined pass-through operand and trip
    // -Wmaybe-uninitialized, so avoid them.
    const __m512i both = _mm512_mask_broadcast_i64x4(
        _mm512_maskz_broadcast_i64x4(0x0F, v), 0xF0, p);
    const __m512i conflicts = _mm512_conflict_epi32(both);
    // Partner lanes (8..15) colliding with any victim lane (0..7).
    const __mmask16 hazard = _mm512_test_epi32_mask(
        conflicts, _mm512_set1_epi32(0xFF));
    if (hazard >> 8) {
      io += classify_scalar(times + k, victims + k, 8, last, n, step,
                            rebuild);
      continue;
    }
    const __m512d when = _mm512_loadu_pd(times + k);
    const __m512d lastp =
        _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, p, last, 8);
    const __mmask8 is_io = _mm512_cmp_pd_mask(
        _mm512_sub_pd(when, lastp), vrebuild, _CMP_LT_OQ);
    io += static_cast<unsigned>(__builtin_popcount(is_io));
    _mm512_i32scatter_pd(last, v, when, 8);
  }
  if (k < count) {
    io += classify_scalar(times + k, victims + k, count - k, last, n, step,
                          rebuild);
  }
  return io;
}

#endif  // x86_64

std::uint64_t classify_batch(const double* times, const std::uint32_t* victims,
                             std::size_t count, double* last, std::uint32_t n,
                             std::uint32_t step, double rebuild) {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool vec = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512dq") &&
                          __builtin_cpu_supports("avx512cd") &&
                          __builtin_cpu_supports("avx512vl");
  if (vec && n <= (1u << 30)) {
    return classify_avx512(times, victims, count, last, n, step, rebuild);
  }
#endif
  return classify_scalar(times, victims, count, last, n, step, rebuild);
}

// Memoryless fast path. The union of N independent Poisson processes of
// rate 1/mttf is one Poisson process of rate N/mttf with a uniform
// victim - exactly the distribution the DES samples, with no queue at
// all. Batched through BatchRng (8-lane vectorized gaps prefix-summed
// into absolute times, then victims), then classification against a
// last-failure-time array (now - last[p] < rebuild  <=>  the partner is
// still rebuilding) with the partner's slot prefetched.
FailureAnalysisResult run_superposition(const FailureAnalysisConfig& config) {
  const std::uint32_t n = config.node_count;
  BatchRng rng(config.seed);
  const double gap_mean = config.node_mttf / n;
  const double rebuild = config.rebuild_time;
  const std::uint32_t step = config.placement == PartnerPlacement::kCrossRack
                                 ? config.racks.rack_size
                                 : 1;
  // Thread-local scratch reused across calls: a fresh 800KB+ allocation
  // per run is served by mmap and the page faults cost more than the
  // whole event loop at moderate target_failures. assign() still
  // reinitializes every slot, so runs stay independent.
  static thread_local std::vector<double> last;
  static thread_local std::vector<double> times;
  static thread_local std::vector<std::uint32_t> victims;
  last.assign(n, -1.0e300);

  FailureAnalysisResult result;
  double now = 0.0;
  double carry = 0.0;  // running absolute time across batches
  const double duration = config.sim_duration;
  constexpr std::size_t kBatch = 4096;
  times.resize(kBatch);
  victims.resize(kBatch);

  bool done = false;
  while (!done) {
    std::size_t batch = kBatch;
    if (duration <= 0) {
      const std::uint64_t remaining =
          config.target_failures - result.failures;
      if (remaining == 0) break;
      batch = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBatch, remaining));
    }
    // Phase 1: absolute event times. Like the DES, an event is
    // processed while the *previous* event time is inside the window.
    rng.fill_exp_times(times.data(), batch, gap_mean, carry);
    std::size_t count = batch;
    if (duration > 0) {
      for (std::size_t k = 0; k < batch; ++k) {
        const double prev = k == 0 ? now : times[k - 1];
        if (prev >= duration) {
          count = k;
          done = true;
          break;
        }
      }
    }
    if (count == 0) break;
    // Phase 2: victims.
    rng.fill_below(victims.data(), count, n);
    // Phase 3: classification.
    const std::uint64_t io = classify_batch(times.data(), victims.data(),
                                            count, last.data(), n, step,
                                            rebuild);
    result.io_required += io;
    result.local_recoverable += count - io;
    result.failures += count;
    now = times[count - 1];
  }
  result.events_processed = result.failures;
  result.elapsed = now;
  result.observed_system_mtti =
      result.failures ? now / static_cast<double>(result.failures) : 0.0;
  return result;
}

}  // namespace

std::uint32_t partner_of(const FailureAnalysisConfig& config,
                         std::uint32_t node) {
  const std::uint32_t n = config.node_count;
  const std::uint32_t step = config.placement == PartnerPlacement::kCrossRack
                                 ? config.racks.rack_size
                                 : 1;
  const std::uint32_t p = node + step;
  return p >= n ? p - n : p;
}

FailureAnalysisResult analyze_failures(const FailureAnalysisConfig& config) {
  validate(config);
  FailureEngine engine = config.engine;
  if (engine == FailureEngine::kAuto) {
    engine = config.memoryless() ? FailureEngine::kSuperposition
                                 : FailureEngine::kCalendar;
  }
  // The wide DES variant is only needed when events can be invalidated
  // (cascade pull-forwards) or injected in bulk (rack outages).
  const bool wide = config.cascade.probability > 0 ||
                    (config.racks.rack_size > 0 &&
                     config.racks.outage_mttf > 0);
  FailureAnalysisResult result;
  if (engine == FailureEngine::kCalendar) {
    result = wide ? run_des<true>(config) : run_des<false>(config);
  } else {
    result = run_superposition(config);
  }
  finish_energy(config, result);
  publish_metrics(config, result);
  return result;
}

}  // namespace ndpcr::cluster
