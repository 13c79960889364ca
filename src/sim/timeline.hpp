#pragma once

// TimelineSimulator: the paper's performance model (section 6.1.1) as a
// Monte Carlo simulation of a single coordinated application timeline.
//
// The simulated system alternates compute segments with checkpoint
// operations while exponentially distributed interrupts (rate 1/MTTI)
// strike at any moment - during compute, checkpointing, restore, or rerun,
// exactly as in Daly's model. Recovery draws the level per the paper: with
// probability `p_local_recovery` the failure is recoverable from
// local/partner storage; otherwise it needs the newest checkpoint that
// reached global IO.
//
// The three strategies of section 6.1.2:
//   kIoOnly      - single-level checkpointing straight to global IO.
//   kLocalIoHost - multilevel; the host blocks while writing every k-th
//                  checkpoint to IO (compression, if any, overlapped with
//                  the write, section 3.5).
//   kLocalIoNdp  - multilevel; the NDP drains checkpoints to IO in the
//                  background (section 4.2), pausing while the host owns
//                  the NVM or network, and aborting in-flight drains on
//                  failure.
//
// Work/rerun accounting: the simulator tracks the application's position
// (completed useful work); compute executed below the previous high-water
// mark is classified rerun, attributed to the level of the recovery that
// caused the rollback (Figure 7's "Rerun Local" / "Rerun I/O").

#include <cstdint>

#include "sim/breakdown.hpp"

namespace ndpcr::exec {
class TaskPool;
TaskPool& global_pool();
}  // namespace ndpcr::exec

namespace ndpcr::sim {

enum class Strategy { kIoOnly, kLocalIoHost, kLocalIoNdp };

struct TimelineConfig {
  Strategy strategy = Strategy::kLocalIoHost;

  double mtti = 1800.0;             // system MTTI (s)
  double checkpoint_bytes = 112e9;  // per node
  double local_bw = 15e9;           // node NVM bandwidth (B/s)
  double io_bw = 100e6;             // per-node share of global IO (B/s)
  double local_interval = 150.0;    // useful work between checkpoints (s)

  // Every k-th checkpoint goes to IO. For kLocalIoHost this is the
  // locally-saved : IO-saved ratio that Figure 4 sweeps. Ignored for
  // kIoOnly; for kLocalIoNdp the NDP drains as fast as it can regardless.
  // 0 disables the IO level entirely (pure local checkpointing).
  std::uint32_t io_every = 0;

  double compression_factor = 0.0;   // 0 = no compression
  double host_compress_bw = 640e6;   // host-side compression (64 x 10 MB/s)
  double host_decompress_bw = 16e9;  // pipelined restore decompression
  double ndp_compress_bw = 440.4e6;  // NDP compression rate (section 5.3)

  double p_local_recovery = 0.85;    // P(failure recoverable from local)

  // Weibull shape of the interrupt inter-arrival distribution. 1.0 is the
  // paper's exponential assumption; Schroeder & Gibson [4] report shapes
  // around 0.7-0.8 for real machines (bursty failures). The mean stays
  // `mtti` for every shape, so this isolates the burstiness effect.
  double failure_shape = 1.0;

  double total_work = 500.0 * 3600;  // useful compute seconds to complete

  // Ablation switches for the NDP pipeline (section 4.2 details). A node
  // loss (IO-level recovery) always resets the pipeline; the abort switch
  // additionally kills in-flight drains on local-recoverable failures,
  // where the NVM (and transfer state) actually survive.
  bool ndp_overlap = true;             // overlap compress and IO write
  bool ndp_pause_on_host_write = true; // yield NVM bandwidth to the host
  bool ndp_abort_on_failure = false;   // abort drains even on local failures
};

struct TimelineResult {
  Breakdown breakdown;
  std::uint64_t failures = 0;
  std::uint64_t local_recoveries = 0;
  std::uint64_t io_recoveries = 0;
  std::uint64_t scratch_restarts = 0;   // failures with no checkpoint at all
  std::uint64_t local_checkpoints = 0;  // completed local commits
  std::uint64_t io_checkpoints = 0;     // checkpoints that reached IO

  // Trials aggregated into this result: 1 for a single run(); run_trials
  // sets the trial count. The breakdown is a per-trial mean; the integer
  // counters above stay exact totals (dividing them would truncate), with
  // the mean_*() accessors providing the exact per-trial means as doubles.
  int trials = 1;

  [[nodiscard]] double mean_failures() const { return mean(failures); }
  [[nodiscard]] double mean_local_recoveries() const {
    return mean(local_recoveries);
  }
  [[nodiscard]] double mean_io_recoveries() const {
    return mean(io_recoveries);
  }
  [[nodiscard]] double mean_scratch_restarts() const {
    return mean(scratch_restarts);
  }
  [[nodiscard]] double mean_local_checkpoints() const {
    return mean(local_checkpoints);
  }
  [[nodiscard]] double mean_io_checkpoints() const {
    return mean(io_checkpoints);
  }

  [[nodiscard]] double progress_rate() const {
    return breakdown.progress_rate();
  }

 private:
  [[nodiscard]] double mean(std::uint64_t total) const {
    return trials > 0 ? static_cast<double>(total) / trials : 0.0;
  }
};

class TimelineSimulator {
 public:
  TimelineSimulator(const TimelineConfig& config, std::uint64_t seed);

  // Run the timeline to completion of config.total_work.
  TimelineResult run();

  // Average of `trials` independent runs (seeds seed, seed+1, ...), fanned
  // out over `pool` (inline when called from inside a pool task). Per-trial
  // seeds are fixed by trial index and the reduction folds results in trial
  // order, so the aggregate is bit-identical for any thread count.
  static TimelineResult run_trials(
      const TimelineConfig& config, int trials, std::uint64_t seed,
      exec::TaskPool& pool = exec::global_pool());

  // Derived per-operation costs (exposed for tests and the analytic model).
  [[nodiscard]] double local_commit_time() const;
  [[nodiscard]] double local_restore_time() const;
  [[nodiscard]] double host_io_commit_time() const;  // blocking, host configs
  [[nodiscard]] double io_restore_time() const;
  [[nodiscard]] double ndp_drain_time() const;  // background, NDP config

 private:
  struct Impl;
  TimelineConfig cfg_;
  std::uint64_t seed_;
};

}  // namespace ndpcr::sim
