#include "sim/timeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "exec/task_pool.hpp"
#include "ndp/ndp.hpp"

namespace ndpcr::sim {
namespace {

enum class Kind {
  kCompute,
  kCkptLocal,
  kCkptIo,
  kRestoreLocal,
  kRestoreIo,
};

constexpr double kNone = -1.0;

}  // namespace

TimelineSimulator::TimelineSimulator(const TimelineConfig& config,
                                     std::uint64_t seed)
    : cfg_(config), seed_(seed) {
  if (cfg_.mtti <= 0 || cfg_.local_interval <= 0 ||
      cfg_.checkpoint_bytes <= 0 || cfg_.total_work <= 0) {
    throw std::invalid_argument("timeline config values must be positive");
  }
  if (cfg_.strategy != Strategy::kIoOnly && cfg_.local_bw <= 0) {
    throw std::invalid_argument("local_bw must be positive");
  }
  if (cfg_.io_bw <= 0) {
    throw std::invalid_argument("io_bw must be positive");
  }
  if (cfg_.compression_factor < 0 || cfg_.compression_factor >= 1.0) {
    throw std::invalid_argument("compression factor must be in [0, 1)");
  }
  if (cfg_.failure_shape <= 0) {
    throw std::invalid_argument("failure shape must be positive");
  }
}

double TimelineSimulator::local_commit_time() const {
  // Local checkpoints are stored uncompressed (section 3.5: compression
  // cannot keep up with NVM bandwidth, so only the IO stream compresses).
  return cfg_.checkpoint_bytes / cfg_.local_bw;
}

double TimelineSimulator::local_restore_time() const {
  return cfg_.checkpoint_bytes / cfg_.local_bw;
}

double TimelineSimulator::host_io_commit_time() const {
  const double cf = cfg_.compression_factor;
  const double write = cfg_.checkpoint_bytes * (1.0 - cf) / cfg_.io_bw;
  if (cf <= 0.0) return cfg_.checkpoint_bytes / cfg_.io_bw;
  // Compression overlapped with the write (section 3.5): bounded by the
  // slower of the host compression pipeline and the IO link.
  return std::max(write, cfg_.checkpoint_bytes / cfg_.host_compress_bw);
}

double TimelineSimulator::io_restore_time() const {
  const double cf = cfg_.compression_factor;
  const double read = cfg_.checkpoint_bytes * (1.0 - cf) / cfg_.io_bw;
  if (cf <= 0.0) return cfg_.checkpoint_bytes / cfg_.io_bw;
  // Decompression pipelined on host cores (section 4.3): recovery takes
  // about as long as retrieving the compressed image, unless decompression
  // is the (unlikely) bottleneck.
  return std::max(read, cfg_.checkpoint_bytes / cfg_.host_decompress_bw);
}

double TimelineSimulator::ndp_drain_time() const {
  const double rate =
      cfg_.compression_factor > 0.0 ? cfg_.ndp_compress_bw : 0.0;
  return ndp::drain_time(cfg_.checkpoint_bytes, cfg_.compression_factor,
                         rate, cfg_.io_bw, cfg_.ndp_overlap);
}

struct TimelineSimulator::Impl {
  const TimelineConfig& cfg;
  const TimelineSimulator& self;
  Rng rng;
  WeibullGaps weibull_gaps;  // used when failure_shape != 1
  TimelineResult result;

  double now = 0.0;           // wall clock
  double next_failure = 0.0;  // wall time of the next interrupt
  double position = 0.0;      // completed useful work (work seconds)
  double high_water = 0.0;    // furthest position ever reached
  bool rerun_is_io = false;   // attribution of work below high_water

  double local_ckpt_position = kNone;  // newest checkpoint in local NVM
  double io_ckpt_position = kNone;     // newest checkpoint landed on IO
  std::uint64_t ckpt_counter = 0;      // counts completed local commits

  // NDP pipeline: the drain in flight and the newest not-yet-drained
  // local checkpoint waiting behind it.
  double ndp_active_position = kNone;
  double ndp_remaining = 0.0;
  double ndp_queued_position = kNone;

  Impl(const TimelineConfig& c, const TimelineSimulator& s,
       std::uint64_t seed)
      : cfg(c), self(s), rng(seed), weibull_gaps(c.failure_shape, c.mtti) {
    next_failure = sample_interarrival();
  }

  double sample_interarrival() {
    if (cfg.failure_shape == 1.0) return rng.exponential(cfg.mtti);
    return weibull_gaps(rng);
  }

  void account(Kind kind, double dt) {
    auto& b = result.breakdown;
    switch (kind) {
      case Kind::kCompute: {
        // Split the segment at the high-water mark: below it is rerun.
        const double rerun_dt =
            std::clamp(high_water - position, 0.0, dt);
        if (rerun_is_io) {
          b.rerun_io += rerun_dt;
        } else {
          b.rerun_local += rerun_dt;
        }
        b.compute += dt - rerun_dt;
        position += dt;
        high_water = std::max(high_water, position);
        break;
      }
      case Kind::kCkptLocal:
        b.ckpt_local += dt;
        break;
      case Kind::kCkptIo:
        b.ckpt_io += dt;
        break;
      case Kind::kRestoreLocal:
        b.restore_local += dt;
        break;
      case Kind::kRestoreIo:
        b.restore_io += dt;
        break;
    }
    // NDP progress: the pipeline runs concurrently with compute/rerun but
    // pauses whenever the host owns the NVM or the network (local writes,
    // restores) - section 4.2.1/4.2.3. With the pause ablated, it also
    // progresses during host NVM writes.
    const bool ndp_runs =
        kind == Kind::kCompute ||
        (!cfg.ndp_pause_on_host_write && kind == Kind::kCkptLocal);
    if (cfg.strategy == Strategy::kLocalIoNdp && ndp_runs &&
        ndp_active_position != kNone) {
      ndp_remaining -= dt;
      if (ndp_remaining <= 0.0) {
        io_ckpt_position = ndp_active_position;
        ++result.io_checkpoints;
        ndp_active_position = kNone;
        ndp_remaining = 0.0;
        start_next_drain();
      }
    }
  }

  void start_next_drain() {
    if (ndp_queued_position == kNone) return;
    ndp_active_position = ndp_queued_position;
    ndp_queued_position = kNone;
    ndp_remaining = self.ndp_drain_time();
  }

  // Advance a phase of `duration` seconds of wall time. Returns true if it
  // completed, false if an interrupt struck (partial effects applied up to
  // the interrupt).
  bool advance(Kind kind, double duration) {
    while (duration > 0.0) {
      const double until_failure = next_failure - now;
      if (duration < until_failure) {
        account(kind, duration);
        now += duration;
        return true;
      }
      if (until_failure > 0.0) account(kind, until_failure);
      now = next_failure;
      next_failure = now + sample_interarrival();
      return false;
    }
    return true;
  }

  void notify_ndp(double ckpt_position) {
    if (ndp_active_position == kNone) {
      ndp_queued_position = ckpt_position;
      start_next_drain();
    } else {
      // Overwrite any queued checkpoint: the NDP always drains the newest
      // (skipping intermediates it cannot keep up with).
      ndp_queued_position = ckpt_position;
    }
  }

  // Handle a failure: pick the recovery level, pay the restore cost
  // (restores can themselves fail), roll back.
  void recover() {
    ++result.failures;
    // Whether this failure is recoverable from local/partner storage is a
    // property of the failure itself (the paper's p_local input); it stays
    // fixed even if the restore is interrupted and retried.
    const bool want_local = cfg.strategy != Strategy::kIoOnly &&
                            rng.next_double() < cfg.p_local_recovery;
    for (;;) {
      const bool has_local = local_ckpt_position != kNone &&
                             cfg.strategy != Strategy::kIoOnly;
      const bool has_io = io_ckpt_position != kNone;
      const bool use_local = want_local && has_local;

      double target = 0.0;
      double restore_duration = 0.0;
      bool is_io_level = true;
      if (use_local) {
        target = local_ckpt_position;
        restore_duration = self.local_restore_time();
        is_io_level = false;
      } else if (has_io) {
        target = io_ckpt_position;
        restore_duration = self.io_restore_time();
      } else {
        // Nothing anywhere: restart from scratch. Attribute the rerun to
        // the IO level (the level that failed to cover the failure) unless
        // the configuration has no IO level at all.
        target = 0.0;
        restore_duration = 0.0;
        is_io_level = cfg.strategy == Strategy::kIoOnly || cfg.io_every > 0 ||
                      cfg.strategy == Strategy::kLocalIoNdp;
        ++result.scratch_restarts;
      }

      // NDP pipeline vs failures: a node loss (IO-level recovery) wipes the
      // NVM and the transfer state, so the drain resets unconditionally.
      // For local-recoverable failures the NVM survives; the drain resumes
      // after recovery unless the abort ablation is on.
      if (cfg.strategy == Strategy::kLocalIoNdp &&
          (!use_local || cfg.ndp_abort_on_failure)) {
        ndp_active_position = kNone;
        ndp_remaining = 0.0;
        ndp_queued_position = kNone;
      }

      const Kind kind =
          is_io_level ? Kind::kRestoreIo : Kind::kRestoreLocal;
      if (!advance(kind, restore_duration)) {
        ++result.failures;
        continue;  // the restore itself was interrupted; recover anew
      }

      position = target;
      rerun_is_io = is_io_level;
      if (restore_duration > 0.0 || target > 0.0 || has_io || has_local) {
        if (is_io_level) {
          ++result.io_recoveries;
        } else {
          ++result.local_recoveries;
        }
      }

      if (cfg.strategy == Strategy::kLocalIoNdp) {
        if (!use_local) {
          // Node replaced: its NVM is empty until the next local commit.
          local_ckpt_position = kNone;
        } else if (ndp_active_position == kNone &&
                   local_ckpt_position != kNone &&
                   local_ckpt_position > (io_ckpt_position == kNone
                                              ? -1.0
                                              : io_ckpt_position)) {
          // The pipeline was idle (or was just aborted): restart the drain
          // of the newest surviving local checkpoint.
          notify_ndp(local_ckpt_position);
        }
      } else if (!use_local) {
        local_ckpt_position = kNone;
      }
      return;
    }
  }

  TimelineResult run() {
    const double local_commit = cfg.strategy == Strategy::kIoOnly
                                    ? self.host_io_commit_time()
                                    : self.local_commit_time();
    // Safety valve: configurations whose progress rate is effectively zero
    // (e.g. restore longer than MTTI with no surviving checkpoints) would
    // otherwise spin forever.
    constexpr std::uint64_t kMaxFailures = 10'000'000;
    while (position < cfg.total_work) {
      if (result.failures > kMaxFailures) {
        throw std::runtime_error(
            "timeline simulation diverged: progress rate ~ 0");
      }
      // Compute until the next scheduled checkpoint (or completion).
      const double seg = std::min(cfg.local_interval,
                                  cfg.total_work - position);
      if (!advance(Kind::kCompute, seg)) {
        recover();
        continue;
      }
      if (position >= cfg.total_work) break;

      if (cfg.strategy == Strategy::kIoOnly) {
        if (!advance(Kind::kCkptIo, local_commit)) {
          recover();
          continue;
        }
        io_ckpt_position = position;
        ++result.io_checkpoints;
        continue;
      }

      // Local commit (host owns the NVM; NDP pauses unless ablated).
      if (!advance(Kind::kCkptLocal, local_commit)) {
        recover();
        continue;
      }
      local_ckpt_position = position;
      ++result.local_checkpoints;
      ++ckpt_counter;

      if (cfg.strategy == Strategy::kLocalIoNdp) {
        notify_ndp(position);
        continue;
      }

      // Host-managed IO level: every io_every-th checkpoint blocks the
      // application while it streams to the file system.
      if (cfg.io_every > 0 && ckpt_counter % cfg.io_every == 0) {
        if (!advance(Kind::kCkptIo, self.host_io_commit_time())) {
          recover();
          continue;
        }
        io_ckpt_position = position;
        ++result.io_checkpoints;
      }
    }
    return result;
  }
};

TimelineResult TimelineSimulator::run() {
  Impl impl(cfg_, *this, seed_);
  return impl.run();
}

TimelineResult TimelineSimulator::run_trials(const TimelineConfig& config,
                                             int trials, std::uint64_t seed,
                                             exec::TaskPool& pool) {
  // The per-trial seed is `seed + t` (the engine's historical serial
  // scheme) and the reduction below folds the per-trial results in trial
  // order, so the aggregate carries no trace of the schedule: any thread
  // count produces bit-identical output.
  const std::vector<TimelineResult> per_trial = pool.parallel_map(
      static_cast<std::size_t>(std::max(trials, 0)), [&](std::size_t t) {
        return TimelineSimulator(config, seed + static_cast<std::uint64_t>(t))
            .run();
      });

  TimelineResult agg;
  for (const TimelineResult& r : per_trial) {
    agg.breakdown += r.breakdown;
    agg.failures += r.failures;
    agg.local_recoveries += r.local_recoveries;
    agg.io_recoveries += r.io_recoveries;
    agg.scratch_restarts += r.scratch_restarts;
    agg.local_checkpoints += r.local_checkpoints;
    agg.io_checkpoints += r.io_checkpoints;
  }
  agg.trials = std::max(trials, 1);
  if (trials > 1) {
    agg.breakdown = agg.breakdown.scaled(1.0 / trials);
  }
  return agg;
}

}  // namespace ndpcr::sim
