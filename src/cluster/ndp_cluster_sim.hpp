#pragma once

// Full-stack NDP cluster simulation: N nodes, each running a mini-app
// rank and a functional NdpAgent (real codec, real bytes), coordinated
// local checkpoints, background drains sharing the global IO bandwidth,
// and per-node failures in virtual time. The host is a local-only
// ckpt::MultilevelManager over the agents' NVMs, and every restart is
// its recover(): local NVM, else the drained IO copy.
//
// This is the integration capstone: the statistical timeline model
// (sim/), the byte-level NDP pipeline (ndp/), the multi-rank coordination
// (ckpt/) and the workloads all run together, and the simulation verifies
// exact state recovery while reporting the same progress-rate metric the
// model predicts.
//
// IO bandwidth sharing: the configured aggregate IO bandwidth is divided
// evenly among agents with an active drain each tick (a fair-share
// approximation of the parallel file system).

#include <cstdint>
#include <string>

#include "compress/codec.hpp"
#include "faults/fault_plan.hpp"

namespace ndpcr::obs {
class Tracer;
}  // namespace ndpcr::obs

namespace ndpcr::cluster {

struct NdpClusterConfig {
  std::uint32_t node_count = 4;
  std::string app = "hpccg";
  std::size_t state_bytes_per_rank = 128 * 1024;

  double step_time = 1.0;                 // virtual seconds per app step
  std::uint32_t steps_per_checkpoint = 8;
  double local_commit_time = 0.5;         // host-blocking local write
  double local_restore_time = 0.5;

  // Per-agent pipeline rates (bytes of uncompressed input per virtual
  // second) and the aggregate IO bandwidth shared by all drains.
  double ndp_compress_bw = 256e3;
  double aggregate_io_bw = 256e3;
  compress::CodecId codec = compress::CodecId::kLz4Style;
  int codec_level = 1;
  // Drain pipeline chunk size (input bytes): chunk j+1 compresses while
  // chunk j is on the IO wire.
  std::size_t ndp_chunk_bytes = 32ull << 10;
  std::size_t nvm_capacity_bytes = 4ull << 20;

  double node_mttf = 3000.0;   // per-node, virtual seconds
  double p_local_recovery = 0.85;  // failures that keep the NVM usable
  std::uint64_t total_steps = 1500;
  std::uint64_t seed = 13;
  // Seeded fault injection on the shared IO store (zero rates keep the
  // run bit-identical to the fault-free build). Drains that cannot land
  // retry with backoff, then fall back to the host write path.
  faults::FaultRates io_fault_rates;
  std::uint64_t fault_seed = 0;  // 0 derives from `seed`
  // Optional tracer (docs/OBSERVABILITY.md): simulation events (commits,
  // failures, recoveries, fallbacks) as virtual-clock instants on track 0,
  // and each agent's drain pipeline on tracks 1+3r (drain/compress/wire).
  obs::Tracer* trace = nullptr;
};

struct NdpClusterResult {
  std::uint64_t failures = 0;
  std::uint64_t local_recoveries = 0;
  std::uint64_t io_recoveries = 0;
  std::uint64_t scratch_restarts = 0;
  std::uint64_t checkpoints = 0;     // coordinated local commits
  std::uint64_t io_checkpoints = 0;  // checkpoint generations fully on IO
  std::uint64_t steps_rerun = 0;
  double virtual_seconds = 0.0;
  double compute_seconds = 0.0;  // first-time work
  bool state_verified = false;
  std::uint64_t drain_put_retries = 0;   // agent IO writes retried
  std::uint64_t drain_put_failures = 0;  // drains handed to the host path
  std::uint64_t host_fallback_writes = 0;  // fallbacks landed by the host
  std::uint64_t host_fallback_drops = 0;   // fallbacks lost (IO down)
  // Aggregated agent drain-health counters (AgentStats / drain_health()).
  std::uint64_t io_put_attempts = 0;     // agent IO puts incl. retries
  std::uint64_t io_verify_failures = 0;  // drain readback mismatches
  std::uint64_t io_quarantined = 0;      // torn IO entries erased by agents
  std::uint64_t host_fallbacks = 0;      // fallback handoffs staged

  [[nodiscard]] double progress_rate() const {
    return virtual_seconds > 0 ? compute_seconds / virtual_seconds : 0.0;
  }
};

class NdpClusterSim {
 public:
  explicit NdpClusterSim(const NdpClusterConfig& config);
  NdpClusterResult run();

 private:
  NdpClusterConfig cfg_;
};

}  // namespace ndpcr::cluster
