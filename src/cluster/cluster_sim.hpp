#pragma once

// Functional multi-node C/R simulation: drives the real data path
// (MultilevelManager moving real checkpoint bytes for every rank) under a
// virtual-time failure process. Small scale by design - it validates that
// the byte-level machinery survives the failure patterns the statistical
// models assume, and that recovered application state is exact.
//
// Two configurations of one loop (step, checkpoint, fail, recover()):
//   * host (the default): the manager writes every level itself, IO
//     included every `io_every`-th checkpoint;
//   * NDP (`ndp_agents`, paper sections 4.2-4.3): the manager writes the
//     local and partner levels, and one functional NdpAgent per rank
//     (real codec, real bytes) drains its node's NVM to the shared IO
//     store in the background. The drained copies are the manager's IO
//     level, so every restart is the same recover(): local NVM, partner,
//     else the drained copy. A drain that pins the NVM stalls the next
//     commit, and a drain the IO store refuses falls back to a verified
//     host write.
//
// The NDP configuration is the integration capstone: the statistical
// timeline model (sim/), the byte-level NDP pipeline (ndp/), the
// multi-rank coordination (ckpt/) and the workloads all run together, and
// the simulation reports the same progress-rate metric the model predicts
// (bench/ablation_fullstack_validation).

#include <cstdint>
#include <optional>
#include <string>

#include "ckpt/multilevel.hpp"
#include "faults/fault_plan.hpp"

namespace ndpcr::obs {
class Tracer;
}  // namespace ndpcr::obs

namespace ndpcr::cluster {

struct ClusterSimConfig {
  std::uint32_t node_count = 8;
  std::size_t state_bytes_per_rank = 256 * 1024;
  std::string app = "comd";        // the workload every rank runs
  double node_mttf = 20000.0;      // per-node MTTF in virtual seconds
  double step_time = 1.0;          // virtual seconds per app step
  std::uint32_t steps_per_checkpoint = 10;
  // Virtual seconds the host blocks per coordinated commit (unset:
  // 0.1 x step_time) and per restart (an NDP restart from IO takes at
  // least its read time).
  std::optional<double> local_commit_time;
  double local_restore_time = 0.0;
  // Share of failures that keep every node's NVM (transient); the rest
  // lose one node. At 0 no transient draw is made.
  double p_local_recovery = 0.0;
  std::uint32_t partner_every = 1;
  ckpt::PartnerScheme partner_scheme = ckpt::PartnerScheme::kCopy;
  std::uint32_t xor_group_size = 4;
  std::uint32_t io_every = 5;      // must be 0 with ndp_agents
  // The IO level's codec: the manager's, or the agents' drain codec.
  compress::CodecId io_codec = compress::CodecId::kLz4Style;
  int io_codec_level = 1;
  std::size_t nvm_capacity_bytes = 8ull << 20;
  // NDP agents drain the IO level. Each gets an even share of the
  // aggregate IO bandwidth, which also times host fallback writes and
  // restores from IO.
  bool ndp_agents = false;
  double ndp_compress_bw = 256e3;  // uncompressed bytes per virtual second
  double aggregate_io_bw = 256e3;
  std::uint64_t total_steps = 2000;  // virtual application steps to finish
  std::uint64_t seed = 7;
  // Seeded store-fault injection (zero rates leave the data path
  // fault-free and the results bit-identical to the pre-fault build).
  faults::FaultRates partner_faults;
  faults::FaultRates io_faults;
  std::uint64_t fault_seed = 0;  // 0 derives from `seed`
  // Optional tracer (docs/OBSERVABILITY.md): the manager's commit and
  // recover spans on tracks 0..node_count, the simulation's own events
  // as virtual-clock instants on track node_count + 1, and agent r's
  // drain pipeline on the three tracks from node_count + 2 + 3r.
  obs::Tracer* trace = nullptr;
};

struct ClusterSimResult {
  std::uint64_t failures = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t io_recoveries = 0;        // recoveries with a rank from IO
  std::uint64_t local_level_ranks = 0;    // per-rank recovery-level counts
  std::uint64_t partner_level_ranks = 0;
  std::uint64_t io_level_ranks = 0;
  std::uint64_t unrecoverable = 0;        // restarts from step 0
  std::uint64_t steps_completed = 0;
  std::uint64_t steps_rerun = 0;
  std::uint64_t checkpoints = 0;
  // Newest checkpoint id every rank holds on the IO store (0 = none).
  std::uint64_t newest_io_checkpoint = 0;
  std::uint64_t host_fallback_writes = 0;  // agent fallbacks the host landed
  std::uint64_t host_fallback_drops = 0;   // agent fallbacks lost (IO down)
  double virtual_seconds = 0.0;
  double compute_seconds = 0.0;  // first-time work
  bool state_verified = false;  // all ranks' digests consistent at the end
  // Data-path health at run end. With NDP agents, `io` is their summed
  // drain_health() plus the read retries of recover().
  ckpt::HealthReport health;

  [[nodiscard]] double progress_rate() const {
    return virtual_seconds > 0 ? compute_seconds / virtual_seconds : 0.0;
  }
};

class ClusterSim {
 public:
  explicit ClusterSim(const ClusterSimConfig& config);
  ClusterSimResult run();

 private:
  ClusterSimConfig cfg_;
};

}  // namespace ndpcr::cluster
