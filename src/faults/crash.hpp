#pragma once

// Deterministic crash-point injection for the restart-equivalence harness
// (docs/EQUIVALENCE.md).
//
// A CrashSimulator owns the durable state of one simulated job - the
// per-rank NVM devices, the partner spaces, and the IO store (in-memory,
// or a real FileStore directory) - and hands MultilevelManagers *views*
// of it: the manager dies, the bytes survive, exactly like a process
// crash under a real NVDIMM and file system. MutationGates installed on
// the backing stores see every durable-state mutation (puts, erases,
// latest-pointer updates) and drive three modes:
//
//   record - a golden run: every mutation is logged as a numbered event.
//   armed  - a crash run: the k-th event of the golden run's *canonical
//            order* is the point of death. The dying mutation is either
//            dropped or lands torn (a truncated prefix); every mutation
//            canonically after it is dropped. Dropped mutations report
//            success - a dead process does not observe its own failed
//            writes, and the dying manager's in-memory state is discarded
//            anyway.
//   idle   - gates pass everything through (the restart manager's life).
//
// The canonical order sorts events by (epoch, phase, device, op) where
// phase follows the commit pipeline - partner spaces, then IO, then local
// NVM - and `op` is the device's own mutation counter. Because each
// device's mutation sequence is deterministic (stores are driven serially
// per device, and fault schedules are pure functions of op index), the
// per-device cutoffs derived from a golden run select the same surviving
// bytes at any thread-pool size: crashing is a per-device-local decision,
// never a question of cross-device timing.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "ckpt/mutation_gate.hpp"
#include "ckpt/nvm_store.hpp"
#include "ckpt/stores.hpp"
#include "faults/fault_plan.hpp"

namespace ndpcr::faults {

// One durable-state mutation observed during a recorded (golden) run -
// equivalently, one point at which a crash run can die.
struct CrashPoint {
  std::uint64_t epoch = 0;  // commit id the mutation belongs to
  std::uint32_t device = 0; // faults::Target id (local/partner/io spaces)
  std::uint64_t op = 0;     // the device's own mutation index
  ckpt::MutationSite site;  // what the mutation was
};

// "local[2]" / "partner[0]" / "io" for a Target id.
std::string device_name(std::uint32_t target_id);

// One-line description for `ndpcr equiv --list-crash-points`.
std::string describe(const CrashPoint& point);

struct CrashSimConfig {
  std::uint32_t node_count = 1;
  std::size_t nvm_capacity_bytes = 64ull << 20;
  // Seeded IO-fault schedule layered *over* the crash gates (the same
  // FaultyKvStore decorator the chaos harness uses, wrapped around each
  // gated device, so a gate sees each put after its fault has shaped
  // it), so crash points can land inside retry/quarantine sequences.
  // Zero rates = clean devices.
  FaultRates rates;
  std::uint64_t fault_seed = 1;
  // Non-empty: back the IO level with a real FileStore rooted here, which
  // puts the latest-pointer updates (and their crash atomicity) into the
  // sweep. Empty: in-memory IO store.
  std::filesystem::path io_root;
};

class CrashSimulator {
 public:
  explicit CrashSimulator(const CrashSimConfig& config);
  ~CrashSimulator();

  CrashSimulator(const CrashSimulator&) = delete;
  CrashSimulator& operator=(const CrashSimulator&) = delete;

  // Point `config` at this simulator's durable stores: nvm_factory hands
  // out the shared NVM devices, store_factory forwarding views over the
  // partner/IO stores, and (when fault rates are set) local_write_hook
  // the seeded NVM-write mangler. node_count must match.
  void attach(ckpt::MultilevelConfig& config) const;

  // Subsequent mutations belong to commit `id` (call before each commit).
  void begin_commit(std::uint64_t id);

  // Enter golden-run mode: log every mutation, pass everything through.
  void record();

  // Enter crash-run mode: die at `golden[k]`. The dying mutation lands
  // torn (a salt-derived prefix) when `torn`, else vanishes; every
  // mutation canonically after it is dropped. `golden` must be the
  // canonical_points() of a golden run over an identically-seeded
  // simulator.
  void arm(const std::vector<CrashPoint>& golden, std::size_t k, bool torn,
           std::uint64_t torn_salt);

  // Leave gating (restart mode): mutations pass through unlogged.
  void disarm();

  // The recorded golden run in canonical order: epoch, then commit phase
  // (partner -> io -> local), then device, then the device's op index.
  [[nodiscard]] std::vector<CrashPoint> canonical_points() const;

  // Whether an armed run actually reached its crash point.
  [[nodiscard]] bool crashed() const {
    return crashed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t node_count() const {
    return config_.node_count;
  }

 private:
  enum class Mode : std::uint8_t { kIdle, kRecord, kArmed };

  struct Device {
    std::uint32_t id = 0;            // faults::Target id
    std::vector<CrashPoint> events;  // record mode log
    std::uint64_t ops = 0;           // mutations seen this run
    std::uint64_t cutoff = 0;        // armed: ops >= cutoff are dead
    bool torn_at_cutoff = false;     // armed: the op AT cutoff lands torn
    std::uint64_t torn_salt = 0;
  };

  ckpt::MutationDecision gate(std::size_t device_index,
                              ckpt::MutationSite site);
  void install_gates();

  CrashSimConfig config_;
  std::shared_ptr<const FaultPlan> plan_;  // null when rates are zero
  std::vector<std::shared_ptr<ckpt::NvmStore>> local_;
  // Fault decorators (pass-through when plan_ is null) over the devices:
  // in-memory stores, or for the IO level a FileStore directory.
  std::vector<std::unique_ptr<ckpt::KvStore>> partner_;
  std::unique_ptr<ckpt::KvStore> io_;
  // devices_[0..N-1] partner hosts, [N] io, [N+1..2N] local ranks.
  std::vector<Device> devices_;
  Mode mode_ = Mode::kIdle;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> crashed_{false};
};

}  // namespace ndpcr::faults
