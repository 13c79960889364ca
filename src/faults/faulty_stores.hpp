#pragma once

// Fault injection at the store seam. FaultyKvStore decorates any KvStore
// (a private device, a tenant view of a shared one, a file-backed store
// behind an adapter); it numbers its operations (puts and gets share one
// counter per store) and asks the FaultPlan what happens:
//
//   kTransient / kOutage - the operation fails with a typed StoreError
//                          (transient resp. permanent); nothing is stored.
//   kTorn                - put: a truncated prefix is stored and success
//                          is reported. Only write-verify readback or CRC
//                          validation can catch it.
//   kBitFlip             - put: one byte of the stored copy is flipped;
//                          get: one byte of the returned copy is flipped
//                          (the stored entry stays intact); digest: the
//                          digest of that flipped copy.
//   kStall               - the operation succeeds, but virtual latency is
//                          charged to the stats.
//
// The decorator and the local-NVM write hook (which share one put-side
// function) are the only code that consults the plan; consumers just see
// StoreStatus/StoreResult and the self-healing layers react.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "ckpt/stores.hpp"
#include "faults/fault_plan.hpp"

namespace ndpcr::obs {
class TraceBuffer;
}  // namespace ndpcr::obs

namespace ndpcr::faults {

// Virtual seconds charged per kStall fault.
inline constexpr double kStallSeconds = 0.05;

struct FaultStats {
  std::uint64_t ops = 0;               // store operations observed
  std::uint64_t transient_errors = 0;  // kTransient injections
  std::uint64_t torn_writes = 0;       // kTorn injections
  std::uint64_t bit_flips = 0;         // kBitFlip injections
  std::uint64_t stalls = 0;            // kStall injections
  std::uint64_t outage_errors = 0;     // kOutage injections
  double stall_seconds = 0.0;          // virtual latency charged

  [[nodiscard]] std::uint64_t injected() const {
    return transient_errors + torn_writes + bit_flips + stalls +
           outage_errors;
  }

  FaultStats& operator+=(const FaultStats& other);
};

// The one store fault decorator: a ForwardingKvStore over `inner` (by
// default a private plain KvStore, i.e. a faulty device of its own) that
// numbers its operations and asks the plan about each put, get and
// digest before forwarding it. Everything else - contains/list/erase,
// the observers, corrupt_entry and the mutation gate - forwards
// untouched, so a crash gate on the inner store sees each put after its
// fault has shaped it. A null plan forwards everything, counting
// nothing. The inner store may be shared with other decorators (the
// service wraps each tenant's TenantStoreView of one shared device), so
// each tenant keeps its own fault schedule over its own window.
//
// Operations must be serialized per decorator (the op counter and stats
// are unsynchronized) - the manager's data path already guarantees that
// for remote stores.
class FaultyKvStore final : public ckpt::ForwardingKvStore {
 public:
  FaultyKvStore(std::shared_ptr<const FaultPlan> plan, Target target,
                std::unique_ptr<ckpt::KvStore> inner =
                    std::make_unique<ckpt::KvStore>());

  ckpt::StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                        Bytes data) override;
  [[nodiscard]] ckpt::StoreResult<Bytes> get(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;
  [[nodiscard]] ckpt::StoreResult<ckpt::EntryDigest> digest(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // Optional trace attachment (docs/OBSERVABILITY.md): every injected
  // fault becomes an instant event on `track`, stamped with the store's
  // op index. The op counter is already unsynchronized, so callers must
  // serialize operations per store; the buffer rides the same rule.
  void set_trace(obs::TraceBuffer* buf, std::uint32_t track) {
    trace_buf_ = buf;
    trace_track_ = track;
  }

 private:
  // Count read `op`, ask the plan about it and count any injection:
  // returns the typed error to report, or nullopt with `flip` set when
  // the read must corrupt what it returns.
  std::optional<ckpt::StoreError> begin_read(std::uint64_t op,
                                             bool& flip) const;

  std::shared_ptr<const FaultPlan> plan_;  // may be null (pass-through)
  Target target_;
  obs::TraceBuffer* trace_buf_ = nullptr;
  std::uint32_t trace_track_ = 0;
  // get() is logically const; operation numbering and stats are not.
  mutable std::uint64_t op_counter_ = 0;
  mutable FaultStats stats_;
};

// Local-NVM write hook for MultilevelConfig::local_write_hook: consults
// the plan under local_target(rank) and mutates the staged image for
// kTorn / kBitFlip faults (transients and outages do not apply to a local
// memory write). The commit path's verify readback catches the damage.
// Stats (if non-null) accumulate across all ranks.
std::function<void(std::uint32_t, std::uint64_t, Bytes&)>
make_local_write_hook(std::shared_ptr<const FaultPlan> plan,
                      std::shared_ptr<FaultStats> stats = nullptr);

}  // namespace ndpcr::faults
