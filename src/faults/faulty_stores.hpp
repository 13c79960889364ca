#pragma once

// Fault-injecting decorators over the checkpoint stores. Each decorator
// numbers its operations (puts and gets share one counter per store) and
// asks the FaultPlan what happens:
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
// The decorators are the only code that consults the plan; consumers just
// see StoreStatus/StoreResult and the self-healing layers react.

#include <cstdint>
#include <functional>
#include <memory>

#include "ckpt/file_store.hpp"
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

// KvStore (partner / IO level) with seeded fault injection. Inherits the
// plain store's state; overrides route through the plan first.
class FaultyKvStore final : public ckpt::KvStore {
 public:
  FaultyKvStore(std::shared_ptr<const FaultPlan> plan, Target target);

  ckpt::StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                        Bytes data) override;
  [[nodiscard]] ckpt::StoreResult<Bytes> get(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;
  [[nodiscard]] ckpt::StoreResult<ckpt::EntryDigest> digest(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] Target target() const { return target_; }

  // Optional trace attachment (docs/OBSERVABILITY.md): every injected
  // fault becomes an instant event on `track`, stamped with the store's
  // op index. The op counter is already unsynchronized, so callers must
  // serialize operations per store; the buffer rides the same rule.
  void set_trace(obs::TraceBuffer* buf, std::uint32_t track) {
    trace_buf_ = buf;
    trace_track_ = track;
  }

 private:
  std::shared_ptr<const FaultPlan> plan_;
  Target target_;
  obs::TraceBuffer* trace_buf_ = nullptr;
  std::uint32_t trace_track_ = 0;
  // get() is logically const; operation numbering and stats are not.
  mutable std::uint64_t op_counter_ = 0;
  mutable FaultStats stats_;
};

// FileStore with the same decoration, for fault-injecting real-filesystem
// paths (e.g. the integration example's PFS directory).
class FaultyFileStore final : public ckpt::FileStore {
 public:
  FaultyFileStore(std::filesystem::path root,
                  std::shared_ptr<const FaultPlan> plan, Target target);

  ckpt::StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                        ByteSpan data) override;
  [[nodiscard]] ckpt::StoreResult<Bytes> get(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // Same contract as FaultyKvStore::set_trace.
  void set_trace(obs::TraceBuffer* buf, std::uint32_t track) {
    trace_buf_ = buf;
    trace_track_ = track;
  }

 private:
  std::shared_ptr<const FaultPlan> plan_;
  Target target_;
  obs::TraceBuffer* trace_buf_ = nullptr;
  std::uint32_t trace_track_ = 0;
  mutable std::uint64_t op_counter_ = 0;
  mutable FaultStats stats_;
};

// Forwarding fault decorator over a store the caller does NOT own.
// FaultyKvStore above *is* the device (it inherits the entry map), which
// is right when each manager gets a private store - but the service layer
// (src/svc) shares one IO device across tenants, and each tenant needs
// its own fault schedule over its own window of that device. The proxy
// holds no entries: it numbers operations, consults the plan, and
// forwards to `inner` (typically a ckpt::TenantStoreView). Injection
// semantics match FaultyKvStore exactly; a null plan forwards everything
// untouched.
//
// Like every fault store, operations must be serialized per proxy (the op
// counter and stats are unsynchronized) - the manager's data path already
// guarantees that for remote stores.
class FaultyStoreProxy final : public ckpt::KvStore {
 public:
  FaultyStoreProxy(std::shared_ptr<const FaultPlan> plan, Target target,
                   std::unique_ptr<ckpt::KvStore> inner);

  ckpt::StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                        Bytes data) override;
  [[nodiscard]] ckpt::StoreResult<Bytes> get(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;
  [[nodiscard]] ckpt::StoreResult<ckpt::EntryDigest> digest(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;
  [[nodiscard]] bool contains(std::uint32_t rank,
                              std::uint64_t checkpoint_id) const override;
  [[nodiscard]] std::optional<std::uint64_t> newest_id(
      std::uint32_t rank) const override;
  [[nodiscard]] std::vector<std::uint64_t> list(
      std::uint32_t rank) const override;
  void erase(std::uint32_t rank, std::uint64_t checkpoint_id) override;
  void clear() override;

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] ckpt::KvStore& inner() { return *inner_; }

 private:
  std::shared_ptr<const FaultPlan> plan_;  // may be null (clean tenant)
  Target target_;
  std::unique_ptr<ckpt::KvStore> inner_;
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
