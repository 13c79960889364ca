#include "faults/faulty_stores.hpp"

#include <mutex>
#include <optional>
#include <utility>

#include "obs/trace.hpp"

namespace ndpcr::faults {
namespace {

ckpt::StoreError transient_error(Target target, std::uint64_t op) {
  return ckpt::StoreError{
      ckpt::StoreErrorKind::kTransient,
      "injected transient fault (target " + std::to_string(target.id) +
          ", op " + std::to_string(op) + ")"};
}

ckpt::StoreError outage_error(Target target, std::uint64_t op) {
  return ckpt::StoreError{
      ckpt::StoreErrorKind::kPermanent,
      "injected outage (target " + std::to_string(target.id) + ", op " +
          std::to_string(op) + ")"};
}

// Length of the prefix that survives a torn write: deterministic from the
// salt, always strictly shorter than the full payload.
std::size_t torn_length(std::size_t full, std::uint64_t salt) {
  if (full <= 1) return 0;
  return ckpt::splitmix64(salt) % full;
}

const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransient: return "fault_transient";
    case FaultKind::kOutage: return "fault_outage";
    case FaultKind::kTorn: return "fault_torn";
    case FaultKind::kBitFlip: return "fault_bitflip";
    case FaultKind::kStall: return "fault_stall";
    case FaultKind::kNone: break;
  }
  return "";
}

// Instant event per injected fault; rides the store's serialization rule
// (op numbering already requires one operation at a time per store).
void note_fault(obs::TraceBuffer* buf, std::uint32_t track, FaultKind kind,
                Target target, StoreOp op_kind, std::uint64_t op) {
  if (buf == nullptr || kind == FaultKind::kNone) return;
  buf->instant(fault_name(kind), "fault", track,
               {obs::u64("target", target.id), obs::u64("op", op),
                obs::str("dir", op_kind == StoreOp::kPut ? "put" : "get")});
}

// Count a fault that only a store can act on - an error or a stall - and
// return the typed error a kTransient or kOutage reports.
std::optional<ckpt::StoreError> store_fault(FaultKind kind, Target target,
                                            std::uint64_t op,
                                            FaultStats& stats) {
  switch (kind) {
    case FaultKind::kTransient:
      ++stats.transient_errors;
      return transient_error(target, op);
    case FaultKind::kOutage:
      ++stats.outage_errors;
      return outage_error(target, op);
    case FaultKind::kStall:
      ++stats.stalls;
      stats.stall_seconds += kStallSeconds;
      break;
    case FaultKind::kTorn:
    case FaultKind::kBitFlip:
    case FaultKind::kNone:
      break;
  }
  return std::nullopt;
}

// Back half of a flipped read: corrupt the returned copy (the stored
// entry stays intact).
ckpt::StoreResult<Bytes> flipped(ckpt::StoreResult<Bytes> got,
                                 std::uint64_t salt) {
  if (got.ok()) ckpt::corrupt_in_place(MutableByteSpan(*got), salt);
  return got;
}

// The put side of the fault model, shared by FaultyKvStore and the
// local-NVM write hook: count put `op` in `stats`, ask the plan about it,
// and apply a kTorn (keep a salt-chosen prefix) or kBitFlip (flip one
// byte) fault to `data`, counting it. Returns the kind decided; the
// caller acts on, and counts, the faults only a store can report
// (kTransient, kOutage, kStall).
FaultKind damage_put(const FaultPlan& plan, Target target, std::uint64_t op,
                     Bytes& data, FaultStats& stats) {
  ++stats.ops;
  const FaultKind kind = plan.decide(target, StoreOp::kPut, op);
  switch (kind) {
    case FaultKind::kTorn:
      ++stats.torn_writes;
      data.resize(torn_length(data.size(), plan.salt(target, op)));
      break;
    case FaultKind::kBitFlip:
      ++stats.bit_flips;
      ckpt::corrupt_in_place(MutableByteSpan(data), plan.salt(target, op));
      break;
    default:
      break;
  }
  return kind;
}

}  // namespace

FaultStats& FaultStats::operator+=(const FaultStats& other) {
  ops += other.ops;
  transient_errors += other.transient_errors;
  torn_writes += other.torn_writes;
  bit_flips += other.bit_flips;
  stalls += other.stalls;
  outage_errors += other.outage_errors;
  stall_seconds += other.stall_seconds;
  return *this;
}

FaultyKvStore::FaultyKvStore(std::shared_ptr<const FaultPlan> plan,
                             Target target,
                             std::unique_ptr<ckpt::KvStore> inner)
    : ForwardingKvStore(std::move(inner)),
      plan_(std::move(plan)),
      target_(target) {}

ckpt::StoreStatus FaultyKvStore::put(std::uint32_t rank,
                                     std::uint64_t checkpoint_id,
                                     Bytes data) {
  if (plan_ != nullptr) {
    const std::uint64_t op = op_counter_++;
    const FaultKind kind = damage_put(*plan_, target_, op, data, stats_);
    note_fault(trace_buf_, trace_track_, kind, target_, StoreOp::kPut, op);
    if (auto error = store_fault(kind, target_, op, stats_)) {
      return *std::move(error);
    }
  }
  return inner().put(rank, checkpoint_id, std::move(data));
}

std::optional<ckpt::StoreError> FaultyKvStore::begin_read(std::uint64_t op,
                                                          bool& flip) const {
  ++stats_.ops;
  const FaultKind kind = plan_->decide(target_, StoreOp::kGet, op);
  note_fault(trace_buf_, trace_track_, kind, target_, StoreOp::kGet, op);
  flip = kind == FaultKind::kBitFlip;
  if (flip) ++stats_.bit_flips;
  return store_fault(kind, target_, op, stats_);
}

ckpt::StoreResult<Bytes> FaultyKvStore::get(
    std::uint32_t rank, std::uint64_t checkpoint_id) const {
  if (plan_ == nullptr) return inner().get(rank, checkpoint_id);
  const std::uint64_t op = op_counter_++;
  bool flip = false;
  if (auto error = begin_read(op, flip)) return *std::move(error);
  auto got = inner().get(rank, checkpoint_id);
  return flip ? flipped(std::move(got), plan_->salt(target_, op)) : got;
}

ckpt::StoreResult<ckpt::EntryDigest> FaultyKvStore::digest(
    std::uint32_t rank, std::uint64_t checkpoint_id) const {
  if (plan_ == nullptr) return inner().digest(rank, checkpoint_id);
  const std::uint64_t op = op_counter_++;
  bool flip = false;
  if (auto error = begin_read(op, flip)) return *std::move(error);
  if (!flip) return inner().digest(rank, checkpoint_id);
  // A flipped digest read reports the digest of the flipped copy get()
  // would have returned. The copy is made on the fault path only.
  auto got = flipped(inner().get(rank, checkpoint_id),
                     plan_->salt(target_, op));
  if (!got.ok()) return got.error();
  return ckpt::digest_of(ByteSpan(*got));
}

std::function<void(std::uint32_t, std::uint64_t, Bytes&)>
make_local_write_hook(std::shared_ptr<const FaultPlan> plan,
                      std::shared_ptr<FaultStats> stats) {
  // The parallel commit path invokes the hook from pool workers (one rank
  // per task); the shared FaultStats needs a lock. The counters are plain
  // order-independent sums, so totals stay thread-count-invariant. Fault
  // decisions derive from (per-rank target, per-rank op_index) alone -
  // scheduling cannot perturb them.
  auto mutex = std::make_shared<std::mutex>();
  return [plan = std::move(plan), stats = std::move(stats),
          mutex = std::move(mutex)](std::uint32_t rank,
                                    std::uint64_t op_index, Bytes& image) {
    // Transient/outage/stall faults are meaningless for a local memcpy:
    // only the damage applies, and only the damage is counted.
    const std::lock_guard<std::mutex> lock(*mutex);
    FaultStats unused;
    damage_put(*plan, local_target(rank), op_index, image,
               stats ? *stats : unused);
  };
}

}  // namespace ndpcr::faults
