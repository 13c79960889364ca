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

// Front half shared by every fault-decorated read (get and digest): ask
// the plan about read `op`, count the injection, and either return the
// typed error to report or nullopt - with `flip` set when the read must
// corrupt what it returns.
std::optional<ckpt::StoreError> begin_read(const FaultPlan& plan,
                                           Target target, std::uint64_t op,
                                           FaultStats& stats,
                                           obs::TraceBuffer* buf,
                                           std::uint32_t track, bool& flip) {
  ++stats.ops;
  const FaultKind kind = plan.decide(target, StoreOp::kGet, op);
  note_fault(buf, track, kind, target, StoreOp::kGet, op);
  flip = false;
  switch (kind) {
    case FaultKind::kTransient:
      ++stats.transient_errors;
      return transient_error(target, op);
    case FaultKind::kOutage:
      ++stats.outage_errors;
      return outage_error(target, op);
    case FaultKind::kBitFlip:
      ++stats.bit_flips;
      flip = true;
      break;
    case FaultKind::kStall:
      ++stats.stalls;
      stats.stall_seconds += kStallSeconds;
      break;
    case FaultKind::kTorn:  // puts only; decide() never returns it for gets
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

// A flipped digest read reports the digest of the flipped copy get()
// would have returned. The copy is made on the fault path only.
ckpt::StoreResult<ckpt::EntryDigest> flipped_digest(
    ckpt::StoreResult<Bytes> got, std::uint64_t salt) {
  got = flipped(std::move(got), salt);
  if (!got.ok()) return got.error();
  return ckpt::digest_of(ByteSpan(*got));
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
                             Target target)
    : plan_(std::move(plan)), target_(target) {}

ckpt::StoreStatus FaultyKvStore::put(std::uint32_t rank,
                                     std::uint64_t checkpoint_id,
                                     Bytes data) {
  const std::uint64_t op = op_counter_++;
  ++stats_.ops;
  const FaultKind kind = plan_->decide(target_, StoreOp::kPut, op);
  note_fault(trace_buf_, trace_track_, kind, target_, StoreOp::kPut, op);
  switch (kind) {
    case FaultKind::kTransient:
      ++stats_.transient_errors;
      return transient_error(target_, op);
    case FaultKind::kOutage:
      ++stats_.outage_errors;
      return outage_error(target_, op);
    case FaultKind::kTorn: {
      ++stats_.torn_writes;
      data.resize(torn_length(data.size(), plan_->salt(target_, op)));
      return KvStore::put(rank, checkpoint_id, std::move(data));
    }
    case FaultKind::kBitFlip:
      ++stats_.bit_flips;
      ckpt::corrupt_in_place(MutableByteSpan(data),
                             plan_->salt(target_, op));
      return KvStore::put(rank, checkpoint_id, std::move(data));
    case FaultKind::kStall:
      ++stats_.stalls;
      stats_.stall_seconds += kStallSeconds;
      [[fallthrough]];
    case FaultKind::kNone:
      break;
  }
  return KvStore::put(rank, checkpoint_id, std::move(data));
}

ckpt::StoreResult<Bytes> FaultyKvStore::get(
    std::uint32_t rank, std::uint64_t checkpoint_id) const {
  const std::uint64_t op = op_counter_++;
  bool flip = false;
  if (auto error = begin_read(*plan_, target_, op, stats_, trace_buf_,
                              trace_track_, flip)) {
    return *std::move(error);
  }
  auto got = KvStore::get(rank, checkpoint_id);
  return flip ? flipped(std::move(got), plan_->salt(target_, op)) : got;
}

ckpt::StoreResult<ckpt::EntryDigest> FaultyKvStore::digest(
    std::uint32_t rank, std::uint64_t checkpoint_id) const {
  const std::uint64_t op = op_counter_++;
  bool flip = false;
  if (auto error = begin_read(*plan_, target_, op, stats_, trace_buf_,
                              trace_track_, flip)) {
    return *std::move(error);
  }
  if (!flip) return KvStore::digest(rank, checkpoint_id);
  return flipped_digest(KvStore::get(rank, checkpoint_id),
                        plan_->salt(target_, op));
}

FaultyFileStore::FaultyFileStore(std::filesystem::path root,
                                 std::shared_ptr<const FaultPlan> plan,
                                 Target target)
    : ckpt::FileStore(std::move(root)),
      plan_(std::move(plan)),
      target_(target) {}

ckpt::StoreStatus FaultyFileStore::put(std::uint32_t rank,
                                       std::uint64_t checkpoint_id,
                                       ByteSpan data) {
  const std::uint64_t op = op_counter_++;
  ++stats_.ops;
  const FaultKind kind = plan_->decide(target_, StoreOp::kPut, op);
  note_fault(trace_buf_, trace_track_, kind, target_, StoreOp::kPut, op);
  switch (kind) {
    case FaultKind::kTransient:
      ++stats_.transient_errors;
      return transient_error(target_, op);
    case FaultKind::kOutage:
      ++stats_.outage_errors;
      return outage_error(target_, op);
    case FaultKind::kTorn: {
      ++stats_.torn_writes;
      const std::size_t n =
          torn_length(data.size(), plan_->salt(target_, op));
      return FileStore::put(rank, checkpoint_id, data.subspan(0, n));
    }
    case FaultKind::kBitFlip: {
      ++stats_.bit_flips;
      Bytes flipped(data.begin(), data.end());
      ckpt::corrupt_in_place(MutableByteSpan(flipped),
                             plan_->salt(target_, op));
      return FileStore::put(rank, checkpoint_id, ByteSpan(flipped));
    }
    case FaultKind::kStall:
      ++stats_.stalls;
      stats_.stall_seconds += kStallSeconds;
      [[fallthrough]];
    case FaultKind::kNone:
      break;
  }
  return FileStore::put(rank, checkpoint_id, data);
}

ckpt::StoreResult<Bytes> FaultyFileStore::get(
    std::uint32_t rank, std::uint64_t checkpoint_id) const {
  const std::uint64_t op = op_counter_++;
  bool flip = false;
  if (auto error = begin_read(*plan_, target_, op, stats_, trace_buf_,
                              trace_track_, flip)) {
    return *std::move(error);
  }
  auto got = FileStore::get(rank, checkpoint_id);
  return flip ? flipped(std::move(got), plan_->salt(target_, op)) : got;
}

FaultyStoreProxy::FaultyStoreProxy(std::shared_ptr<const FaultPlan> plan,
                                   Target target,
                                   std::unique_ptr<ckpt::KvStore> inner)
    : plan_(std::move(plan)), target_(target), inner_(std::move(inner)) {}

ckpt::StoreStatus FaultyStoreProxy::put(std::uint32_t rank,
                                        std::uint64_t checkpoint_id,
                                        Bytes data) {
  if (plan_ == nullptr) {
    return inner_->put(rank, checkpoint_id, std::move(data));
  }
  const std::uint64_t op = op_counter_++;
  ++stats_.ops;
  switch (plan_->decide(target_, StoreOp::kPut, op)) {
    case FaultKind::kTransient:
      ++stats_.transient_errors;
      return transient_error(target_, op);
    case FaultKind::kOutage:
      ++stats_.outage_errors;
      return outage_error(target_, op);
    case FaultKind::kTorn:
      ++stats_.torn_writes;
      data.resize(torn_length(data.size(), plan_->salt(target_, op)));
      return inner_->put(rank, checkpoint_id, std::move(data));
    case FaultKind::kBitFlip:
      ++stats_.bit_flips;
      ckpt::corrupt_in_place(MutableByteSpan(data),
                             plan_->salt(target_, op));
      return inner_->put(rank, checkpoint_id, std::move(data));
    case FaultKind::kStall:
      ++stats_.stalls;
      stats_.stall_seconds += kStallSeconds;
      [[fallthrough]];
    case FaultKind::kNone:
      break;
  }
  return inner_->put(rank, checkpoint_id, std::move(data));
}

ckpt::StoreResult<Bytes> FaultyStoreProxy::get(
    std::uint32_t rank, std::uint64_t checkpoint_id) const {
  if (plan_ == nullptr) return inner_->get(rank, checkpoint_id);
  const std::uint64_t op = op_counter_++;
  bool flip = false;
  if (auto error =
          begin_read(*plan_, target_, op, stats_, nullptr, 0, flip)) {
    return *std::move(error);
  }
  auto got = inner_->get(rank, checkpoint_id);
  return flip ? flipped(std::move(got), plan_->salt(target_, op)) : got;
}

ckpt::StoreResult<ckpt::EntryDigest> FaultyStoreProxy::digest(
    std::uint32_t rank, std::uint64_t checkpoint_id) const {
  if (plan_ == nullptr) return inner_->digest(rank, checkpoint_id);
  const std::uint64_t op = op_counter_++;
  bool flip = false;
  if (auto error =
          begin_read(*plan_, target_, op, stats_, nullptr, 0, flip)) {
    return *std::move(error);
  }
  if (!flip) return inner_->digest(rank, checkpoint_id);
  return flipped_digest(inner_->get(rank, checkpoint_id),
                        plan_->salt(target_, op));
}

bool FaultyStoreProxy::contains(std::uint32_t rank,
                                std::uint64_t checkpoint_id) const {
  return inner_->contains(rank, checkpoint_id);
}

std::optional<std::uint64_t> FaultyStoreProxy::newest_id(
    std::uint32_t rank) const {
  return inner_->newest_id(rank);
}

std::vector<std::uint64_t> FaultyStoreProxy::list(std::uint32_t rank) const {
  return inner_->list(rank);
}

void FaultyStoreProxy::erase(std::uint32_t rank,
                             std::uint64_t checkpoint_id) {
  inner_->erase(rank, checkpoint_id);
}

void FaultyStoreProxy::clear() { inner_->clear(); }

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
    const Target target = local_target(rank);
    const std::lock_guard<std::mutex> lock(*mutex);
    if (stats) ++stats->ops;
    switch (plan->decide(target, StoreOp::kPut, op_index)) {
      case FaultKind::kTorn:
        if (stats) ++stats->torn_writes;
        image.resize(torn_length(image.size(), plan->salt(target, op_index)));
        break;
      case FaultKind::kBitFlip:
        if (stats) ++stats->bit_flips;
        ckpt::corrupt_in_place(MutableByteSpan(image),
                               plan->salt(target, op_index));
        break;
      default:
        break;  // transient/outage/stall: meaningless for a local memcpy
    }
  };
}

}  // namespace ndpcr::faults
