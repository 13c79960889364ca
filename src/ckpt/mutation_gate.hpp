#pragma once

// Durable-mutation gate: the crash-anywhere hook of docs/EQUIVALENCE.md.
//
// Every store that holds state a restart could recover from (KvStore,
// NvmStore, FileStore) consults an optional MutationGate immediately
// before applying a mutation. The gate sees the mutation's coordinates
// (operation kind, rank, key, size) and decides what the device does:
//
//   pass    - apply normally (also how a recording gate enumerates the
//             durable-mutation sites of a run as numbered crash points)
//   drop    - apply nothing, but report success: the process died before
//             the bytes reached the device, and a dead process cannot
//             observe the error
//   torn    - a put applies only its first `keep_bytes` bytes and reports
//             success: the write was in flight when the process died
//
// Dropping reports success on purpose. A crash is not an IO error - the
// self-healing retry path must not resurrect writes the simulated death
// already discarded - so the commit path runs to completion believing its
// writes landed, exactly like a buffered write lost in a real crash. The
// verify-readback layer may notice (and burn its retries against more
// dropped writes); that is the honest post-mortem behaviour.
//
// The gate is consulted in the *base* store implementations, and a
// decorator (ckpt::ForwardingKvStore and the fault decorator built on it,
// faults::FaultyKvStore) forwards set_mutation_gate to the store it
// wraps, so the two compose: a seeded fault schedule and an armed crash
// point can both apply to the same operation.

#include <cstdint>
#include <functional>

namespace ndpcr::ckpt {

// What kind of durable mutation is about to happen. kPointer is
// FileStore's latest-pointer metadata update - a distinct crash site from
// the data-file write it follows.
enum class MutationOp : std::uint8_t { kPut, kErase, kPointer };

const char* to_string(MutationOp op);

// Coordinates of one durable mutation, as the gate sees them. `rank` and
// `key` identify the entry ((rank, checkpoint id) for KvStore/FileStore;
// NvmStore passes rank 0 and its checkpoint id - the device itself is
// identified by which gate was installed). `size` is the payload size for
// puts, 0 for erases.
struct MutationSite {
  MutationOp op = MutationOp::kPut;
  std::uint32_t rank = 0;
  std::uint64_t key = 0;
  std::size_t size = 0;
};

struct MutationDecision {
  bool drop = false;            // store nothing, report success
  std::size_t keep_bytes = 0;   // with torn: bytes of the prefix to keep
  bool torn = false;            // puts only: apply a truncated prefix
};

// One gate per device. Stores call it single-threaded per device (each
// NVM/partner device is owned by one task per phase; the IO store is
// serial), so implementations may keep per-device counters unsynchronized.
using MutationGate = std::function<MutationDecision(const MutationSite&)>;

}  // namespace ndpcr::ckpt
