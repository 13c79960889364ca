#pragma once

// Partner- and IO-level storage for multilevel checkpointing, plus XOR
// parity helpers for SCR-style partner groups.

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/mutation_gate.hpp"
#include "ckpt/store_error.hpp"
#include "common/bytes.hpp"

namespace ndpcr::ckpt {

// CRC-32 and length of a stored entry: what a write verify compares
// against the digest of the bytes it meant to store. A torn write changes
// the size, a bit flip the CRC (CRC-32 detects every single-bit error).
struct EntryDigest {
  std::uint32_t crc = 0;
  std::size_t size = 0;

  friend bool operator==(const EntryDigest&, const EntryDigest&) = default;
};

[[nodiscard]] EntryDigest digest_of(ByteSpan data);

// Simple keyed checkpoint store. Models a rank's slice of the parallel
// file system (IO-level) or the partner space a node donates to its
// neighbor (partner-level). Keys are (rank, checkpoint id).
//
// The mutating/reading entry points are virtual so the fault-injection
// layer (faults::FaultyKvStore) can decorate them with seeded transient
// errors, torn writes and silent corruption; the plain store never fails
// and never loses data. get() hands out an owning copy - earlier
// revisions returned a span into the map that dangled after erase() or
// clear(), which the chaos harness trips constantly.
class KvStore {
 public:
  KvStore() = default;
  virtual ~KvStore() = default;
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  virtual StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                          Bytes data);
  [[nodiscard]] virtual StoreResult<Bytes> get(
      std::uint32_t rank, std::uint64_t checkpoint_id) const;
  // Digest of the stored entry, computed over a borrowed view of its
  // bytes - no copy. The verify read of the write path. Decorators
  // forward it with get()'s exact fault semantics: it is one read
  // operation (one op index, one metered read), fails with the same
  // typed errors, and under an injected read bit flip returns the digest
  // of the flipped bytes get() would have returned.
  [[nodiscard]] virtual StoreResult<EntryDigest> digest(
      std::uint32_t rank, std::uint64_t checkpoint_id) const;
  [[nodiscard]] virtual bool contains(std::uint32_t rank,
                                      std::uint64_t checkpoint_id) const;
  // Newest id stored for a rank, if any.
  [[nodiscard]] virtual std::optional<std::uint64_t> newest_id(
      std::uint32_t rank) const;
  // Checkpoint ids present for a rank, ascending. Used by the restart
  // path (MultilevelConfig::adopt_existing) to inventory surviving state.
  [[nodiscard]] virtual std::vector<std::uint64_t> list(
      std::uint32_t rank) const;
  virtual void erase(std::uint32_t rank, std::uint64_t checkpoint_id);
  virtual void clear();

  // Install (or clear, with nullptr) the durable-mutation gate consulted
  // before every put/erase (docs/EQUIVALENCE.md). Lives in the base class
  // so fault decorators that forward to KvStore::put stay gated.
  void set_mutation_gate(MutationGate gate) { gate_ = std::move(gate); }

  // Flip one byte of a stored entry in place (deterministic position and
  // mask from `salt`). This is the single corruption primitive shared by
  // the MultilevelManager test hooks and the fault injector. Returns
  // false for an unknown key or an empty entry.
  bool corrupt_entry(std::uint32_t rank, std::uint64_t checkpoint_id,
                     std::uint64_t salt);

  [[nodiscard]] std::size_t used_bytes() const { return used_; }
  [[nodiscard]] std::size_t count() const { return entries_.size(); }

 private:
  std::map<std::pair<std::uint32_t, std::uint64_t>, Bytes> entries_;
  std::size_t used_ = 0;
  MutationGate gate_;
};

// Deterministically flip one byte of `data` (position and bit chosen from
// `salt` via splitmix64). No-op on an empty span. The shared primitive
// behind every silent-corruption path: KvStore::corrupt_entry,
// NvmStore::corrupt_entry, and the FaultPlan's bit-flip injection.
void corrupt_in_place(MutableByteSpan data, std::uint64_t salt);

// SplitMix64 mixing step - the deterministic hash behind corrupt_in_place
// and the fault plan's per-operation decisions.
std::uint64_t splitmix64(std::uint64_t x);

// dst[i] ^= src[i] for every i below both sizes, a word at a time. A
// shorter `src` acts as if zero-padded to dst's length - the fold the XOR
// partner level uses to build parity from unequal images without padded
// copies.
void xor_into(MutableByteSpan dst, ByteSpan src);

// XOR parity across equal-length buffers (SCR's XOR partner scheme). All
// buffers must have the same size; with k data buffers, any single missing
// buffer can be rebuilt from the other k-1 plus the parity.
Bytes xor_parity(const std::vector<Bytes>& buffers);

// Rebuild one missing buffer from the parity and the surviving buffers.
Bytes xor_rebuild(const Bytes& parity, const std::vector<Bytes>& survivors);

}  // namespace ndpcr::ckpt
