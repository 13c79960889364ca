#pragma once

// Partner- and IO-level storage for multilevel checkpointing, plus XOR
// parity helpers for SCR-style partner groups.

#include <cstdint>
#include <map>
#include <memory>
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
// Every entry point is virtual so decorators built on ForwardingKvStore
// (below) can wrap a store: seeded fault injection
// (faults::FaultyKvStore), tenant windows onto a shared device
// (TenantStoreView), the crash simulator's views. The plain store never
// fails and never loses data. get() hands out an owning copy - earlier
// revisions returned a span into the map that dangled after erase() or
// clear(), which the chaos harness trips constantly.
class KvStore {
 public:
  KvStore() = default;
  // Every buffer a store drops - overwritten, erased, cleared or held at
  // destruction - is retired to the process buffer pool
  // (common/buffer_pool.hpp).
  virtual ~KvStore();
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
  // before every put/erase (docs/EQUIVALENCE.md). A decorator forwards it
  // to the store that holds the entries, so the gate sees every mutation
  // after the decorators above it have shaped it.
  virtual void set_mutation_gate(MutationGate gate) {
    gate_ = std::move(gate);
  }

  // Flip one byte of a stored entry in place (deterministic position and
  // mask from `salt`). This is the single corruption primitive shared by
  // the MultilevelManager test hooks and the fault injector. Returns
  // false for an unknown key or an empty entry.
  virtual bool corrupt_entry(std::uint32_t rank,
                             std::uint64_t checkpoint_id,
                             std::uint64_t salt);

  [[nodiscard]] virtual std::size_t used_bytes() const { return used_; }
  [[nodiscard]] virtual std::size_t count() const { return entries_.size(); }

 private:
  std::map<std::pair<std::uint32_t, std::uint64_t>, Bytes> entries_;
  std::size_t used_ = 0;
  MutationGate gate_;
};

// A store that forwards every operation - observers, the corruption
// primitive and the mutation gate included - to an inner store it owns
// (unique_ptr form) or borrows (reference form: `inner` must outlive the
// view). Its own entry map stays empty and is never consulted, so a
// decorator can neither answer from nor gate it. Decorators derive from
// it and override only what they change: faults::FaultyKvStore numbers
// and faults operations, TenantStoreView offsets ranks and charges a
// quota. Used as is, it is a view whose bytes outlive it (the crash
// simulator hands managers these over its surviving devices).
class ForwardingKvStore : public KvStore {
 public:
  explicit ForwardingKvStore(KvStore& inner) : inner_(&inner) {}
  explicit ForwardingKvStore(std::unique_ptr<KvStore> inner)
      : owned_(std::move(inner)), inner_(owned_.get()) {}

  StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                  Bytes data) override {
    return inner_->put(rank, checkpoint_id, std::move(data));
  }
  [[nodiscard]] StoreResult<Bytes> get(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override {
    return inner_->get(rank, checkpoint_id);
  }
  [[nodiscard]] StoreResult<EntryDigest> digest(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override {
    return inner_->digest(rank, checkpoint_id);
  }
  [[nodiscard]] bool contains(std::uint32_t rank,
                              std::uint64_t checkpoint_id) const override {
    return inner_->contains(rank, checkpoint_id);
  }
  [[nodiscard]] std::optional<std::uint64_t> newest_id(
      std::uint32_t rank) const override {
    return inner_->newest_id(rank);
  }
  [[nodiscard]] std::vector<std::uint64_t> list(
      std::uint32_t rank) const override {
    return inner_->list(rank);
  }
  void erase(std::uint32_t rank, std::uint64_t checkpoint_id) override {
    inner_->erase(rank, checkpoint_id);
  }
  void clear() override { inner_->clear(); }
  void set_mutation_gate(MutationGate gate) override {
    inner_->set_mutation_gate(std::move(gate));
  }
  bool corrupt_entry(std::uint32_t rank, std::uint64_t checkpoint_id,
                     std::uint64_t salt) override {
    return inner_->corrupt_entry(rank, checkpoint_id, salt);
  }
  [[nodiscard]] std::size_t used_bytes() const override {
    return inner_->used_bytes();
  }
  [[nodiscard]] std::size_t count() const override { return inner_->count(); }

 protected:
  [[nodiscard]] KvStore& inner() const { return *inner_; }

 private:
  std::unique_ptr<KvStore> owned_;  // null when borrowed
  KvStore* inner_;
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
