#pragma once

// Node-local NVM checkpoint store, per section 4.2: "The NVM capacity is
// organized as a circular buffer where each checkpoint is written in a
// FIFO manner", with locking so the NDP can pin a checkpoint while it
// drains it to global I/O ("it locks the checkpoint to prevent it being
// over-written by a future checkpoint writing operation").
//
// Section 4.3's two-partition layout (uncompressed / compressed circular
// buffers) is realized by instantiating two NvmStores over the device's
// capacity split.
//
// Optional block dedup (docs/DELTA.md): with a nonzero dedup block size,
// capacity accounting charges each checkpoint only for the fixed-size
// blocks no resident checkpoint already holds - consecutive checkpoints of
// the same rank share most of their bytes, so the same NVM budget retains
// a longer history. Entries stay materialized (get() still returns a
// stable span of the full image); the dedup models the device's space
// accounting, and `used_bytes() <= logical_bytes()` exposes the savings.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/mutation_gate.hpp"
#include "common/bytes.hpp"

namespace ndpcr::ckpt {

class NvmStore {
 public:
  // `dedup_block_bytes` of 0 disables dedup accounting (every checkpoint
  // is charged its full size, the classic circular buffer).
  explicit NvmStore(std::size_t capacity_bytes,
                    std::size_t dedup_block_bytes = 0);

  // Append a checkpoint. Evicts the oldest *unlocked* checkpoints (FIFO)
  // until the new one fits. Returns false (and stores nothing) if it
  // cannot fit even after evicting everything evictable - locked entries
  // are never evicted. Ids must be strictly increasing.
  bool put(std::uint64_t checkpoint_id, Bytes data);

  // Access a stored checkpoint. The span is valid until the entry is
  // evicted or erased.
  [[nodiscard]] std::optional<ByteSpan> get(std::uint64_t checkpoint_id) const;

  [[nodiscard]] bool contains(std::uint64_t checkpoint_id) const;

  // Newest stored id, if any.
  [[nodiscard]] std::optional<std::uint64_t> newest_id() const;

  // Every stored id, oldest first (the restart inventory).
  [[nodiscard]] std::vector<std::uint64_t> ids() const;

  // Pin / unpin against FIFO eviction. Throws std::out_of_range for an
  // unknown id. Locks nest (each lock() needs an unlock()).
  void lock(std::uint64_t checkpoint_id);
  void unlock(std::uint64_t checkpoint_id);
  [[nodiscard]] bool is_locked(std::uint64_t checkpoint_id) const;

  // Explicitly drop a checkpoint (e.g. after it is safely on global I/O).
  // No-op for unknown ids; throws std::logic_error if locked.
  void erase(std::uint64_t checkpoint_id);

  // Simulated whole-device loss (node failure): clears everything.
  void clear();

  // Durable-mutation gate (docs/EQUIVALENCE.md), consulted before every
  // put/erase - before even the id-monotonicity check, so a dead device
  // silently swallows the retries of a write whose torn tail survived.
  void set_mutation_gate(MutationGate gate) { gate_ = std::move(gate); }

  // Flip one byte of a stored checkpoint in place (deterministic position
  // from `salt`; same primitive as KvStore::corrupt_entry). Returns false
  // for an unknown id or an empty entry. Fault-injection hook only.
  bool corrupt_entry(std::uint64_t checkpoint_id, std::uint64_t salt);

  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_; }
  [[nodiscard]] std::size_t used_bytes() const { return used_; }
  // Sum of resident checkpoint sizes (== used_bytes() without dedup).
  [[nodiscard]] std::size_t logical_bytes() const { return logical_; }
  [[nodiscard]] std::size_t dedup_saved_bytes() const {
    return logical_ - used_;
  }
  [[nodiscard]] std::size_t dedup_block_bytes() const {
    return dedup_block_;
  }
  [[nodiscard]] std::size_t count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t eviction_count() const { return evictions_; }

 private:
  struct Entry {
    std::uint64_t id;
    Bytes data;
    int lock_count = 0;
    std::size_t charged = 0;  // capacity bytes this entry accounts for
    std::vector<std::uint64_t> block_keys;  // dedup refs (empty w/o dedup)
  };
  struct BlockInfo {
    std::uint32_t size = 0;
    std::size_t refs = 0;
  };

  // Capacity this data would cost against the *current* block pool, plus
  // the probed key list (intra-image duplicates count once).
  std::size_t unique_cost(ByteSpan data,
                          std::vector<std::uint64_t>* keys_out) const;
  void admit_blocks(const Entry& entry);
  void release_entry(const Entry& entry);

  std::size_t capacity_;
  std::size_t dedup_block_;
  MutationGate gate_;
  std::size_t used_ = 0;
  std::size_t logical_ = 0;
  std::uint64_t evictions_ = 0;
  std::deque<Entry> entries_;  // FIFO order, oldest first
  // Content-addressed block refcounts; identity is (hash, size) with
  // linear key probing on collisions.
  std::map<std::uint64_t, BlockInfo> blocks_;
};

}  // namespace ndpcr::ckpt
