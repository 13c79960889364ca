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

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/mutation_gate.hpp"
#include "common/bytes.hpp"

namespace ndpcr::ckpt {

class NvmStore {
 public:
  explicit NvmStore(std::size_t capacity_bytes);
  // Retires every entry's buffer to the process buffer pool, as eviction,
  // erase() and clear() do (common/buffer_pool.hpp).
  ~NvmStore();
  NvmStore(const NvmStore&) = delete;
  NvmStore& operator=(const NvmStore&) = delete;

  // Append a checkpoint, taking `data` over. Evicts the oldest *unlocked*
  // checkpoints (FIFO) until the new one fits. Returns false if it
  // cannot fit even after evicting everything evictable - locked entries
  // are never evicted; it then stores nothing and leaves `data`
  // untouched, so a caller can keep the bytes a full device refused. Ids
  // must be strictly increasing.
  bool put(std::uint64_t checkpoint_id, Bytes&& data);

  // Whether put() would take `bytes` now: the same FIFO walk, evicting
  // nothing. (A mutation gate is not consulted.)
  [[nodiscard]] bool fits(std::size_t bytes) const {
    return plan_eviction(bytes).second;
  }

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
  [[nodiscard]] std::size_t count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t eviction_count() const { return evictions_; }

 private:
  struct Entry {
    std::uint64_t id;
    Bytes data;
    int lock_count = 0;
  };

  // put()'s FIFO walk: {front entries to evict, whether `bytes` then
  // fits}. A locked entry stops it, as does the end of the buffer.
  [[nodiscard]] std::pair<std::size_t, bool> plan_eviction(
      std::size_t bytes) const;

  std::size_t capacity_;
  MutationGate gate_;
  std::size_t used_ = 0;
  std::uint64_t evictions_ = 0;
  std::deque<Entry> entries_;  // FIFO order, oldest first
};

}  // namespace ndpcr::ckpt
