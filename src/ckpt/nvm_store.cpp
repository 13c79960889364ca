#include "ckpt/nvm_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "ckpt/stores.hpp"
#include "delta/delta.hpp"

namespace ndpcr::ckpt {

NvmStore::NvmStore(std::size_t capacity_bytes, std::size_t dedup_block_bytes)
    : capacity_(capacity_bytes), dedup_block_(dedup_block_bytes) {}

std::size_t NvmStore::unique_cost(
    ByteSpan data, std::vector<std::uint64_t>* keys_out) const {
  if (dedup_block_ == 0) {
    if (keys_out) keys_out->clear();
    return data.size();
  }
  std::size_t cost = 0;
  // Blocks staged by this image (intra-image duplicates count once).
  std::map<std::uint64_t, std::uint32_t> pending;
  if (keys_out) {
    keys_out->clear();
    keys_out->reserve(data.size() / dedup_block_ + 1);
  }
  for (std::size_t pos = 0; pos < data.size(); pos += dedup_block_) {
    const std::size_t len = std::min(dedup_block_, data.size() - pos);
    const auto size = static_cast<std::uint32_t>(len);
    std::uint64_t key = delta::block_hash(data.subspan(pos, len));
    for (;; ++key) {
      const auto it = blocks_.find(key);
      if (it != blocks_.end()) {
        if (it->second.size == size) break;  // resident duplicate
        continue;                            // collision: probe on
      }
      const auto pit = pending.find(key);
      if (pit != pending.end()) {
        if (pit->second == size) break;  // duplicate within this image
        continue;
      }
      pending.emplace(key, size);
      cost += len;
      break;
    }
    if (keys_out) keys_out->push_back(key);
  }
  return cost;
}

void NvmStore::admit_blocks(const Entry& entry) {
  std::size_t pos = 0;
  for (const std::uint64_t key : entry.block_keys) {
    const auto size = static_cast<std::uint32_t>(
        std::min(dedup_block_, entry.data.size() - pos));
    auto [it, inserted] = blocks_.try_emplace(key, BlockInfo{size, 0});
    // Physical usage is charged when a block becomes resident and
    // refunded when its last reference drops (release_entry) - never
    // against the entry that happened to pay for it, because a shared
    // block must stay charged while any later checkpoint references it.
    if (inserted) used_ += size;
    ++it->second.refs;
    pos += dedup_block_;
  }
}

void NvmStore::release_entry(const Entry& entry) {
  logical_ -= entry.data.size();
  if (dedup_block_ == 0) {
    used_ -= entry.charged;
    return;
  }
  for (const std::uint64_t key : entry.block_keys) {
    auto it = blocks_.find(key);
    if (it == blocks_.end()) continue;
    if (--it->second.refs == 0) {
      used_ -= it->second.size;
      blocks_.erase(it);
    }
  }
}

bool NvmStore::put(std::uint64_t checkpoint_id, Bytes data) {
  if (gate_) {
    const MutationDecision d =
        gate_({MutationOp::kPut, 0, checkpoint_id, data.size()});
    if (d.drop) return true;  // the dead device reports success
    if (d.torn && d.keep_bytes < data.size()) data.resize(d.keep_bytes);
  }
  if (!entries_.empty() && checkpoint_id <= entries_.back().id) {
    throw std::logic_error("checkpoint ids must be strictly increasing");
  }
  // Without dedup the cost is fixed, so an oversized checkpoint is
  // rejected before anything is evicted. With dedup the cost depends on
  // the resident blocks and is settled by the loop below.
  if (dedup_block_ == 0 && data.size() > capacity_) return false;

  // Evict oldest unlocked entries until the new checkpoint fits. Locked
  // entries block eviction of everything behind them too - a circular
  // buffer cannot reclaim around a pinned region - which matches the
  // paper's description of the NDP pausing new local writes if it falls
  // too far behind. With dedup the cost depends on which blocks survive,
  // so it is recomputed after every eviction.
  std::vector<std::uint64_t> keys;
  std::size_t charge = 0;
  while (true) {
    charge = unique_cost(ByteSpan(data), &keys);
    if (used_ + charge <= capacity_) break;
    if (entries_.empty() || entries_.front().lock_count > 0) {
      return false;
    }
    release_entry(entries_.front());
    entries_.pop_front();
    ++evictions_;
  }
  logical_ += data.size();
  Entry entry{checkpoint_id, std::move(data), 0, charge, std::move(keys)};
  if (dedup_block_ != 0) {
    admit_blocks(entry);  // adds exactly `charge` newly-resident bytes
  } else {
    used_ += charge;
  }
  entries_.push_back(std::move(entry));
  return true;
}

std::optional<ByteSpan> NvmStore::get(std::uint64_t checkpoint_id) const {
  for (const auto& e : entries_) {
    if (e.id == checkpoint_id) return ByteSpan(e.data);
  }
  return std::nullopt;
}

bool NvmStore::contains(std::uint64_t checkpoint_id) const {
  return get(checkpoint_id).has_value();
}

std::optional<std::uint64_t> NvmStore::newest_id() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.back().id;
}

std::vector<std::uint64_t> NvmStore::ids() const {
  std::vector<std::uint64_t> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.id);
  return out;
}

void NvmStore::lock(std::uint64_t checkpoint_id) {
  for (auto& e : entries_) {
    if (e.id == checkpoint_id) {
      ++e.lock_count;
      return;
    }
  }
  throw std::out_of_range("lock: unknown checkpoint id");
}

void NvmStore::unlock(std::uint64_t checkpoint_id) {
  for (auto& e : entries_) {
    if (e.id == checkpoint_id) {
      if (e.lock_count == 0) {
        throw std::logic_error("unlock: checkpoint is not locked");
      }
      --e.lock_count;
      return;
    }
  }
  throw std::out_of_range("unlock: unknown checkpoint id");
}

bool NvmStore::is_locked(std::uint64_t checkpoint_id) const {
  for (const auto& e : entries_) {
    if (e.id == checkpoint_id) return e.lock_count > 0;
  }
  return false;
}

void NvmStore::erase(std::uint64_t checkpoint_id) {
  if (gate_) {
    const MutationDecision d = gate_({MutationOp::kErase, 0, checkpoint_id, 0});
    if (d.drop) return;
  }
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.id == checkpoint_id; });
  if (it == entries_.end()) return;
  if (it->lock_count > 0) {
    throw std::logic_error("erase: checkpoint is locked");
  }
  release_entry(*it);
  entries_.erase(it);
}

void NvmStore::clear() {
  entries_.clear();
  blocks_.clear();
  used_ = 0;
  logical_ = 0;
}

bool NvmStore::corrupt_entry(std::uint64_t checkpoint_id,
                             std::uint64_t salt) {
  for (auto& e : entries_) {
    if (e.id == checkpoint_id) {
      if (e.data.empty()) return false;
      // Flips a byte of the materialized copy only; the dedup accounting
      // keys describe what was written, and stay consistent for release.
      corrupt_in_place(MutableByteSpan(e.data), salt);
      return true;
    }
  }
  return false;
}

}  // namespace ndpcr::ckpt
