#include "ckpt/nvm_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "ckpt/stores.hpp"
#include "common/buffer_pool.hpp"

namespace ndpcr::ckpt {

NvmStore::NvmStore(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

NvmStore::~NvmStore() { clear(); }

bool NvmStore::put(std::uint64_t checkpoint_id, Bytes&& data) {
  std::size_t size = data.size();
  if (gate_) {
    const MutationDecision d =
        gate_({MutationOp::kPut, 0, checkpoint_id, size});
    if (d.drop) return true;  // the dead device reports success
    if (d.torn) size = std::min(size, d.keep_bytes);
  }
  if (!entries_.empty() && checkpoint_id <= entries_.back().id) {
    throw std::logic_error("checkpoint ids must be strictly increasing");
  }
  // Evict oldest unlocked entries until the new checkpoint fits (none for
  // one larger than the device). Locked entries block eviction of
  // everything behind them too - a circular buffer cannot reclaim around
  // a pinned region - which matches the paper's description of the NDP
  // pausing new local writes if it falls too far behind.
  const auto [evict, admitted] = plan_eviction(size);
  for (std::size_t i = 0; i < evict; ++i) {
    used_ -= entries_.front().data.size();
    BufferPool::global().retire(std::move(entries_.front().data));
    entries_.pop_front();
    ++evictions_;
  }
  if (!admitted) return false;
  data.resize(size);
  used_ += size;
  entries_.push_back(Entry{checkpoint_id, std::move(data), 0});
  return true;
}

std::pair<std::size_t, bool> NvmStore::plan_eviction(
    std::size_t bytes) const {
  if (bytes > capacity_) return {0, false};
  std::size_t evict = 0;
  for (std::size_t used = used_; used + bytes > capacity_; ++evict) {
    if (evict == entries_.size() || entries_[evict].lock_count > 0) {
      return {evict, false};
    }
    used -= entries_[evict].data.size();
  }
  return {evict, true};
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
  used_ -= it->data.size();
  BufferPool::global().retire(std::move(it->data));
  entries_.erase(it);
}

void NvmStore::clear() {
  BufferPool& pool = BufferPool::global();
  for (Entry& e : entries_) pool.retire(std::move(e.data));
  entries_.clear();
  used_ = 0;
}

bool NvmStore::corrupt_entry(std::uint64_t checkpoint_id,
                             std::uint64_t salt) {
  for (auto& e : entries_) {
    if (e.id == checkpoint_id) {
      if (e.data.empty()) return false;
      corrupt_in_place(MutableByteSpan(e.data), salt);
      return true;
    }
  }
  return false;
}

}  // namespace ndpcr::ckpt
