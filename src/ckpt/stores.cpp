#include "ckpt/stores.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/crc32.hpp"

namespace ndpcr::ckpt {

const char* to_string(MutationOp op) {
  switch (op) {
    case MutationOp::kPut:
      return "put";
    case MutationOp::kErase:
      return "erase";
    case MutationOp::kPointer:
      return "pointer";
  }
  return "?";
}

StoreStatus KvStore::put(std::uint32_t rank, std::uint64_t checkpoint_id,
                         Bytes data) {
  if (gate_) {
    const MutationDecision d =
        gate_({MutationOp::kPut, rank, checkpoint_id, data.size()});
    if (d.drop) return StoreStatus::success();
    if (d.torn && d.keep_bytes < data.size()) data.resize(d.keep_bytes);
  }
  const auto key = std::make_pair(rank, checkpoint_id);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    used_ -= it->second.size();
    it->second = std::move(data);
    used_ += it->second.size();
  } else {
    used_ += data.size();
    entries_.emplace(key, std::move(data));
  }
  return StoreStatus::success();
}

StoreResult<Bytes> KvStore::get(std::uint32_t rank,
                                std::uint64_t checkpoint_id) const {
  auto it = entries_.find(std::make_pair(rank, checkpoint_id));
  if (it == entries_.end()) return StoreResult<Bytes>::not_found();
  return Bytes(it->second);
}

StoreResult<EntryDigest> KvStore::digest(std::uint32_t rank,
                                         std::uint64_t checkpoint_id) const {
  auto it = entries_.find(std::make_pair(rank, checkpoint_id));
  if (it == entries_.end()) return StoreResult<EntryDigest>::not_found();
  return digest_of(ByteSpan(it->second));
}

EntryDigest digest_of(ByteSpan data) {
  return EntryDigest{Crc32::compute(data), data.size()};
}

bool KvStore::contains(std::uint32_t rank,
                       std::uint64_t checkpoint_id) const {
  return entries_.count(std::make_pair(rank, checkpoint_id)) > 0;
}

std::optional<std::uint64_t> KvStore::newest_id(std::uint32_t rank) const {
  // Entries for a rank are contiguous in the map; the last one before the
  // next rank's range is the newest.
  auto it = entries_.lower_bound(std::make_pair(rank + 1, std::uint64_t{0}));
  if (it == entries_.begin()) return std::nullopt;
  --it;
  if (it->first.first != rank) return std::nullopt;
  return it->first.second;
}

std::vector<std::uint64_t> KvStore::list(std::uint32_t rank) const {
  std::vector<std::uint64_t> ids;
  for (auto it = entries_.lower_bound(std::make_pair(rank, std::uint64_t{0}));
       it != entries_.end() && it->first.first == rank; ++it) {
    ids.push_back(it->first.second);
  }
  return ids;
}

void KvStore::erase(std::uint32_t rank, std::uint64_t checkpoint_id) {
  if (gate_) {
    const MutationDecision d =
        gate_({MutationOp::kErase, rank, checkpoint_id, 0});
    if (d.drop) return;
  }
  auto it = entries_.find(std::make_pair(rank, checkpoint_id));
  if (it == entries_.end()) return;
  used_ -= it->second.size();
  entries_.erase(it);
}

void KvStore::clear() {
  entries_.clear();
  used_ = 0;
}

bool KvStore::corrupt_entry(std::uint32_t rank, std::uint64_t checkpoint_id,
                            std::uint64_t salt) {
  auto it = entries_.find(std::make_pair(rank, checkpoint_id));
  if (it == entries_.end() || it->second.empty()) return false;
  corrupt_in_place(MutableByteSpan(it->second), salt);
  return true;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void corrupt_in_place(MutableByteSpan data, std::uint64_t salt) {
  if (data.empty()) return;
  const std::uint64_t h = splitmix64(salt);
  const std::size_t index = h % data.size();
  const auto mask = static_cast<std::byte>(1u << ((h >> 32) % 8));
  data[index] ^= mask;
}

void xor_into(MutableByteSpan dst, ByteSpan src) {
  const std::size_t n = std::min(dst.size(), src.size());
  std::byte* d = dst.data();
  const std::byte* s = src.data();
  // Words through memcpy: std::byte may alias anything, so a byte loop
  // defeats the vectorizer; fixed-size word copies compile to vector
  // loads and stores.
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t a[4];
    std::uint64_t b[4];
    std::memcpy(a, d + i, sizeof a);
    std::memcpy(b, s + i, sizeof b);
    for (int k = 0; k < 4; ++k) a[k] ^= b[k];
    std::memcpy(d + i, a, sizeof a);
  }
  for (; i < n; ++i) d[i] ^= s[i];
}

Bytes xor_parity(const std::vector<Bytes>& buffers) {
  if (buffers.empty()) {
    throw std::invalid_argument("xor_parity needs at least one buffer");
  }
  const std::size_t size = buffers.front().size();
  for (const auto& buf : buffers) {
    if (buf.size() != size) {
      throw std::invalid_argument("xor_parity buffers must be equal length");
    }
  }
  Bytes parity = buffers.front();
  for (std::size_t b = 1; b < buffers.size(); ++b) {
    xor_into(MutableByteSpan(parity), ByteSpan(buffers[b]));
  }
  return parity;
}

Bytes xor_rebuild(const Bytes& parity, const std::vector<Bytes>& survivors) {
  for (const auto& buf : survivors) {
    if (buf.size() != parity.size()) {
      throw std::invalid_argument("xor_rebuild buffers must be equal length");
    }
  }
  Bytes rebuilt = parity;
  for (const auto& buf : survivors) {
    xor_into(MutableByteSpan(rebuilt), ByteSpan(buf));
  }
  return rebuilt;
}

}  // namespace ndpcr::ckpt
