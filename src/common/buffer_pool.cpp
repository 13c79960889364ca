#include "common/buffer_pool.hpp"

#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define NDPCR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NDPCR_ASAN 1
#endif
#endif

#ifdef NDPCR_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ndpcr {
namespace {

// A retained buffer's whole storage is off limits until it is handed out
// again; the vector's own annotations (if any) cover only [size,
// capacity), and a retained buffer has size 0.
void poison(const Bytes& buffer) {
#ifdef NDPCR_ASAN
  ASAN_POISON_MEMORY_REGION(buffer.data(), buffer.capacity());
#else
  (void)buffer;
#endif
}

void unpoison(const Bytes& buffer) {
#ifdef NDPCR_ASAN
  ASAN_UNPOISON_MEMORY_REGION(buffer.data(), buffer.capacity());
#else
  (void)buffer;
#endif
}

}  // namespace

BufferPool::~BufferPool() {
  for (auto& [capacity, bin] : bins_) {
    for (const Bytes& buffer : bin.free) unpoison(buffer);
  }
}

Bytes BufferPool::take(Bin& bin, std::size_t capacity) {
  Bytes buffer;
  if (!bin.free.empty()) {
    buffer = std::move(bin.free.back());
    bin.free.pop_back();
    ++stats_.hits;
    stats_.retained_bytes -= capacity;
    unpoison(buffer);
    return buffer;
  }
  ++bin.created;
  ++stats_.misses;
  stats_.bound_bytes += capacity;
  return buffer;
}

Bytes BufferPool::acquire(std::size_t capacity) {
  if (capacity == 0) return Bytes{};
  Bytes buffer;
  {
    const std::lock_guard lock(mu_);
    buffer = take(bins_[capacity], capacity);
  }
  buffer.reserve(capacity);  // a miss: libstdc++ reserves exactly this
  return buffer;
}

Bytes BufferPool::copy(ByteSpan source, std::size_t capacity) {
  Bytes buffer;
  {
    const std::lock_guard lock(mu_);
    const auto it = bins_.find(capacity);
    if (it != bins_.end()) buffer = take(it->second, capacity);
  }
  buffer.reserve(capacity);
  buffer.assign(source.begin(), source.end());
  return buffer;
}

bool BufferPool::serves(std::size_t capacity) const {
  const std::lock_guard lock(mu_);
  return bins_.contains(capacity);
}

void BufferPool::retire(Bytes&& buffer) {
  Bytes doomed = std::move(buffer);  // freed after the lock, if not kept
  const std::size_t capacity = doomed.capacity();
  if (capacity == 0) return;
  const std::lock_guard lock(mu_);
  const auto it = bins_.find(capacity);
  if (it == bins_.end() || it->second.free.size() >= it->second.created) {
    ++stats_.dropped;
    return;
  }
  doomed.clear();
  poison(doomed);
  it->second.free.push_back(std::move(doomed));
  ++stats_.kept;
  stats_.retained_bytes += capacity;
}

BufferPool::Stats BufferPool::stats() const {
  const std::lock_guard lock(mu_);
  return stats_;
}

BufferPool& BufferPool::global() {
  static BufferPool* const pool = new BufferPool;
  return *pool;
}

}  // namespace ndpcr
