#pragma once

// Process-wide pool of retired checkpoint buffers. The paper's node-local
// NVM is a fixed-capacity circular buffer: each checkpoint reuses the
// space of the one it overwrites (section 4.2). The byte-level library
// gets the same reuse from this pool. Every large buffer on the
// checkpoint data path is acquired here, and every store hands back the
// buffers it drops:
//
//   acquire: RegionRegistry::capture, CheckpointImage::build (full
//            images), ChunkedCodec::begin (for inputs the pool serves);
//   copy:    the partner level's XOR parity, the IO level's raw image
//            copies and the NDP agent's IO copies of a drained container;
//   retire:  NvmStore eviction, erase, clear and destruction; KvStore
//            overwrite, erase, clear and destruction.
//
// The bound. The pool keeps buffers in exact-capacity bins. acquire(n)
// hands out a buffer of capacity exactly n, from n's bin when it holds
// one (a hit) and freshly allocated otherwise (a miss, which counts one
// more buffer created for n). retire() keeps a buffer only if a bin of
// exactly its capacity exists and holds fewer buffers than the pool has
// ever created for that capacity; anything else is freed. So the pool
// never keeps a size nobody asks for, nor more buffers of a size than it
// made, and the bytes it retains never exceed the sum over bins of
// capacity x created (Stats::bound_bytes). Buffers whose size follows the
// content (delta images, the copies stores hand out) are not acquired: a
// bin per content-dependent size would keep one buffer per size ever seen.
// A copy a store keeps of a pooled buffer is drawn with copy(), so a bin
// fills with buffers the pool made, not with look-alikes it would keep
// on top of its own.
//
// The pool is one per process, not per manager or store: a capture's
// buffer travels from the registry to whichever store takes it (an NDP
// agent's NVM, a manager's level) without the registry ever seeing that
// store, so the process is the only owner both share.
//
// Thread safety: every member takes one mutex; allocation and freeing run
// outside it. An acquired buffer is empty (size() == 0), so no byte of an
// earlier tenant is reachable through it. Under AddressSanitizer the
// storage of a retained buffer is poisoned until it is acquired again: a
// stale span into an evicted NVM entry still trips ASan.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"

namespace ndpcr {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;     // acquires served from a retained buffer
    std::uint64_t misses = 0;   // acquires that allocated a fresh buffer
    std::uint64_t kept = 0;     // retires whose buffer the pool kept
    std::uint64_t dropped = 0;  // retires whose buffer the pool freed
    std::size_t retained_bytes = 0;  // capacity held in the bins now
    std::size_t bound_bytes = 0;     // sum of capacity x created
  };

  BufferPool() = default;
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // An empty buffer whose capacity is exactly `capacity` (none for 0).
  [[nodiscard]] Bytes acquire(std::size_t capacity);
  // `source`'s bytes in a buffer of `capacity` (at least source.size()):
  // acquired when an acquire() has asked for that capacity before, a
  // plain allocation otherwise. A copy a store keeps (an IO copy of a
  // pooled image or container) then cycles through its source's bin
  // instead of crowding it as a buffer the pool never made.
  [[nodiscard]] Bytes copy(ByteSpan source, std::size_t capacity);
  // Whether acquire() has asked for `capacity` before: a buffer of that
  // size is a pooled capture or image, not content-sized bytes.
  [[nodiscard]] bool serves(std::size_t capacity) const;
  // Hand a buffer back: kept for a later acquire of its exact capacity,
  // or freed (see the bound above). Its contents are dead either way.
  void retire(Bytes&& buffer);

  [[nodiscard]] Stats stats() const;

  // The process-wide pool every acquire and retire site uses. Never
  // destroyed, so stores torn down during static destruction can still
  // retire into it.
  static BufferPool& global();

 private:
  struct Bin {
    std::vector<Bytes> free;
    std::uint64_t created = 0;
  };

  // Pop `bin`'s newest free buffer (a hit) or count a buffer to create (a
  // miss: the returned buffer is empty and the caller reserves). The
  // caller holds mu_.
  Bytes take(Bin& bin, std::size_t capacity);

  mutable std::mutex mu_;
  std::unordered_map<std::size_t, Bin> bins_;
  Stats stats_;
};

}  // namespace ndpcr
