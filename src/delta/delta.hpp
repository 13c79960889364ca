#pragma once

// Incremental checkpointing and checkpoint deduplication - the paper's
// conclusion flags both as natural NDP extensions ("NDP is well suited to
// compare data for consecutive checkpoints and checkpoints of neighboring
// MPI rank"), citing libhashckpt-style incremental checkpointing [22] and
// checkpoint dedup [23, 24].
//
// DeltaCodec encodes a checkpoint against a reference (the previous
// checkpoint of the same rank): unchanged blocks become references,
// changed blocks are stored literally. Block-level and hash-based, like
// libhashckpt, so it composes with the byte codecs (delta first, then
// e.g. ngzip over the literals-heavy delta stream).

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/bytes.hpp"

namespace ndpcr::delta {

class DeltaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// 64-bit content hash used for block identity: XXH64 (seed 0), a pure
// function of the bytes with little-endian loads, so it is identical on
// every host and at any input alignment. Collisions are guarded by a
// full byte comparison before any block is reused. The value is part of
// the NDDL/NDRC formats (docs/DELTA.md, "Format notes").
std::uint64_t block_hash(ByteSpan block);

// Reusable encoder workspace. Encoding indexes every reference block in a
// hash table; on the multilevel commit path that happens once per rank per
// checkpoint, so the table (and the page faults behind a fresh allocation)
// would dominate sparse-update deltas. The open-addressed index keeps
// duplicate contents and resolves lookups in insertion order, so the
// encoded stream is identical whether or not a scratch is reused.
struct DeltaScratch {
  // Open-addressed reference index: slot -> block index + 1 (0 = empty),
  // keys[] carries the hash for the occupied slots. Linear probing.
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> slots;
  std::size_t mask = 0;

  // Size the index for `blocks` reference blocks and clear it.
  void reset(std::size_t blocks);
};

// A mutex-guarded freelist of DeltaScratch instances, the same shape as
// compress::ScratchPool: acquire() pops (or creates) a workspace, the
// Lease returns it on destruction, so N concurrent encoders converge on N
// live workspaces.
class DeltaScratchPool {
 public:
  class Lease {
   public:
    explicit Lease(DeltaScratchPool& pool)
        : pool_(&pool), scratch_(pool.take()) {}
    ~Lease() {
      if (scratch_) pool_->give(std::move(scratch_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), scratch_(std::move(other.scratch_)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    [[nodiscard]] DeltaScratch& operator*() const { return *scratch_; }
    [[nodiscard]] DeltaScratch* operator->() const { return scratch_.get(); }

   private:
    DeltaScratchPool* pool_;
    std::unique_ptr<DeltaScratch> scratch_;
  };

  [[nodiscard]] Lease acquire() { return Lease(*this); }

  // Pre-create workspaces so the first parallel batch does not serialize
  // on first-touch allocation.
  void warm(std::size_t count);

 private:
  std::unique_ptr<DeltaScratch> take();
  void give(std::unique_ptr<DeltaScratch> scratch);

  std::mutex mutex_;
  std::vector<std::unique_ptr<DeltaScratch>> free_;
};

// Content-defined chunking (gear hash). Boundaries depend only on the
// bytes, so an insertion early in an image shifts chunk boundaries with
// the data instead of re-keying every fixed block after it - that is what
// makes cross-rank and cross-commit dedup effective on shifted state.
struct CdcParams {
  std::size_t min_bytes = 2048;
  std::size_t avg_bytes = 4096;  // must be a power of two
  std::size_t max_bytes = 8192;
};

// End offsets of each chunk, covering [0, data.size()). The final offset
// is always data.size(); empty input yields no chunks. Deterministic: a
// pure function of the bytes and the parameters.
std::vector<std::size_t> cdc_boundaries(ByteSpan data,
                                        const CdcParams& params = {});

struct DeltaStats {
  std::size_t input_bytes = 0;
  std::size_t unchanged_blocks = 0;  // same content, same position
  std::size_t moved_blocks = 0;      // content found elsewhere in reference
  std::size_t literal_blocks = 0;    // new content, stored raw
  std::size_t encoded_bytes = 0;
  // Byte-ledger passes the encode made: bytes run through block_hash
  // (reference index, reference digest, moved-match probes) and bytes
  // offered to block comparisons (counted at full block length).
  std::size_t hashed_bytes = 0;
  std::size_t compared_bytes = 0;

  // 1 - encoded/input, the same convention as compression factor.
  [[nodiscard]] double delta_factor() const {
    return input_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(encoded_bytes) /
                           static_cast<double>(input_bytes);
  }
};

class DeltaCodec {
 public:
  explicit DeltaCodec(std::size_t block_size = 4096);

  // Encode `current` against `reference`. The reference may be empty (all
  // blocks become literals). Returns the delta stream; stats, if
  // provided, receive the block accounting.
  [[nodiscard]] Bytes encode(ByteSpan reference, ByteSpan current,
                             DeltaStats* stats = nullptr) const;

  // Allocation-reusing variant: the reference index lives in `scratch`,
  // which grows to the largest reference it has seen and is reused across
  // calls. Emits exactly the same stream as the plain overload (which
  // delegates here with a throwaway scratch).
  [[nodiscard]] Bytes encode(ByteSpan reference, ByteSpan current,
                             DeltaScratch& scratch,
                             DeltaStats* stats = nullptr) const;

  // Block size recorded in a delta stream's header; lets a reader build a
  // matching codec without out-of-band configuration. Throws on malformed
  // streams.
  static std::size_t stream_block_size(ByteSpan delta);

  // Reconstruct the current image from the reference and the delta.
  // Throws DeltaError on malformed deltas or a reference digest mismatch
  // (applying a delta against the wrong reference is detected, not
  // silently corrupted).
  [[nodiscard]] Bytes decode(ByteSpan reference, ByteSpan delta) const;

  [[nodiscard]] std::size_t block_size() const { return block_size_; }

 private:
  std::size_t block_size_;
};

}  // namespace ndpcr::delta
