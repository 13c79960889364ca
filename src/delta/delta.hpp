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
#include <stdexcept>
#include <vector>

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
  // provided, receive the block accounting. The reference block index
  // lives in a per-thread workspace that grows to the largest reference
  // the thread has seen: on the multilevel commit path an encode runs once
  // per rank per checkpoint, and a fresh table (and the page faults behind
  // it) would dominate sparse-update deltas. The index resolves lookups in
  // insertion order, so the stream never depends on earlier calls.
  [[nodiscard]] Bytes encode(ByteSpan reference, ByteSpan current,
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
