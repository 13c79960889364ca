#pragma once

// Chunked, parallel (de)compression. The paper's host-side compression
// path runs one compression thread per core (64 threads, section 3.5) and
// its restore path decompresses independent pages on different cores
// (section 4.3). Both need a container that splits the payload into
// independently-coded chunks:
//
//   [u32 magic][u8 codec id][u8 level][u32 chunk_count][u64 original size]
//   [u64 compressed chunk size] x chunk_count
//   chunk payloads (each a complete framed stream of the inner codec)
//
// Chunk boundaries are fixed by `chunk_size` over the *input*, so the
// compressed output is bit-identical regardless of the thread count -
// parallelism is an execution detail, not a format detail.
//
// Two ways to parallelize:
//   - compress()/decompress() spin up to `threads` internal workers. When
//     the caller is already an exec::TaskPool worker (which rejects nested
//     parallelism) they silently run inline instead.
//   - Callers that own an executor schedule chunk tasks themselves through
//     the chunk-level interface: chunk_count() + compress_chunk() per
//     index, then assemble() in index order. MultilevelManager::commit
//     hoists every rank's chunks into one flat TaskPool batch this way.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "compress/codec.hpp"
#include "compress/scratch.hpp"

namespace ndpcr::compress {

class ChunkedCodec {
 public:
  // `threads` <= 1 runs inline. Chunk size must be positive. `accelerate`
  // opts the nlz4 compressor into its skip-stride fast path: the emitted
  // bytes differ (worse ratio, much higher throughput) but stay valid
  // streams for the unchanged decoder, so the container format and
  // restore path are unaffected. Only meaningful for CodecId::kLz4Style.
  ChunkedCodec(CodecId id, int level, std::size_t chunk_size = 4ull << 20,
               unsigned threads = 1, bool accelerate = false);

  [[nodiscard]] Bytes compress(ByteSpan input) const;
  [[nodiscard]] Bytes decompress(ByteSpan framed) const;

  // Pre-create `count` codec workspaces so the first parallel batch does
  // not pay first-touch allocation inside the workers. Long-lived owners
  // (MultilevelManager's IO leg, NdpAgent's drain) warm to their worker
  // count at construction.
  void warm(std::size_t count) const;

  // --- chunk-level interface (caller-scheduled parallelism) ---

  // Number of chunks an input of `input_size` bytes splits into.
  [[nodiscard]] std::size_t chunk_count(std::size_t input_size) const;
  // Input byte range {offset, length} of chunk `index`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> chunk_extent(
      std::size_t input_size, std::size_t index) const;
  // Compress chunk `index` of the full payload `input`. Pure: safe to call
  // concurrently for distinct indices.
  [[nodiscard]] Bytes compress_chunk(ByteSpan input, std::size_t index) const;
  // Build the container from per-chunk streams produced by compress_chunk,
  // in index order. Bit-identical to compress(input).
  [[nodiscard]] Bytes assemble(std::size_t original_size,
                               const std::vector<Bytes>& chunks,
                               std::size_t first = 0,
                               std::size_t count = SIZE_MAX) const;
  // Container bytes that are not chunk payload (header + size table).
  [[nodiscard]] static std::size_t header_bytes(std::size_t chunk_count);

  // What the container header declares, without touching chunk payloads.
  // The codec id/level make stored streams self-describing: a reader
  // peeks, then decompresses with a matching codec - the adaptive
  // per-region selection in MultilevelManager depends on this, since the
  // store may hold a different codec per rank per checkpoint.
  struct Header {
    CodecId id = CodecId::kNull;
    int level = 0;
    std::uint32_t chunk_count = 0;
    std::uint64_t original_size = 0;
  };
  // Nullopt when `framed` is not a chunked container (wrong magic or too
  // short) or its declared codec id is not a registered codec. A valid
  // header does not guarantee intact payloads - decompress still throws
  // CodecError on damage.
  [[nodiscard]] static std::optional<Header> peek(ByteSpan framed);

  [[nodiscard]] CodecId id() const { return id_; }
  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] std::size_t chunk_size() const { return chunk_size_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  // Whether the nlz4 skip-stride compressor is on. Not recorded in the
  // container header (the decoder is the same), so callers that pick a
  // codec by choice must match it alongside id and level.
  [[nodiscard]] bool accelerate() const { return accelerate_; }

 private:
  CodecId id_;
  int level_;
  bool accelerate_;
  std::size_t chunk_size_;
  unsigned threads_;
  // One long-lived codec instance (codecs are stateless and const-callable
  // from any thread) plus a pool of reusable workspaces, so the per-chunk
  // cost is a workspace lease instead of a codec + table allocation.
  std::unique_ptr<Codec> codec_;
  std::unique_ptr<ScratchPool> scratch_;
};

}  // namespace ndpcr::compress
