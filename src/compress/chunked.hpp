#pragma once

// Chunked (de)compression. The paper's host-side compression path runs
// one compression thread per core (64 threads, section 3.5) and its
// restore path decompresses independent pages on different cores
// (section 4.3). Both need a container that splits the payload into
// independently-coded chunks:
//
//   [u32 magic][u8 codec id][u8 level][u32 chunk_count][u64 original size]
//   [u64 compressed chunk size] x chunk_count
//   chunk payloads (each a complete framed stream of the inner codec)
//
// Chunk boundaries are fixed by `chunk_size` over the *input*, so the
// compressed output is bit-identical however the chunks are scheduled -
// parallelism is an execution detail, not a format detail. The chunk size
// is a write-side choice only: each chunk's frame records its length, so
// decode() reads a container written at any chunk size.
//
// The container has one writer. begin() lays down the header and a
// zeroed size table; append_chunk() compresses chunk j straight onto the
// end of the container and patches entry j. compress() is begin() then
// every append_chunk() in index order, so no chunk stream is ever staged
// in a buffer of its own and copied again.
//
// The codec schedules nothing itself: the caller's exec::TaskPool does.
//   - compress() is a serial loop. MultilevelManager's IO leg runs one
//     compress() per rank as a pool task; NdpAgent's drain calls
//     append_chunk() as each chunk's compress stage arms.
//   - decode(framed, pool) decodes chunks on `pool`, or inline when
//     `pool` is null or the caller is already a pool task.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "compress/codec.hpp"

namespace ndpcr::exec {
class TaskPool;
}  // namespace ndpcr::exec

namespace ndpcr::compress {

class ChunkedCodec {
 public:
  // Chunk size must be positive. The fourth argument is ignored; it stays
  // so callers that pass it keep compiling. `accelerate` opts the nlz4
  // compressor into its skip-stride fast path: the emitted bytes differ
  // (worse ratio, much higher throughput) but stay valid streams for the
  // unchanged decoder, so the container format and restore path are
  // unaffected. Only meaningful for CodecId::kLz4Style.
  ChunkedCodec(CodecId id, int level, std::size_t chunk_size = 4ull << 20,
               unsigned /*ignored*/ = 1, bool accelerate = false);

  [[nodiscard]] Bytes compress(ByteSpan input) const;
  // decode(), for a container that names this codec.
  [[nodiscard]] Bytes decompress(ByteSpan framed,
                                 exec::TaskPool* pool = nullptr) const;
  // Any container, by what it records. Throws CodecError on damage.
  [[nodiscard]] static Bytes decode(ByteSpan framed,
                                    exec::TaskPool* pool = nullptr);

  // --- incremental writer ---

  // Number of chunks an input of `input_size` bytes splits into.
  [[nodiscard]] std::size_t chunk_count(std::size_t input_size) const;
  // Input byte range {offset, length} of chunk `index`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> chunk_extent(
      std::size_t input_size, std::size_t index) const;
  // Replace `out` with the start of a container for an input of
  // `input_size` bytes: the header and a zeroed size table, with room
  // reserved for the chunk streams (Codec::payload_reserve each).
  void begin(Bytes& out, std::size_t input_size) const;
  // Compress chunk `index` of `input` onto the end of the container `out`
  // (begun for input.size()) and record its stream size in the table.
  // Chunks go in index order (CodecError otherwise); once the last is
  // appended, `out` is bit-identical to compress(input). Safe to call
  // concurrently on distinct containers.
  void append_chunk(Bytes& out, ByteSpan input, std::size_t index) const;
  // The stream size the size table records for chunk `index` (0 while the
  // chunk is not yet appended). CodecError when `container` is too short
  // to hold that entry.
  [[nodiscard]] static std::size_t chunk_stream_size(ByteSpan container,
                                                     std::size_t index);
  // Container bytes that are not chunk payload (header + size table).
  [[nodiscard]] static std::size_t header_bytes(std::size_t chunk_count);

  // What the container header declares, without touching chunk payloads:
  // a reader peeks to tell a container from raw bytes.
  struct Header {
    CodecId id = CodecId::kNull;
    int level = 0;
    std::uint32_t chunk_count = 0;
    std::uint64_t original_size = 0;
  };
  // Nullopt when `framed` is not a chunked container (wrong magic or too
  // short) or its declared codec id is not a registered codec. A valid
  // header does not guarantee intact payloads - decode still throws
  // CodecError on damage.
  [[nodiscard]] static std::optional<Header> peek(ByteSpan framed);

  [[nodiscard]] CodecId id() const { return id_; }
  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] std::size_t chunk_size() const { return chunk_size_; }
  // Whether the nlz4 skip-stride compressor is on. Not recorded in the
  // container header (the decoder is the same), so callers that pick a
  // codec by choice must match it alongside id and level.
  [[nodiscard]] bool accelerate() const { return accelerate_; }

 private:
  CodecId id_;
  int level_;
  bool accelerate_;
  std::size_t chunk_size_;
  // One long-lived codec instance: codecs are stateless and const-callable
  // from any thread, and each chunk borrows the calling thread's workspace
  // (scratch.hpp), so the per-chunk cost is no allocation at all.
  std::unique_ptr<Codec> codec_;
};

}  // namespace ndpcr::compress
