#pragma once

// Codec interface for the ndpcr compression library.
//
// The paper's compression study (section 5) measures gzip, bzip2, xz and
// lz4 at several levels. This library provides from-scratch codecs in the
// same algorithm families so the study can be re-run end to end:
//
//   nlz4    - LZ77 with a byte-aligned token format (LZ4 family)
//   ngzip   - LZSS + canonical Huffman (DEFLATE family)
//   nbzip2  - BWT + MTF + zero-RLE + canonical Huffman (bzip2 family)
//   nxz     - large-window LZ77 + adaptive binary range coder (LZMA family)
//   rle     - byte run-length encoding (diagnostic baseline)
//   null    - memcpy (measures framing overhead; compression factor 0)
//
// Every compressed stream carries a small common frame (magic, codec id,
// level, original size, payload CRC32) so that decompression is
// self-describing and corruption is detected rather than propagated.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace ndpcr::compress {

class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Per-thread workspace (see scratch.hpp). Forward-declared here because
// bitstream.hpp includes this header.
struct CodecScratch;

enum class CodecId : std::uint8_t {
  kNull = 0,
  kRle = 1,
  kLz4Style = 2,
  kDeflateStyle = 3,
  kBzipStyle = 4,
  kXzStyle = 5,
};

class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual CodecId id() const = 0;
  [[nodiscard]] virtual int level() const = 0;

  // Compress `input` into a framed stream. Never fails (incompressible data
  // grows by the frame plus the codec's worst-case expansion). Every entry
  // point borrows the calling thread's workspace (scratch.hpp), so calls
  // on one codec from any number of threads stay independent.
  [[nodiscard]] Bytes compress(ByteSpan input) const;
  // Append form: write the framed stream onto the end of `out`, leaving
  // its existing bytes alone (ChunkedCodec builds its container this way,
  // one chunk stream after another). The stream bytes are the same
  // compress() returns.
  void compress_append(ByteSpan input, Bytes& out) const;

  // Payload bytes a caller reserves for compressing `input_size` bytes so
  // that compress_append() does not reallocate `out`: the codec's own
  // headroom check (reserve_payload) asks for no more. The default is the
  // input size, which compressible data never exceeds (an expanding
  // stream grows `out` itself); nlz4 returns its true worst case.
  [[nodiscard]] virtual std::size_t payload_reserve(
      std::size_t input_size) const {
    return input_size;
  }

  // Decompress a framed stream produced by the same codec type. Throws
  // CodecError on malformed input, codec mismatch, or CRC failure.
  [[nodiscard]] Bytes decompress(ByteSpan framed) const;

  // Decompress directly into a caller-owned window of exactly
  // `expected_size` bytes (the chunked parallel-decode path: each worker
  // decodes its chunk into its slice of one pre-sized output buffer).
  // Performs the same validation as decompress(), including the CRC check
  // over the written window, and additionally rejects streams whose
  // declared size differs from `expected_size`.
  void decompress_into(ByteSpan framed, std::byte* dst,
                       std::size_t expected_size) const;

  // Compression factor as defined in the paper (section 5.1.2):
  //   1 - compressed_size / uncompressed_size
  // so larger is better and 0 means no reduction.
  static double compression_factor(std::size_t uncompressed,
                                   std::size_t compressed);

 protected:
  // Codec payload hooks implemented by each codec. compress_payload
  // appends to `out`, which may already hold other bytes.
  // decompress_payload writes at most `original_size` bytes into `dst`
  // and returns the number written; the caller sized and validated `dst`
  // and verifies the CRC.
  virtual void compress_payload(ByteSpan input, Bytes& out,
                                CodecScratch& scratch) const = 0;
  // Make room on the end of `out` for payload_reserve(input_size) bytes.
  // A no-op in a container begun for this codec; otherwise growth is at
  // least geometric, since a chunked container appends one stream per
  // chunk and exact-size growth would copy it once per chunk.
  void reserve_payload(Bytes& out, std::size_t input_size) const;
  virtual std::size_t decompress_payload(ByteSpan payload, std::byte* dst,
                                         std::size_t original_size,
                                         CodecScratch& scratch) const = 0;
};

// Frame layout constants (little-endian):
//   [0]      magic 'N'
//   [1]      codec id
//   [2]      level
//   [3..10]  u64 original size
//   [11..14] u32 CRC32 of the original data
//   [15..]   codec payload
inline constexpr std::size_t kFrameHeaderSize = 15;

// Whether a stream of `stream_bytes` may declare `declared` output bytes:
// the guard (codec.cpp) every decoder applies before it allocates.
[[nodiscard]] bool plausible_decoded_size(std::uint64_t declared,
                                          std::size_t stream_bytes);

// Factory: construct a codec by id and level. Throws CodecError for an
// unknown id or an out-of-range level.
std::unique_ptr<Codec> make_codec(CodecId id, int level);

// Factory by name ("nlz4", "ngzip", "nbzip2", "nxz", "rle", "null").
std::unique_ptr<Codec> make_codec(const std::string& name, int level);

// The seven utility/level combinations of the paper's Table 2, in table
// order: ngzip(1), ngzip(6), nbzip2(1), nbzip2(9), nxz(1), nxz(6), nlz4(1).
struct CodecSpec {
  CodecId id;
  int level;
  std::string display_name;  // e.g. "ngzip(1)"
};
std::vector<CodecSpec> paper_codec_suite();

}  // namespace ndpcr::compress
