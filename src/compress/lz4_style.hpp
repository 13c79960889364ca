#pragma once

// nlz4: byte-aligned LZ77 in the LZ4 block format family.
//
// A sequence is [token][literal bytes][offset u16][length extensions]:
//   token high nibble = literal count (15 => continued in 255-blocks)
//   token low nibble  = match length - 4 (15 => continued in 255-blocks)
// Offsets are 16-bit little-endian (64 KiB window). The stream ends with a
// literals-only sequence (offset omitted), exactly as in LZ4.
//
// Levels: level 1 uses a single-probe hash table with LZ4's default skip
// ramp (the probe stride grows by one after every 64 consecutive misses,
// so incompressible regions cost a few probes per KiB); levels 2-9 walk
// hash chains with increasing depth and probe every byte (LZ4-HC
// flavored). The output format is identical across levels.

#include "compress/codec.hpp"

namespace ndpcr::compress {

class Lz4StyleCodec final : public Codec {
 public:
  // `accelerate` steepens the skip ramp to one stride step per 16
  // consecutive misses, at any level, trading ratio for speed on
  // incompressible data. It changes the parse, not the format: the
  // decoder is shared. The registry builds plain codecs; the adaptive
  // probe (`choose_codec`) picks the accelerated one for incompressible
  // ranks, and ChunkedCodec's `accelerate` flag builds it.
  explicit Lz4StyleCodec(int level, bool accelerate = false);

  [[nodiscard]] std::string name() const override { return "nlz4"; }
  [[nodiscard]] CodecId id() const override { return CodecId::kLz4Style; }
  [[nodiscard]] int level() const override { return level_; }
  // The format's worst case: incompressible input costs one token plus a
  // length-extension byte per 255 literals, and a match sequence never
  // outgrows the bytes it covers.
  [[nodiscard]] std::size_t payload_reserve(
      std::size_t input_size) const override {
    return input_size + input_size / 255 + 16;
  }

 protected:
  void compress_payload(ByteSpan input, Bytes& out,
                        CodecScratch& scratch) const override;
  std::size_t decompress_payload(ByteSpan payload, std::byte* dst,
                                 std::size_t original_size,
                                 CodecScratch& scratch) const override;

 private:
  int level_;
  int skip_trigger_;  // log2 of the misses per stride step (see .cpp)
};

}  // namespace ndpcr::compress
