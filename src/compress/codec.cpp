#include "compress/codec.hpp"

#include <algorithm>

#include "common/crc32.hpp"
#include "compress/scratch.hpp"

namespace ndpcr::compress {
namespace {

// Guard for the eager output allocation in decompress(): the declared size
// comes from a not-yet-validated header, and a corrupted size field must
// raise CodecError rather than attempt a pathological (possibly TiB-scale)
// allocation. No codec in this library expands better than ~4096x (RLE run
// coding tops out near 2^12 output bytes per payload byte), so any stream
// declaring more than kMaxPlausibleExpansion bytes per payload byte is
// corrupt. Only applied above kEagerDecodeLimit so small streams never pay
// the check and legitimate ratios are unaffected. ChunkedCodec::decode
// applies it to a whole container's total as well.
constexpr std::uint64_t kEagerDecodeLimit = 64ull << 20;
constexpr std::uint64_t kMaxPlausibleExpansion = 4096;

struct FrameHeader {
  std::uint64_t original_size;
  std::uint32_t expected_crc;
};

FrameHeader parse_frame_header(ByteSpan framed, CodecId id) {
  if (framed.size() < kFrameHeaderSize) {
    throw CodecError("compressed stream truncated: missing frame header");
  }
  if (framed[0] != static_cast<std::byte>('N')) {
    throw CodecError("bad magic byte in compressed stream");
  }
  if (framed[1] != static_cast<std::byte>(id)) {
    throw CodecError("codec id mismatch: stream was produced by a different "
                     "codec");
  }
  FrameHeader header{};
  header.original_size = read_le<std::uint64_t>(framed, 3);
  header.expected_crc = read_le<std::uint32_t>(framed, 11);
  if (!plausible_decoded_size(header.original_size, framed.size())) {
    throw CodecError("implausible declared size in compressed stream");
  }
  return header;
}

}  // namespace

bool plausible_decoded_size(std::uint64_t declared, std::size_t stream_bytes) {
  return declared <= kEagerDecodeLimit ||
         declared / kMaxPlausibleExpansion <= stream_bytes;
}

Bytes Codec::compress(ByteSpan input) const {
  Bytes out;
  out.reserve(kFrameHeaderSize + payload_reserve(input.size()));
  compress_append(input, out);
  return out;
}

void Codec::compress_append(ByteSpan input, Bytes& out) const {
  const ThreadScratch scratch;
  out.push_back(static_cast<std::byte>('N'));
  out.push_back(static_cast<std::byte>(id()));
  out.push_back(static_cast<std::byte>(level()));
  append_le<std::uint64_t>(out, input.size());
  append_le<std::uint32_t>(out, Crc32::compute(input));
  compress_payload(input, out, *scratch);
}

void Codec::reserve_payload(Bytes& out, std::size_t input_size) const {
  const std::size_t need = out.size() + payload_reserve(input_size);
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.size()));
}

Bytes Codec::decompress(ByteSpan framed) const {
  const FrameHeader header = parse_frame_header(framed, id());
  // The plausibility guard above makes this eager allocation safe, and the
  // pre-sized buffer lets codecs decode with pointer stores and bulk copies
  // instead of push_back.
  Bytes out(header.original_size);
  decompress_into(framed, out.data(), out.size());
  return out;
}

void Codec::decompress_into(ByteSpan framed, std::byte* dst,
                            std::size_t expected_size) const {
  const FrameHeader header = parse_frame_header(framed, id());
  if (header.original_size != expected_size) {
    throw CodecError("decompressed size mismatch");
  }
  const ThreadScratch scratch;
  const std::size_t written = decompress_payload(
      framed.subspan(kFrameHeaderSize), dst, expected_size, *scratch);
  if (written != expected_size) {
    throw CodecError("decompressed size mismatch");
  }
  if (Crc32::compute(dst, expected_size) != header.expected_crc) {
    throw CodecError("CRC mismatch: corrupted compressed stream");
  }
}

double Codec::compression_factor(std::size_t uncompressed,
                                 std::size_t compressed) {
  if (uncompressed == 0) return 0.0;
  return 1.0 - static_cast<double>(compressed) /
                   static_cast<double>(uncompressed);
}

}  // namespace ndpcr::compress
