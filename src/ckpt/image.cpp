#include "ckpt/image.hpp"

#include <utility>

#include "common/buffer_pool.hpp"
#include "common/crc32.hpp"

namespace ndpcr::ckpt {
namespace {

constexpr std::uint32_t kMagic = 0x4E444349;  // "NDCI"
// The CRC covers everything before the CRC field plus the payload, so a
// flip anywhere in the image - metadata included - fails validation.
constexpr std::size_t kCrcOffset = CheckpointImage::kHeaderSize - 4;

std::uint32_t image_crc(ByteSpan header_prefix, ByteSpan payload) {
  Crc32 crc;
  crc.update(header_prefix);
  crc.update(payload);
  return crc.value();
}

}  // namespace

const char* to_string(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kFull:
      return "full";
    case PayloadKind::kDelta:
      return "delta";
  }
  return "?";
}

Bytes CheckpointImage::build(const CheckpointMeta& meta, ByteSpan payload,
                             std::uint32_t* framed_crc) {
  // A full image's size follows the configuration, so its buffer comes
  // from the pool; a delta image's follows the content (buffer_pool.hpp).
  Bytes out;
  if (meta.kind == PayloadKind::kFull) {
    out = BufferPool::global().acquire(kHeaderSize + payload.size());
  } else {
    out.reserve(kHeaderSize + payload.size());
  }
  append_le<std::uint32_t>(out, kMagic);
  append_le<std::uint64_t>(out, meta.app_id);
  append_le<std::uint32_t>(out, meta.rank);
  append_le<std::uint64_t>(out, meta.checkpoint_id);
  append_le<std::uint64_t>(out, meta.step);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(meta.kind));
  append_le<std::uint64_t>(out, meta.base_id);
  append_le<std::uint64_t>(out, payload.size());
  const std::uint32_t payload_crc = Crc32::compute(payload);
  Crc32 prefix;
  prefix.update(ByteSpan(out));
  append_le<std::uint32_t>(
      out, Crc32::combine(prefix.value(), payload_crc, payload.size()));
  if (framed_crc) {
    prefix.update(ByteSpan(out).subspan(kCrcOffset));
    *framed_crc = Crc32::combine(prefix.value(), payload_crc, payload.size());
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

CheckpointMeta CheckpointImage::peek_meta(ByteSpan raw) {
  if (raw.size() < kHeaderSize) {
    throw ImageError("checkpoint image truncated");
  }
  if (read_le<std::uint32_t>(raw, 0) != kMagic) {
    throw ImageError("not a checkpoint image");
  }
  CheckpointMeta meta;
  meta.app_id = read_le<std::uint64_t>(raw, 4);
  meta.rank = read_le<std::uint32_t>(raw, 12);
  meta.checkpoint_id = read_le<std::uint64_t>(raw, 16);
  meta.step = read_le<std::uint64_t>(raw, 24);
  const auto kind = read_le<std::uint32_t>(raw, 32);
  if (kind > static_cast<std::uint32_t>(PayloadKind::kDelta)) {
    throw ImageError("unknown checkpoint payload kind");
  }
  meta.kind = static_cast<PayloadKind>(kind);
  meta.base_id = read_le<std::uint64_t>(raw, 36);
  return meta;
}

std::size_t CheckpointImage::framed_size(ByteSpan raw) {
  (void)peek_meta(raw);  // validates magic and header presence
  return kHeaderSize + read_le<std::uint64_t>(raw, 44);
}

CheckpointImage CheckpointImage::parse(ByteSpan raw) {
  CheckpointImage image;
  image.meta_ = peek_meta(raw);
  const auto payload_size = read_le<std::uint64_t>(raw, 44);
  const auto expected_crc = read_le<std::uint32_t>(raw, 52);
  if (raw.size() != kHeaderSize + payload_size) {
    throw ImageError("checkpoint image size mismatch");
  }
  const ByteSpan payload = raw.subspan(kHeaderSize);
  if (image_crc(raw.subspan(0, kCrcOffset), payload) != expected_crc) {
    throw ImageError("checkpoint image CRC mismatch");
  }
  image.payload_ = payload;
  return image;
}

CheckpointImage CheckpointImage::parse(Bytes&& raw) {
  CheckpointImage image = parse(ByteSpan(raw));
  // Moving the vector keeps its heap buffer, so the span stays valid.
  image.owned_ = std::move(raw);
  return image;
}

}  // namespace ndpcr::ckpt
