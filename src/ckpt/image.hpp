#pragma once

// Checkpoint image format: the BLCR-like "process context file" of section
// 4.2.1. An image wraps an opaque payload with metadata (application id,
// rank, checkpoint id, step) and a CRC32 so stores and transports can
// validate integrity end to end.

#include <cstdint>
#include <stdexcept>

#include "common/bytes.hpp"

namespace ndpcr::ckpt {

class ImageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// What an image's payload is: a self-contained snapshot, or a delta
// stream that must be applied to the payload of the checkpoint named by
// `base_id` (docs/DELTA.md). Recovery walks base_id links back to a full
// anchor and replays forward.
enum class PayloadKind : std::uint32_t { kFull = 0, kDelta = 1 };

const char* to_string(PayloadKind kind);

// The metadata BLCR attaches to each checkpoint (section 4.2.1): "the
// process ID of the parent application process, the MPI process ID, and a
// unique checkpoint ID".
struct CheckpointMeta {
  std::uint64_t app_id = 0;         // parent application id
  std::uint32_t rank = 0;           // MPI process id
  std::uint64_t checkpoint_id = 0;  // unique, monotonically increasing
  std::uint64_t step = 0;           // application step at capture
  PayloadKind kind = PayloadKind::kFull;
  std::uint64_t base_id = 0;        // delta reference; 0 for full images
};

class CheckpointImage {
 public:
  // build()'s header: magic(4) app_id(8) rank(4) ckpt_id(8) step(8)
  // kind(4) base_id(8) payload_size(8) crc(4); the payload follows it.
  static constexpr std::size_t kHeaderSize =
      4 + 8 + 4 + 8 + 8 + 4 + 8 + 8 + 4;

  // Serialize metadata + payload into a framed image. The payload is
  // CRC'd once; the header CRC and, when `framed_crc` is set, the CRC-32
  // of the whole framed image (its write digest) both derive from that
  // pass through Crc32::combine.
  static Bytes build(const CheckpointMeta& meta, ByteSpan payload,
                     std::uint32_t* framed_crc = nullptr);

  // Parse and validate a framed image. Throws ImageError on bad magic,
  // truncation, or CRC mismatch. The span form borrows: payload() points
  // into `raw`, which must outlive the image (recovery reads local NVM
  // entries in place this way). The Bytes&& form owns the framed bytes,
  // and payload() stays valid when the image is moved.
  static CheckpointImage parse(ByteSpan raw);
  static CheckpointImage parse(Bytes&& raw);

  // Cheap metadata-only parse (header fields, no CRC validation of the
  // payload). Throws on bad magic/truncation.
  static CheckpointMeta peek_meta(ByteSpan raw);

  // The exact framed size implied by the header. Lets callers trim
  // padding (e.g. XOR-group parity rebuilds pad images to a common
  // length). Throws on bad magic/truncation.
  static std::size_t framed_size(ByteSpan raw);

  // Move-only: a copy of an owning image would point into the source's
  // buffer.
  CheckpointImage(CheckpointImage&&) noexcept = default;
  CheckpointImage& operator=(CheckpointImage&&) noexcept = default;
  CheckpointImage(const CheckpointImage&) = delete;
  CheckpointImage& operator=(const CheckpointImage&) = delete;

  [[nodiscard]] const CheckpointMeta& meta() const { return meta_; }
  [[nodiscard]] ByteSpan payload() const { return payload_; }

 private:
  CheckpointImage() = default;

  CheckpointMeta meta_;
  Bytes owned_;        // the framed bytes, for parse(Bytes&&); else empty
  ByteSpan payload_;   // into owned_ or the borrowed span
};

}  // namespace ndpcr::ckpt
