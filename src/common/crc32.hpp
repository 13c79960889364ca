#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ndpcr {

// CRC-32 (IEEE 802.3 polynomial, reflected), the same checksum family used
// by gzip. Used to protect checkpoint images against corruption in the
// storage models and the on-disk format.
class Crc32 {
 public:
  // Incremental interface: feed chunks, then read value().
  void update(std::span<const std::byte> data);
  void update(const void* data, std::size_t size);

  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  void reset() { state_ = 0xFFFFFFFFu; }

  // One-shot convenience.
  static std::uint32_t compute(std::span<const std::byte> data);
  static std::uint32_t compute(const void* data, std::size_t size);

  // CRC of A followed by B, from crc(A), crc(B) and B's length alone
  // (zlib's crc32_combine: shift crc(A) past len_b zero bytes by
  // multiplying with x^(8 len_b) mod P in GF(2)). O(log len_b), no data
  // access - one pass over a payload serves every framing around it.
  static std::uint32_t combine(std::uint32_t crc_a, std::uint32_t crc_b,
                               std::uint64_t len_b);

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace ndpcr
