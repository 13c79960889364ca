#include "compress/lz4_style.hpp"

#include <algorithm>
#include <cstring>

#include "compress/kernels.hpp"
#include "compress/matcher.hpp"
#include "compress/scratch.hpp"

namespace ndpcr::compress {
namespace {

constexpr std::uint32_t kMinMatch = 4;
constexpr std::uint32_t kWindow = 0xFFFF;  // 16-bit offsets

// Skip ramp: after 2^trigger consecutive misses the probe stride becomes
// 2, after another 2^trigger it becomes 3, and so on; a match resets it
// (the LZ4 fast-path heuristic). Plain level 1 uses LZ4's default trigger,
// `accelerate` a steeper one. Levels 2-9 probe every byte, like LZ4-HC:
// their trigger is the top bit of the miss counter, so the stride stays 1
// for the first 2^63 misses, i.e. for any input.
constexpr int kDefaultSkipTrigger = 6;
constexpr int kAcceleratedSkipTrigger = 4;
constexpr int kExhaustiveSkipTrigger = 63;

int skip_trigger_for(int level, bool accelerate) {
  if (accelerate) return kAcceleratedSkipTrigger;
  return level == 1 ? kDefaultSkipTrigger : kExhaustiveSkipTrigger;
}

// The writers below store through a cursor into the span compress_payload
// reserved: payload_reserve() bounds the whole stream, so every write
// lands inside it without a capacity check.
std::byte* write_length(std::byte* out, std::size_t len) {
  // 255-block continuation, as in LZ4.
  for (; len >= 255; len -= 255) *out++ = std::byte{255};
  *out++ = static_cast<std::byte>(len);
  return out;
}

std::byte* emit_sequence(std::byte* out, ByteSpan literals,
                         std::uint32_t match_len, std::uint32_t distance) {
  const std::size_t lit_len = literals.size();
  const std::size_t match_code = match_len ? match_len - kMinMatch : 0;
  const std::uint8_t token =
      static_cast<std::uint8_t>(std::min<std::size_t>(lit_len, 15) << 4 |
                                std::min<std::size_t>(match_code, 15));
  *out++ = static_cast<std::byte>(token);
  if (lit_len >= 15) out = write_length(out, lit_len - 15);
  if (lit_len != 0) std::memcpy(out, literals.data(), lit_len);
  out += lit_len;
  if (match_len == 0) return out;  // terminal literals-only sequence
  *out++ = static_cast<std::byte>(distance & 0xFF);
  *out++ = static_cast<std::byte>(distance >> 8);
  if (match_code >= 15) out = write_length(out, match_code - 15);
  return out;
}

std::uint32_t chain_depth_for_level(int level) {
  switch (level) {
    case 1:
      return 1;
    case 2:
      return 4;
    case 3:
      return 8;
    default:
      return 16u << std::min(level - 4, 5);
  }
}

}  // namespace

Lz4StyleCodec::Lz4StyleCodec(int level, bool accelerate)
    : level_(level), skip_trigger_(skip_trigger_for(level, accelerate)) {
  if (level < 1 || level > 9) {
    throw CodecError("nlz4 level must be in [1, 9]");
  }
}

void Lz4StyleCodec::compress_payload(ByteSpan input, Bytes& out,
                                     CodecScratch& scratch) const {
  // Open the worst-case span (a container begun for this codec already
  // holds it), write the sequences through a cursor, then trim to what was
  // written.
  reserve_payload(out, input.size());
  const std::size_t base = out.size();
  out.resize(base + payload_reserve(input.size()));
  std::byte* cursor = out.data() + base;
  MatchFinder finder(input, kWindow, kMinMatch, /*max_match=*/65535,
                     chain_depth_for_level(level_), scratch.match_head,
                     scratch.match_prev);
  std::size_t pos = 0;
  std::size_t literal_start = 0;
  const std::uint64_t tick_reset = std::uint64_t{1} << skip_trigger_;
  std::uint64_t search_tick = tick_reset;
  while (pos < input.size()) {
    // The parse is greedy, so the probed position is always committed
    // (matched or emitted as a literal) - find_and_insert hashes once.
    const Match m = finder.find_and_insert(pos);
    if (m.length >= kMinMatch) {
      cursor = emit_sequence(
          cursor, input.subspan(literal_start, pos - literal_start),
          m.length, m.distance);
      // Insert the positions the match covers so later data can refer into
      // it (pos itself was inserted by find_and_insert). Cap insertions for
      // speed at low levels (LZ4-style skipping).
      const std::size_t end = pos + m.length;
      const std::size_t stride = level_ >= 4 ? 1 : 2;
      for (std::size_t p = pos + stride; p < end; p += stride) {
        finder.insert(p);
      }
      pos = end;
      literal_start = pos;
      search_tick = tick_reset;
    } else {
      pos += search_tick++ >> skip_trigger_;
    }
  }
  // Terminal literals-only sequence (always present, possibly empty).
  // The skip ramp can step pos past the end, so bound by the input size.
  cursor = emit_sequence(cursor, input.subspan(literal_start), 0, 0);
  out.resize(static_cast<std::size_t>(cursor - out.data()));
}

std::size_t Lz4StyleCodec::decompress_payload(ByteSpan payload, std::byte* dst,
                                              std::size_t original_size,
                                              CodecScratch&) const {
  // Pointer-based hot loop. The interior fast paths replace exact-length
  // copies (a memcpy call with a runtime size, dominated by call overhead
  // at typical 4-40 byte sequence sizes) with fixed-size block copies that
  // may overrun the logical length by up to 31 bytes. The guard conditions
  // keep every overrun inside the payload (reads) and inside bytes a later
  // sequence of this same decode overwrites (writes) - a block never
  // outruns the match distance, so the final buffer contents are
  // bit-identical to the careful path.
  const auto* in = reinterpret_cast<const std::uint8_t*>(payload.data());
  const std::uint8_t* const in_end = in + payload.size();
  std::byte* out = dst;
  std::byte* const out_end = dst + original_size;
  while (in < in_end) {
    const std::uint8_t token = *in++;
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) {
      while (true) {
        if (in >= in_end) throw CodecError("truncated nlz4 length");
        const std::uint8_t b = *in++;
        lit_len += b;
        if (b != 255) break;
      }
    }
    if (lit_len <= 64 && lit_len + 32 <= static_cast<std::size_t>(in_end - in) &&
        lit_len + 64 <= static_cast<std::size_t>(out_end - out)) [[likely]] {
      // <= 64 literals (the common case): at most two fixed 32-byte copies.
      std::memcpy(out, in, 32);
      if (lit_len > 32) std::memcpy(out + 32, in + 32, 32);
    } else if (lit_len + 32 <= static_cast<std::size_t>(in_end - in) &&
               lit_len + 32 <= static_cast<std::size_t>(out_end - out)) {
      for (std::size_t o = 0; o < lit_len; o += 32) {
        std::memcpy(out + o, in + o, 32);
      }
    } else {
      if (lit_len > static_cast<std::size_t>(in_end - in)) {
        throw CodecError("truncated nlz4 literals");
      }
      if (lit_len > static_cast<std::size_t>(out_end - out)) {
        throw CodecError("nlz4 literals overflow declared size");
      }
      if (lit_len != 0) std::memcpy(out, in, lit_len);
    }
    out += lit_len;
    in += lit_len;
    if (in >= in_end) break;  // terminal sequence has no match
    if (in_end - in < 2) throw CodecError("truncated nlz4 offset");
    const std::uint32_t distance =
        in[0] | (static_cast<std::uint32_t>(in[1]) << 8);
    in += 2;
    if (distance == 0 ||
        distance > static_cast<std::size_t>(out - dst)) {
      throw CodecError("invalid nlz4 match distance");
    }
    std::size_t match_len = (token & 0xF) + kMinMatch;
    if (match_len == 15 + kMinMatch) {
      while (true) {
        if (in >= in_end) throw CodecError("truncated nlz4 length");
        const std::uint8_t b = *in++;
        match_len += b;
        if (b != 255) break;
      }
    }
    if (match_len > static_cast<std::size_t>(out_end - out)) {
      throw CodecError("nlz4 match overflows declared size");
    }
    // Interior matches use block copies (a block must not outrun the
    // overlap distance); short-distance and end-of-buffer matches take the
    // exact overlap-aware kernel.
    if (match_len + 32 <= static_cast<std::size_t>(out_end - out) &&
        distance >= 8) [[likely]] {
      const std::byte* src = out - distance;
      if (distance >= 32) {
        for (std::size_t o = 0; o < match_len; o += 32)
          std::memcpy(out + o, src + o, 32);
      } else {
        for (std::size_t o = 0; o < match_len; o += 8)
          std::memcpy(out + o, src + o, 8);
      }
    } else {
      copy_match(out, distance, match_len);
    }
    out += match_len;
  }
  return static_cast<std::size_t>(out - dst);
}

}  // namespace ndpcr::compress
