#include "compress/deflate_style.hpp"

#include <algorithm>
#include <array>

#include "compress/huffman.hpp"
#include "compress/kernels.hpp"
#include "compress/matcher.hpp"
#include "compress/scratch.hpp"

namespace ndpcr::compress {
namespace {

constexpr std::uint32_t kWindow = 32768;
constexpr std::uint32_t kMinMatch = 3;
constexpr std::uint32_t kMaxMatch = 258;
constexpr std::size_t kBlockSize = 256 * 1024;

constexpr std::uint32_t kEndOfBlock = 256;
constexpr std::size_t kLitLenSymbols = 286;
constexpr std::size_t kDistSymbols = 30;

// DEFLATE length code tables (symbols 257..285 map to index 0..28).
constexpr std::array<std::uint16_t, 29> kLenBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, 29> kLenExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// DEFLATE distance code tables (symbols 0..29).
constexpr std::array<std::uint32_t, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<std::uint8_t, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

std::uint32_t length_symbol(std::uint32_t len) {
  // Largest bucket whose base is <= len.
  auto it = std::upper_bound(kLenBase.begin(), kLenBase.end(), len);
  return static_cast<std::uint32_t>(it - kLenBase.begin()) - 1;
}

std::uint32_t distance_symbol(std::uint32_t dist) {
  auto it = std::upper_bound(kDistBase.begin(), kDistBase.end(), dist);
  return static_cast<std::uint32_t>(it - kDistBase.begin()) - 1;
}

// One parsed LZSS item, packed into a u64 so the per-block item vector can
// live in CodecScratch: literal in bits 0..7, match length (0 = literal,
// else 3..258) in bits 8..19, distance (<= 32768) in bits 20 and up.
constexpr std::uint64_t pack_literal(std::uint8_t lit) { return lit; }
constexpr std::uint64_t pack_match(std::uint32_t length,
                                   std::uint32_t distance) {
  return (static_cast<std::uint64_t>(length) << 8) |
         (static_cast<std::uint64_t>(distance) << 20);
}
constexpr std::uint8_t item_literal(std::uint64_t item) {
  return static_cast<std::uint8_t>(item & 0xFF);
}
constexpr std::uint32_t item_length(std::uint64_t item) {
  return static_cast<std::uint32_t>((item >> 8) & 0xFFF);
}
constexpr std::uint32_t item_distance(std::uint64_t item) {
  return static_cast<std::uint32_t>(item >> 20);
}

std::uint32_t chain_depth_for_level(int level) {
  static constexpr std::array<std::uint32_t, 10> depth = {
      0, 4, 8, 16, 32, 64, 96, 128, 192, 256};
  return depth[level];
}

void write_code_lengths(BitWriter& bw,
                        const std::vector<std::uint8_t>& lengths) {
  for (auto l : lengths) bw.write(l, 4);
}

void read_code_lengths(BitReader& br, std::size_t n,
                       std::vector<std::uint8_t>& lengths) {
  lengths.resize(n);
  for (auto& l : lengths) l = static_cast<std::uint8_t>(br.read(4));
}

}  // namespace

DeflateStyleCodec::DeflateStyleCodec(int level) : level_(level) {
  if (level < 1 || level > 9) {
    throw CodecError("ngzip level must be in [1, 9]");
  }
}

void DeflateStyleCodec::compress_payload(ByteSpan input, Bytes& out,
                                         CodecScratch& scratch) const {
  reserve_payload(out, input.size());
  // One match finder across the whole input so matches can cross block
  // boundaries (the window is what bounds distances).
  MatchFinder finder(input, kWindow, kMinMatch, kMaxMatch,
                     chain_depth_for_level(level_), scratch.match_head,
                     scratch.match_prev);
  const bool lazy = level_ >= 4;

  BitWriter bw(out);
  std::size_t pos = 0;
  do {
    const std::size_t block_end =
        std::min(input.size(), pos + kBlockSize);

    // Parse the block into literals and matches. The lazy parse probes
    // find(pos + 1) before committing pos, so find and insert stay split
    // (find_and_insert would link pos into the chains too early).
    std::vector<std::uint64_t>& items = scratch.items;
    items.clear();
    items.reserve(block_end - pos);
    while (pos < block_end) {
      Match m = finder.find(pos);
      if (lazy && m.length >= kMinMatch && pos + 1 < block_end &&
          m.length < kMaxMatch) {
        // Defer by one byte if the next position has a longer match.
        const Match next = finder.find(pos + 1);
        if (next.length > m.length) m.length = 0;
      }
      if (m.length >= kMinMatch) {
        items.push_back(pack_match(m.length, m.distance));
        const std::size_t end = pos + m.length;
        for (std::size_t p = pos; p < end; ++p) finder.insert(p);
        pos = end;
      } else {
        items.push_back(pack_literal(static_cast<std::uint8_t>(input[pos])));
        finder.insert(pos);
        ++pos;
      }
    }

    // The final match of a block may run past block_end (matches are
    // bounded by the input, not the block), so whether this block is the
    // last one is only known after the parse: a boundary-crossing match
    // can swallow the entire remainder of the input.
    bw.write(pos >= input.size() ? 1 : 0, 1);

    // Build per-block Huffman tables.
    std::vector<std::uint64_t> lit_freq(kLitLenSymbols, 0);
    std::vector<std::uint64_t> dist_freq(kDistSymbols, 0);
    lit_freq[kEndOfBlock] = 1;
    for (const auto item : items) {
      if (item_length(item) == 0) {
        ++lit_freq[item_literal(item)];
      } else {
        ++lit_freq[257 + length_symbol(item_length(item))];
        ++dist_freq[distance_symbol(item_distance(item))];
      }
    }
    const HuffmanEncoder lit_enc(huffman_code_lengths(lit_freq));
    const HuffmanEncoder dist_enc(huffman_code_lengths(dist_freq));
    write_code_lengths(bw, lit_enc.lengths());
    write_code_lengths(bw, dist_enc.lengths());

    // Emit the symbol stream.
    for (const auto item : items) {
      if (item_length(item) == 0) {
        lit_enc.encode(bw, item_literal(item));
      } else {
        const std::uint32_t ls = length_symbol(item_length(item));
        lit_enc.encode(bw, 257 + ls);
        bw.write(item_length(item) - kLenBase[ls], kLenExtra[ls]);
        const std::uint32_t ds = distance_symbol(item_distance(item));
        dist_enc.encode(bw, ds);
        bw.write(item_distance(item) - kDistBase[ds], kDistExtra[ds]);
      }
    }
    lit_enc.encode(bw, kEndOfBlock);
  } while (pos < input.size());
  bw.finish();
}

std::size_t DeflateStyleCodec::decompress_payload(
    ByteSpan payload, std::byte* dst, std::size_t original_size,
    CodecScratch& scratch) const {
  if (original_size == 0) return 0;
  BitReader br(payload);
  std::size_t written = 0;
  bool final_block = false;
  while (!final_block) {
    final_block = br.read(1) != 0;
    read_code_lengths(br, kLitLenSymbols, scratch.code_lengths);
    scratch.lit_decoder.init(scratch.code_lengths);
    read_code_lengths(br, kDistSymbols, scratch.code_lengths);
    scratch.dist_decoder.init(scratch.code_lengths);
    while (true) {
      const std::uint32_t sym = scratch.lit_decoder.decode(br);
      if (sym == kEndOfBlock) break;
      if (sym < 256) {
        if (written >= original_size) {
          throw CodecError("ngzip output overflows declared size");
        }
        dst[written++] = static_cast<std::byte>(sym);
        continue;
      }
      const std::uint32_t ls = sym - 257;
      if (ls >= kLenBase.size()) {
        throw CodecError("invalid ngzip length symbol");
      }
      const std::uint32_t len = kLenBase[ls] + br.read(kLenExtra[ls]);
      const std::uint32_t ds = scratch.dist_decoder.decode(br);
      if (ds >= kDistBase.size()) {
        throw CodecError("invalid ngzip distance symbol");
      }
      const std::uint32_t dist = kDistBase[ds] + br.read(kDistExtra[ds]);
      if (dist == 0 || dist > written) {
        throw CodecError("invalid ngzip match distance");
      }
      if (len > original_size - written) {
        throw CodecError("ngzip match overflows declared size");
      }
      copy_match(dst + written, dist, len);
      written += len;
    }
  }
  return written;
}

}  // namespace ndpcr::compress
