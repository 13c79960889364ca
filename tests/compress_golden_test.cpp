// Golden bit-identity tests for the codec kernels.
//
// The compressed wire format is a compatibility surface: checkpoints written
// by one build must restore under another, and the bench history is only
// comparable if the bytes (and therefore ratios) stay fixed. Every entry
// below is the CRC-32 of the full framed compressor output. Most were pinned
// from the pre-kernel-overhaul implementation; kernel rewrites (word-wide
// matching, table-driven entropy decode, scratch reuse) must reproduce these
// bytes exactly.
//
// Two kinds of change move a pin, and they are treated differently:
//   - An encoder parse change (the encoder picks different matches, emitting
//     a different but valid stream) may re-pin the affected entries, with a
//     note next to each new value saying what changed. Streams written
//     before it must still decode, which the earlier-encoder fixtures at
//     the end of this file prove.
//   - A decoder or wire-format change (the same stream decodes differently,
//     or the header/token layout moves) is a bug unless the format version
//     is deliberately revved.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "compress/codec.hpp"

namespace ndpcr::compress {
namespace {

Bytes mixed_payload(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_below(2) ? rng.next_below(8)
                                                 : rng.next_below(256));
  }
  return data;
}

Bytes text_payload(std::size_t size, std::uint64_t seed) {
  static const char* words[] = {"checkpoint ", "restart ",  "ndp ",
                                "drain ",      "compress ", "multilevel "};
  Rng rng(seed);
  Bytes data;
  data.reserve(size + 16);
  while (data.size() < size) {
    const char* w = words[rng.next_below(6)];
    for (const char* p = w; *p; ++p) data.push_back(static_cast<std::byte>(*p));
  }
  data.resize(size);
  return data;
}

struct Payload {
  const char* name;
  Bytes data;
};

const std::vector<Payload>& payloads() {
  static const std::vector<Payload> all = [] {
    std::vector<Payload> p;
    p.push_back({"empty", {}});
    p.push_back({"one", Bytes(1, std::byte{42})});
    p.push_back({"runs", Bytes(4096, std::byte{7})});
    p.push_back({"mixed96k", mixed_payload(96 * 1024, 123)});
    p.push_back({"text64k", text_payload(64 * 1024, 321)});
    Rng rng(777);
    Bytes rnd(32 * 1024);
    for (auto& b : rnd) b = static_cast<std::byte>(rng.next_u64());
    p.push_back({"random32k", std::move(rnd)});
    return p;
  }();
  return all;
}

ByteSpan payload_by_name(const char* name) {
  for (const auto& p : payloads()) {
    if (std::string_view(p.name) == name) return p.data;
  }
  ADD_FAILURE() << "unknown payload " << name;
  return {};
}

struct Golden {
  const char* codec;
  int level;
  const char* payload;
  std::uint32_t crc;
};

// Pinned from the pre-overhaul codecs (commit ddd06c5) unless noted; see
// the file comment.
constexpr Golden kGoldens[] = {
    {"null", 0, "empty", 0xF05B60EFU},
    {"null", 0, "one", 0x35BD2BB9U},
    {"null", 0, "runs", 0x545A4D81U},
    {"null", 0, "mixed96k", 0x0FA31232U},
    {"null", 0, "text64k", 0x744537B7U},
    {"null", 0, "random32k", 0xDE12D461U},
    {"rle", 0, "empty", 0xB0C2581CU},
    {"rle", 0, "one", 0x11491127U},
    {"rle", 0, "runs", 0xC71E17A0U},
    {"rle", 0, "mixed96k", 0x6991482EU},
    {"rle", 0, "text64k", 0x47656314U},
    {"rle", 0, "random32k", 0x35D52C9EU},
    {"nlz4", 1, "empty", 0xD7CE1BE3U},
    {"nlz4", 1, "one", 0xA0C3B0AAU},
    {"nlz4", 1, "runs", 0x7E1B1698U},
    // Re-pinned when plain level 1 adopted LZ4's default skip ramp (the
    // probe stride grows after every 64 consecutive misses); the stream
    // before that pinned 0xC50FA5BB and still decodes.
    {"nlz4", 1, "mixed96k", 0xC0BB192AU},
    {"nlz4", 1, "text64k", 0x8B8BCA70U},
    {"nlz4", 1, "random32k", 0xDA45326BU},
    {"nlz4", 2, "empty", 0xABAF3E38U},
    {"nlz4", 2, "one", 0xB1BEDAD3U},
    {"nlz4", 2, "runs", 0x139DE5C2U},
    {"nlz4", 2, "mixed96k", 0x9345CE3BU},
    {"nlz4", 2, "text64k", 0xAEDC7212U},
    {"nlz4", 2, "random32k", 0x9BC86601U},
    {"nlz4", 4, "empty", 0x536D758EU},
    {"nlz4", 4, "one", 0x93440E21U},
    {"nlz4", 4, "runs", 0xC8900376U},
    {"nlz4", 4, "mixed96k", 0xF22AB75FU},
    {"nlz4", 4, "text64k", 0x56F688B6U},
    {"nlz4", 4, "random32k", 0x18D2CED5U},
    {"nlz4", 9, "empty", 0xE49705D5U},
    {"nlz4", 9, "one", 0x6F4A7C2DU},
    {"nlz4", 9, "runs", 0x81789969U},
    {"nlz4", 9, "mixed96k", 0x65A61271U},
    {"nlz4", 9, "text64k", 0xE203CD56U},
    {"nlz4", 9, "random32k", 0x4C3D5725U},
    {"ngzip", 1, "empty", 0x40A57A5DU},
    {"ngzip", 1, "one", 0x1736714BU},
    {"ngzip", 1, "runs", 0xF663B3A8U},
    {"ngzip", 1, "mixed96k", 0xF03E4BFCU},
    {"ngzip", 1, "text64k", 0xB4C7E5D5U},
    {"ngzip", 1, "random32k", 0x0DFC300DU},
    {"ngzip", 4, "empty", 0xC4B470C3U},
    {"ngzip", 4, "one", 0x93277BD5U},
    {"ngzip", 4, "runs", 0xB5E35EB5U},
    {"ngzip", 4, "mixed96k", 0xC4120ED1U},
    {"ngzip", 4, "text64k", 0xFDA54024U},
    {"ngzip", 4, "random32k", 0x3A03D566U},
    {"ngzip", 6, "empty", 0xFEF1DFDAU},
    {"ngzip", 6, "one", 0xA962D4CCU},
    {"ngzip", 6, "runs", 0x9EE33347U},
    {"ngzip", 6, "mixed96k", 0x1EB3FEF6U},
    {"ngzip", 6, "text64k", 0xA7E987F2U},
    {"ngzip", 6, "random32k", 0xFDAFBE22U},
    {"ngzip", 9, "empty", 0xA9B3C639U},
    {"ngzip", 9, "one", 0xFE20CD2FU},
    {"ngzip", 9, "runs", 0x5A620460U},
    {"ngzip", 9, "mixed96k", 0xF6AD5FF3U},
    {"ngzip", 9, "text64k", 0x4FF35375U},
    {"ngzip", 9, "random32k", 0xA5AF919FU},
    {"nbzip2", 1, "empty", 0xB36D969AU},
    {"nbzip2", 1, "one", 0x6E94FE72U},
    {"nbzip2", 1, "runs", 0xE414A641U},
    {"nbzip2", 1, "mixed96k", 0x170F7BBEU},
    {"nbzip2", 1, "text64k", 0x5C37AF2AU},
    {"nbzip2", 1, "random32k", 0xFAC53344U},
    {"nbzip2", 9, "empty", 0x0E5521C7U},
    {"nbzip2", 9, "one", 0xD3AC492FU},
    {"nbzip2", 9, "runs", 0x03F69BFEU},
    {"nbzip2", 9, "mixed96k", 0x7A6792D7U},
    {"nbzip2", 9, "text64k", 0x3713C12FU},
    {"nbzip2", 9, "random32k", 0x6DF74C0EU},
    {"nxz", 1, "empty", 0xF20D4BA7U},
    {"nxz", 1, "one", 0x6E95D1A2U},
    {"nxz", 1, "runs", 0xFAEF9A42U},
    {"nxz", 1, "mixed96k", 0xE2B63CC8U},
    {"nxz", 1, "text64k", 0x5059647CU},
    {"nxz", 1, "random32k", 0xF537BD62U},
    {"nxz", 6, "empty", 0x132341C3U},
    {"nxz", 6, "one", 0x24AB5AE9U},
    {"nxz", 6, "runs", 0xF4E55CE2U},
    {"nxz", 6, "mixed96k", 0xAEE0BDD7U},
    {"nxz", 6, "text64k", 0x50D608C6U},
    {"nxz", 6, "random32k", 0x034BA686U},
};

// Same contract for the chunked container (16 KiB chunks, single worker;
// the bytes are thread-invariant, which ChunkedCodec's own tests cover).
constexpr Golden kChunkedGoldens[] = {
    {"null", 0, "mixed96k", 0xED026332U},
    {"rle", 0, "mixed96k", 0xE01C2A7CU},
    // Re-pinned with the level-1 skip ramp (was 0x57D3C931).
    {"nlz4", 1, "mixed96k", 0x2924DAF9U},
    {"ngzip", 1, "mixed96k", 0x4E857696U},
    {"nbzip2", 1, "mixed96k", 0x88E31657U},
    {"nxz", 1, "mixed96k", 0x353FFB07U},
};

TEST(CompressGolden, WholeStreamBytesArePinned) {
  // Every codec and payload runs in sequence on this thread's one
  // workspace, so stale tables from an earlier pair would move a pin.
  for (const auto& g : kGoldens) {
    SCOPED_TRACE(std::string(g.codec) + " level " + std::to_string(g.level) +
                 " payload " + g.payload);
    const auto codec = make_codec(g.codec, g.level);
    const ByteSpan input = payload_by_name(g.payload);
    const Bytes packed = codec->compress(input);
    EXPECT_EQ(Crc32::compute(packed), g.crc);
    const Bytes back = codec->decompress(packed);
    EXPECT_TRUE(back.size() == input.size() &&
                std::equal(back.begin(), back.end(), input.begin()));
  }
}

TEST(CompressGolden, ChunkedContainerBytesArePinned) {
  for (const auto& g : kChunkedGoldens) {
    SCOPED_TRACE(std::string("chunked-") + g.codec);
    const auto id = make_codec(g.codec, g.level)->id();
    const ChunkedCodec cc(id, g.level, 16 * 1024, 1);
    const ByteSpan input = payload_by_name(g.payload);
    const Bytes packed = cc.compress(input);
    EXPECT_EQ(Crc32::compute(packed), g.crc);
    const Bytes back = cc.decompress(packed);
    EXPECT_TRUE(back.size() == input.size() &&
                std::equal(back.begin(), back.end(), input.begin()));
  }
}

// A stream the level-1 encoder wrote before the skip ramp, committed as
// bytes: 200 random bytes (Rng seed 2024) followed by a repeat of them. The
// old parse emitted 200 literals and one 200-byte match at distance 200;
// the ramp now probes every third byte by then, so it matches one byte
// later. Any build must keep decoding the old bytes bit-exactly.
constexpr unsigned char kPreRampNlz4Stream[] = {
    0x4E, 0x02, 0x01, 0x90, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xA3,
    0x0A, 0xE3, 0x9E, 0xFF, 0xB9, 0x2E, 0x65, 0x01, 0x6B, 0xA7, 0xF5, 0xA8,
    0x6C, 0xD5, 0xA4, 0xE0, 0x83, 0x86, 0x75, 0x0F, 0x05, 0x09, 0xE6, 0x29,
    0x23, 0x11, 0x8D, 0x8E, 0xF6, 0x63, 0xD5, 0x39, 0x1C, 0xDB, 0x9C, 0x6F,
    0x39, 0x61, 0x8B, 0x4E, 0x7B, 0x12, 0x90, 0x71, 0xA7, 0xD4, 0xDD, 0xFE,
    0x01, 0x5F, 0x9F, 0x0E, 0xE6, 0x7E, 0x06, 0x27, 0xBB, 0xCA, 0x04, 0xB4,
    0x38, 0x7C, 0x1A, 0xCF, 0x42, 0xCF, 0xD4, 0xF5, 0x62, 0x1C, 0xB2, 0x3E,
    0x99, 0xF7, 0x82, 0x2E, 0x26, 0x0A, 0xB2, 0x02, 0xF4, 0xA3, 0xB8, 0xA2,
    0xE2, 0xFF, 0x2D, 0xC6, 0x91, 0xC9, 0xBC, 0xCB, 0x9B, 0xC8, 0x13, 0xA6,
    0x61, 0x8B, 0xB7, 0xC3, 0xBE, 0x43, 0x4C, 0xF5, 0x40, 0x8F, 0xC1, 0x5D,
    0xD2, 0x2D, 0x83, 0x46, 0x4E, 0x9E, 0x94, 0x86, 0xB0, 0x60, 0xB2, 0x9D,
    0xAE, 0x69, 0x78, 0x0A, 0xF6, 0xA9, 0xE8, 0xF5, 0x19, 0x14, 0x2F, 0x41,
    0x31, 0x69, 0x36, 0x5C, 0xC0, 0x48, 0x91, 0x1B, 0xBC, 0x4A, 0x6A, 0x5A,
    0xC0, 0xAA, 0x55, 0x27, 0x92, 0xB3, 0x76, 0xAE, 0xF3, 0x4A, 0x20, 0x7C,
    0xAB, 0x9A, 0x91, 0x2E, 0x97, 0xA2, 0x0C, 0xB5, 0xA1, 0xE9, 0x1A, 0x04,
    0x03, 0x3A, 0x96, 0x41, 0x3E, 0x26, 0x8A, 0xBB, 0xA6, 0xF1, 0xFE, 0x65,
    0x80, 0x0C, 0x11, 0x2B, 0xAA, 0xDF, 0xA2, 0x94, 0xD5, 0x05, 0xEC, 0xD8,
    0xD0, 0x96, 0xC0, 0x6B, 0x6D, 0xAE, 0x10, 0x11, 0x1D, 0xAA, 0xDF, 0xE5,
    0xC3, 0xC8, 0x00, 0xB5, 0x00};

Bytes pre_ramp_input() {
  Rng rng(2024);
  Bytes input(200);
  for (auto& b : input) b = static_cast<std::byte>(rng.next_u64());
  const Bytes head = input;
  input.insert(input.end(), head.begin(), head.end());
  return input;
}

TEST(CompressGolden, PreRampNlz4StreamStillDecodes) {
  const Bytes stream(
      reinterpret_cast<const std::byte*>(kPreRampNlz4Stream),
      reinterpret_cast<const std::byte*>(kPreRampNlz4Stream) +
          sizeof kPreRampNlz4Stream);
  const Bytes input = pre_ramp_input();
  const auto codec = make_codec("nlz4", 1);
  EXPECT_EQ(codec->decompress(stream), input);
  // The fixture only guards old streams if today's encoder parses the
  // input differently; if the parse ever reverts, it still must decode.
  const Bytes today = codec->compress(input);
  EXPECT_NE(today, stream);
  EXPECT_EQ(codec->decompress(today), input);
}

}  // namespace
}  // namespace ndpcr::compress
