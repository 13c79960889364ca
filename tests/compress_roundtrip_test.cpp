// Randomized round-trip and adversarial-input coverage for every registered
// codec at every level, plus targeted regressions for the pointer-based
// decode kernels (which write into pre-sized buffers and must therefore
// bound every copy against the declared output size, not just the input).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "compress/codec.hpp"
#include "compress/lz4_style.hpp"
#include "exec/task_pool.hpp"
#include "workloads/proxy_kernels.hpp"

namespace ndpcr::compress {
namespace {

struct CodecCfg {
  const char* name;
  std::vector<int> levels;
};

// Every constructible (codec, level) pair in the registry.
const std::vector<CodecCfg>& all_codecs() {
  static const std::vector<CodecCfg> cfgs = {
      {"null", {0}},
      {"rle", {0}},
      {"nlz4", {1, 2, 3, 4, 5, 6, 7, 8, 9}},
      {"ngzip", {1, 2, 3, 4, 5, 6, 7, 8, 9}},
      {"nbzip2", {1, 2, 3, 4, 5, 6, 7, 8, 9}},
      {"nxz", {1, 2, 3, 4, 5, 6, 7, 8, 9}},
  };
  return cfgs;
}

// Seeded payload with tunable redundancy: stretches of small-alphabet
// bytes (compressible) interleaved with full-range bytes (not), plus
// occasional long runs to exercise RLE/match paths.
Bytes fuzz_payload(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data;
  data.reserve(size);
  while (data.size() < size) {
    const std::size_t burst =
        std::min<std::size_t>(1 + rng.next_below(97), size - data.size());
    switch (rng.next_below(4)) {
      case 0: {  // long run
        const auto b = static_cast<std::byte>(rng.next_below(256));
        data.insert(data.end(), burst, b);
        break;
      }
      case 1:  // small alphabet
        for (std::size_t i = 0; i < burst; ++i)
          data.push_back(static_cast<std::byte>(rng.next_below(4)));
        break;
      default:  // full range
        for (std::size_t i = 0; i < burst; ++i)
          data.push_back(static_cast<std::byte>(rng.next_u64()));
        break;
    }
  }
  return data;
}

void expect_roundtrip(const Codec& codec, ByteSpan input) {
  const Bytes packed = codec.compress(input);
  const Bytes back = codec.decompress(packed);
  ASSERT_EQ(back.size(), input.size());
  EXPECT_TRUE(std::equal(back.begin(), back.end(), input.begin()));
  // The append form writes the same stream after whatever the buffer
  // already holds, and leaves those bytes alone.
  const Bytes prefix = {std::byte{0xA5}, std::byte{0x5A}, std::byte{0x01}};
  Bytes appended = prefix;
  codec.compress_append(input, appended);
  ASSERT_EQ(appended.size(), prefix.size() + packed.size());
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), appended.begin()));
  EXPECT_TRUE(std::equal(packed.begin(), packed.end(),
                         appended.begin() + prefix.size()));
}

TEST(CompressRoundTrip, EveryCodecEveryLevelSeededPayloads) {
  std::uint64_t seed = 0x5EED;
  for (const auto& cfg : all_codecs()) {
    for (int level : cfg.levels) {
      const auto codec = make_codec(cfg.name, level);
      for (std::size_t size : {std::size_t{0}, std::size_t{1},
                               std::size_t{1337}, std::size_t{16 * 1024}}) {
        SCOPED_TRACE(std::string(cfg.name) + " level " +
                     std::to_string(level) + " size " + std::to_string(size));
        expect_roundtrip(*codec, fuzz_payload(size, seed++));
      }
    }
  }
}

TEST(CompressRoundTrip, TruncationNeverCrashesOrMisdecodes) {
  // Chop each framed stream at every prefix length (stride 3 to bound
  // runtime, plus the last 64 lengths exhaustively, where the interesting
  // end-of-stream states live). Every prefix must either throw CodecError
  // or round-trip exactly; anything else (crash, OOB write under the
  // sanitizer jobs, silent wrong bytes) is a decoder bug.
  const Bytes input = fuzz_payload(6 * 1024, 42);
  for (const auto& cfg : all_codecs()) {
    const auto codec = make_codec(cfg.name, cfg.levels[0]);
    const Bytes packed = codec->compress(input);
    auto check_prefix = [&](std::size_t len) {
      SCOPED_TRACE(std::string(cfg.name) + " truncated to " +
                   std::to_string(len) + "/" + std::to_string(packed.size()));
      try {
        const Bytes back = codec->decompress(ByteSpan(packed).first(len));
        EXPECT_TRUE(back.size() == input.size() &&
                    std::equal(back.begin(), back.end(), input.begin()));
      } catch (const CodecError&) {
        // Expected for nearly every prefix.
      }
    };
    const std::size_t tail_start =
        packed.size() > 64 ? packed.size() - 64 : 0;
    for (std::size_t len = 0; len < tail_start; len += 3) check_prefix(len);
    for (std::size_t len = tail_start; len <= packed.size(); ++len) {
      check_prefix(len);
    }
  }
}

TEST(CompressRoundTrip, Lz4LiteralRunBeyondDeclaredSizeThrows) {
  // Regression: a frame can declare a small original size while its payload
  // encodes a longer literal run. The pointer-based decoder memcpys
  // literals into a buffer sized from the header, so it must reject the
  // run *before* copying, not discover the overflow afterwards.
  Bytes frame;
  frame.push_back(static_cast<std::byte>('N'));
  frame.push_back(static_cast<std::byte>(CodecId::kLz4Style));
  frame.push_back(std::byte{1});                 // level
  append_le<std::uint64_t>(frame, 5);            // declared original size
  append_le<std::uint32_t>(frame, 0xDEADBEEFu);  // CRC (never reached)
  frame.push_back(std::byte{0xF0});              // token: 15 literals, ...
  frame.push_back(std::byte{5});                 // ... extended to 20
  frame.insert(frame.end(), 20, std::byte{0x41});
  const Lz4StyleCodec codec(1);
  try {
    const Bytes out = codec.decompress(frame);
    FAIL() << "decoded " << out.size() << " bytes from an overflowing frame";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("literals overflow"),
              std::string::npos)
        << e.what();
  }
}

TEST(CompressRoundTrip, Lz4AcceleratedModeRoundTrips) {
  // Acceleration trades ratio for speed and is opt-in precisely because it
  // changes the emitted bytes; it must still round-trip through the
  // unchanged decoder, including when the probe strides past the end of
  // the input.
  const Lz4StyleCodec plain(1);
  const Lz4StyleCodec fast(1, /*accelerate=*/true);
  std::uint64_t seed = 0xACCE1;
  for (std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{4096},
        std::size_t{64 * 1024}}) {
    SCOPED_TRACE("size " + std::to_string(size));
    const Bytes input = fuzz_payload(size, seed++);
    expect_roundtrip(fast, input);
    // Incompressible data is where the skip heuristic engages hardest.
    Rng rng(seed++);
    Bytes noise(size);
    for (auto& b : noise) b = static_cast<std::byte>(rng.next_u64());
    expect_roundtrip(fast, noise);
    // Sanity: both modes agree on content, not necessarily on bytes.
    EXPECT_EQ(plain.decompress(plain.compress(input)), input);
  }
}

Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
  return data;
}

// [n incompressible bytes][repeat of their last 256][repeat of their
// first 256]: the probe stride has ramped up by the time the repeats
// arrive, and for n = 70000 the second repeat lies outside the 64 KiB
// window.
Bytes ramp_payload(std::size_t n, std::uint64_t seed) {
  Bytes data = random_bytes(n, seed);
  const std::size_t span = std::min<std::size_t>(n, 256);
  const auto width = static_cast<std::ptrdiff_t>(span);
  const Bytes tail(data.end() - width, data.end());
  const Bytes head(data.begin(), data.begin() + width);
  data.insert(data.end(), tail.begin(), tail.end());
  data.insert(data.end(), head.begin(), head.end());
  return data;
}

TEST(CompressRoundTrip, Lz4SkipRampRoundTripsAroundTheTrigger) {
  // Plain level 1 widens its stride after every 64 misses, accelerated
  // after every 16: sizes straddle the first trigger and run far past it.
  const Lz4StyleCodec plain(1);
  const Lz4StyleCodec fast(1, /*accelerate=*/true);
  for (std::size_t n : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                        std::size_t{128}, std::size_t{1000},
                        std::size_t{70000}}) {
    SCOPED_TRACE("n " + std::to_string(n));
    const Bytes input = ramp_payload(n, n);
    expect_roundtrip(plain, input);
    expect_roundtrip(fast, input);
    for (const bool accel : {false, true}) {
      const ChunkedCodec cc(CodecId::kLz4Style, 1, 16 * 1024, 1, accel);
      EXPECT_EQ(cc.decompress(cc.compress(input)), input)
          << (accel ? "chunked accelerated" : "chunked plain");
    }
  }
}

TEST(CompressRoundTrip, Lz4SkipRampKeepsRepeatedBlocksCompressible) {
  // A 4 KiB random block repeated 16 times: the ramp must not skip past
  // the first repeat (its first 64 positions were all probed), after which
  // one match covers the rest.
  const Bytes block = random_bytes(4096, 4096);
  Bytes input;
  for (int i = 0; i < 16; ++i) {
    input.insert(input.end(), block.begin(), block.end());
  }
  const auto ratio = [&](const Bytes& packed) {
    return static_cast<double>(packed.size()) /
           static_cast<double>(input.size());
  };
  for (const bool accel : {false, true}) {
    SCOPED_TRACE(accel ? "accelerated" : "plain");
    const Lz4StyleCodec codec(1, accel);
    const Bytes packed = codec.compress(input);
    EXPECT_LT(ratio(packed), 0.1);
    EXPECT_EQ(codec.decompress(packed), input);
    const ChunkedCodec cc(CodecId::kLz4Style, 1, 64 * 1024, 1, accel);
    const Bytes chunked = cc.compress(input);
    EXPECT_LT(ratio(chunked), 0.1);
    EXPECT_EQ(cc.decompress(chunked), input);
  }
}

TEST(CompressRoundTrip, Lz4HigherLevelsStillProbeEveryByte) {
  // Levels 2-9 keep the exhaustive parse (their goldens are unchanged): a
  // lone 256-byte repeat after 70000 incompressible bytes is always found,
  // so the stream is smaller than the same input with fresh bytes there.
  const Bytes input = ramp_payload(70000, 7);
  Bytes fresh = random_bytes(70000, 7);
  const Bytes filler = random_bytes(512, 8);
  fresh.insert(fresh.end(), filler.begin(), filler.end());
  for (int level = 2; level <= 9; ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const Lz4StyleCodec codec(level);
    const Bytes packed = codec.compress(input);
    EXPECT_LT(packed.size() + 200, codec.compress(fresh).size());
    EXPECT_EQ(codec.decompress(packed), input);
  }
}

TEST(CompressRoundTrip, ChunkedAcceleratedRoundTripsAcrossThreadCounts) {
  // Thread count is an execution detail even in accelerated mode:
  // containers compressed as concurrent pool tasks hold compress()'s
  // bytes, and decode on any pool (or none) round-trips.
  const Bytes input = fuzz_payload(200 * 1024, 77);
  const ChunkedCodec cc(CodecId::kLz4Style, 1, 16 * 1024, 1,
                        /*accelerate=*/true);
  const Bytes reference = cc.compress(input);
  EXPECT_EQ(cc.decompress(reference), input);
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::TaskPool pool(threads);
    const std::vector<Bytes> packed =
        pool.parallel_map(4, [&](std::size_t) { return cc.compress(input); });
    for (const Bytes& p : packed) {
      EXPECT_EQ(p, reference) << "threads=" << threads;
    }
    EXPECT_EQ(cc.decompress(reference, &pool), input)
        << "threads=" << threads;
  }
  EXPECT_THROW(ChunkedCodec(CodecId::kDeflateStyle, 1, 16 * 1024, 1,
                            /*accelerate=*/true),
               CodecError);
}

// Proxy-kernel checkpoint bytes, what the campaigns compress.
Bytes kernel_payload(const std::string& name, std::size_t bytes) {
  const auto kernel = workloads::make_proxy_kernel(name, bytes, 11);
  for (int i = 0; i < 3; ++i) kernel->iterate();
  return kernel->registry().capture();
}

TEST(CompressRoundTrip, SharedWorkspaceNeverChangesAStream) {
  // Every codec and level below shares this thread's workspace, calls
  // interleaved over inputs that grow and shrink, so each call finds the
  // tables and buffers another codec left. Each stream and each decode
  // must equal what a fresh thread (a fresh workspace) makes, and the
  // chunked container must decode the same on any pool.
  struct Spec {
    CodecId id;
    int level;
    bool accelerate;
  };
  const Spec specs[] = {
      {CodecId::kNull, 0, false},         {CodecId::kRle, 0, false},
      {CodecId::kLz4Style, 1, false},     {CodecId::kLz4Style, 1, true},
      {CodecId::kLz4Style, 9, false},     {CodecId::kDeflateStyle, 1, false},
      {CodecId::kDeflateStyle, 6, false}, {CodecId::kBzipStyle, 1, false},
      {CodecId::kXzStyle, 1, false},
  };
  // Random, proxy-kernel and zero-filled inputs whose sizes grow and
  // shrink.
  const std::vector<Bytes> inputs = {
      random_bytes(3000, 1),           kernel_payload("cg", 96 * 1024),
      Bytes(150 * 1024),               random_bytes(40 * 1024, 2),
      kernel_payload("ft", 8 * 1024),  Bytes{},
      kernel_payload("mg", 64 * 1024), Bytes(700),
  };
  const auto codec_for = [](const Spec& spec) -> std::unique_ptr<Codec> {
    if (spec.accelerate) {
      return std::make_unique<Lz4StyleCodec>(spec.level, /*accelerate=*/true);
    }
    return make_codec(spec.id, spec.level);
  };
  exec::TaskPool pool1(1), pool2(2), pool8(8);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Bytes& input = inputs[i];
    for (const Spec& spec : specs) {
      SCOPED_TRACE("input " + std::to_string(i) + " codec " +
                   std::to_string(static_cast<int>(spec.id)) + " level " +
                   std::to_string(spec.level) +
                   (spec.accelerate ? " accelerated" : ""));
      const auto codec = codec_for(spec);
      const ChunkedCodec chunked(spec.id, spec.level, 16 * 1024, 1,
                                 spec.accelerate);
      const Bytes stream = codec->compress(input);
      const Bytes back = codec->decompress(stream);
      const Bytes container = chunked.compress(input);
      Bytes fresh_stream, fresh_back, fresh_container;
      std::thread([&] {
        fresh_stream = codec->compress(input);
        fresh_back = codec->decompress(fresh_stream);
        fresh_container = chunked.compress(input);
      }).join();
      EXPECT_EQ(stream, fresh_stream);
      EXPECT_EQ(back, fresh_back);
      EXPECT_EQ(back, input);
      EXPECT_EQ(container, fresh_container);
      EXPECT_EQ(chunked.decompress(container), input);
      for (exec::TaskPool* pool : {&pool1, &pool2, &pool8}) {
        EXPECT_EQ(chunked.decompress(container, pool), input)
            << "threads=" << pool->thread_count();
      }
    }
  }
}

// A codec whose payload hook calls another codec: the nesting a
// per-thread workspace cannot serve.
class NestingCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "nesting"; }
  [[nodiscard]] CodecId id() const override { return CodecId::kNull; }
  [[nodiscard]] int level() const override { return 0; }

 protected:
  void compress_payload(ByteSpan input, Bytes& out,
                        CodecScratch&) const override {
    const Bytes inner = make_codec(CodecId::kRle, 0)->compress(input);
    out.insert(out.end(), inner.begin(), inner.end());
  }
  std::size_t decompress_payload(ByteSpan, std::byte*, std::size_t,
                                 CodecScratch&) const override {
    return 0;
  }
};

TEST(CompressRoundTrip, NestedCodecCallThrows) {
  const Bytes input(64);
  EXPECT_THROW((void)NestingCodec().compress(input), std::logic_error);
  // The failed call released the workspace: the thread still compresses.
  const auto rle = make_codec(CodecId::kRle, 0);
  EXPECT_EQ(rle->decompress(rle->compress(input)), input);
}

TEST(CompressRoundTrip, ImplausibleDeclaredSizeIsRejectedBeforeAllocating) {
  // A corrupted header must raise CodecError instead of attempting a
  // TiB-scale eager allocation (robustness tests flip header bytes; the
  // size field at offsets 3..10 is the dangerous one).
  Bytes frame;
  frame.push_back(static_cast<std::byte>('N'));
  frame.push_back(static_cast<std::byte>(CodecId::kLz4Style));
  frame.push_back(std::byte{1});
  append_le<std::uint64_t>(frame, 1ull << 40);  // 1 TiB declared
  append_le<std::uint32_t>(frame, 0);
  frame.push_back(std::byte{0});  // tiny payload
  const Lz4StyleCodec codec(1);
  EXPECT_THROW((void)codec.decompress(frame), CodecError);
}

}  // namespace
}  // namespace ndpcr::compress
