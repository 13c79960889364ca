#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "exec/task_pool.hpp"

namespace ndpcr::compress {
namespace {

Bytes test_data(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(16));
  return data;
}

// The commit path's schedule: one container per pool task (a rank's
// stream each), every one written through begin() + append_chunk().
std::vector<Bytes> pool_compress(const ChunkedCodec& codec,
                                 const std::vector<Bytes>& inputs,
                                 exec::TaskPool& pool) {
  return pool.parallel_map(inputs.size(), [&](std::size_t i) {
    return codec.compress(inputs[i]);
  });
}

TEST(Chunked, RoundTripsAcrossChunkBoundaries) {
  const ChunkedCodec codec(CodecId::kDeflateStyle, 1, /*chunk=*/10000);
  for (std::size_t size : {0u, 1u, 9999u, 10000u, 10001u, 35000u}) {
    const Bytes data = test_data(size, size + 1);
    const Bytes packed = codec.compress(data);
    EXPECT_EQ(codec.decompress(packed), data) << "size=" << size;
  }
}

TEST(Chunked, OutputIndependentOfThreadCount) {
  // Parallelism is an execution detail: containers compressed as
  // concurrent pool tasks hold compress()'s bytes, and decompress on any
  // pool (or none) returns the input.
  const Bytes data = test_data(200000, 7);
  const std::vector<Bytes> inputs = {data, test_data(70000, 8), Bytes{},
                                     test_data(16384, 9)};
  const ChunkedCodec codec(CodecId::kLz4Style, 1, 16384);
  const Bytes reference = codec.compress(data);
  EXPECT_EQ(codec.decompress(reference), data);
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::TaskPool pool(threads);
    const std::vector<Bytes> packed = pool_compress(codec, inputs, pool);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(packed[i], codec.compress(inputs[i]))
          << "threads=" << threads << " input=" << i;
    }
    EXPECT_EQ(codec.decompress(reference, &pool), data)
        << "threads=" << threads;
  }
}

TEST(Chunked, ParallelDecompressMatches) {
  const Bytes data = test_data(150000, 9);
  const ChunkedCodec codec(CodecId::kDeflateStyle, 1, 8192);
  exec::TaskPool pool(4);
  EXPECT_EQ(codec.decompress(codec.compress(data), &pool), data);
}

TEST(Chunked, ChunkingCostsLittleRatio) {
  // Chunked vs monolithic: same codec, modest ratio loss from per-chunk
  // framing and reset dictionaries.
  const Bytes data = test_data(256 * 1024, 11);
  const auto mono = make_codec(CodecId::kDeflateStyle, 1);
  const ChunkedCodec chunked(CodecId::kDeflateStyle, 1, 32768);
  const double mono_size = static_cast<double>(mono->compress(data).size());
  const double chunked_size =
      static_cast<double>(chunked.compress(data).size());
  EXPECT_LT(chunked_size, mono_size * 1.15);
}

TEST(Chunked, RejectsCorruptStreams) {
  const ChunkedCodec codec(CodecId::kLz4Style, 1, 4096);
  const Bytes data = test_data(20000, 13);
  Bytes packed = codec.compress(data);

  // Truncations.
  for (std::size_t cut : {0u, 5u, 17u, 40u}) {
    EXPECT_THROW((void)codec.decompress(ByteSpan(packed.data(), cut)),
                 CodecError);
  }
  EXPECT_THROW(
      (void)codec.decompress(ByteSpan(packed.data(), packed.size() - 1)),
      CodecError);
  // Payload corruption is caught by the inner per-chunk CRC.
  Bytes flipped = packed;
  flipped[flipped.size() - 10] ^= std::byte{0x40};
  EXPECT_THROW((void)codec.decompress(flipped), CodecError);
  // Wrong inner codec.
  const ChunkedCodec other(CodecId::kDeflateStyle, 1, 4096);
  EXPECT_THROW((void)other.decompress(packed), CodecError);
}

TEST(Chunked, SizeTableEntryCannotWrapTheBound) {
  // Regression: the size-table bound was `offset + size > framed.size()`.
  // A first entry of 2^64 - 2 wrapped the running offset from 34 (18 B
  // header + 2-entry table) to 32, the second entry then closed the
  // stream exactly, and decode was handed a span far past the buffer.
  const ChunkedCodec codec(CodecId::kLz4Style, 1, 4096);
  const Bytes data = test_data(8192, 17);
  const Bytes packed = codec.compress(data);
  ASSERT_EQ(read_le<std::uint32_t>(packed, 6), 2u);

  Bytes forged(packed.begin(), packed.begin() + 18);
  append_le<std::uint64_t>(forged, ~std::uint64_t{0} - 1);
  append_le<std::uint64_t>(forged, packed.size() - 32);
  forged.insert(forged.end(), packed.begin() + 34, packed.end());
  ASSERT_EQ(forged.size(), packed.size());
  try {
    (void)codec.decompress(forged);
    FAIL() << "forged size table decoded";
  } catch (const CodecError& e) {
    EXPECT_STREQ(e.what(), "chunked stream truncated");
  }
}

// Byte offset of chunk `index`'s stream in a container.
std::size_t chunk_offset(const Bytes& container, std::size_t index) {
  const auto chunks = read_le<std::uint32_t>(container, 6);
  std::size_t offset = ChunkedCodec::header_bytes(chunks);
  for (std::size_t i = 0; i < index; ++i) {
    offset += ChunkedCodec::chunk_stream_size(container, i);
  }
  return offset;
}

// Overwrite the output length chunk `index`'s frame declares (frame bytes
// 3..10), or the container header's total size.
void set_chunk_len(Bytes& container, std::size_t index, std::uint64_t len) {
  std::memcpy(container.data() + chunk_offset(container, index) + 3, &len,
              sizeof len);
}
void set_total(Bytes& container, std::uint64_t size) {
  std::memcpy(container.data() + 10, &size, sizeof size);
}

std::string decode_error(const Bytes& container) {
  try {
    (void)ChunkedCodec::decode(container);
  } catch (const CodecError& e) {
    return e.what();
  }
  return "decoded";
}

TEST(Chunked, ForgedChunkFramesAreRejected) {
  // decode() takes every chunk's output length from its frame, so the
  // frames must describe a fixed-size split that sums to the header's
  // size. Each forgery below is caught while the chunk table is read -
  // by its own message, not by a codec error once the output buffer is
  // allocated (a 2^40-byte buffer could not be).
  const ChunkedCodec codec(CodecId::kLz4Style, 1, 4096);
  const Bytes data = test_data(10000, 19);  // chunks of 4096, 4096, 1808
  const Bytes packed = codec.compress(data);
  ASSERT_EQ(read_le<std::uint32_t>(packed, 6), 3u);
  ASSERT_EQ(ChunkedCodec::decode(packed), data);
  const std::string mismatch = "chunked stream size mismatch";

  // A chunk shorter than one frame header: chunk 1 keeps 10 bytes.
  {
    const std::size_t at = chunk_offset(packed, 1);
    const std::size_t size = ChunkedCodec::chunk_stream_size(packed, 1);
    Bytes forged(packed.begin(), packed.begin() + at + 10);
    forged.insert(forged.end(), packed.begin() + at + size, packed.end());
    const std::uint64_t entry = 10;
    std::memcpy(forged.data() + 18 + 8, &entry, sizeof entry);
    EXPECT_EQ(decode_error(forged), "chunked stream truncated");
  }
  // A middle chunk that differs from chunk 0, the sum still matching.
  {
    Bytes forged = packed;
    set_chunk_len(forged, 1, 4000);
    set_chunk_len(forged, 2, 1808 + 96);
    EXPECT_EQ(decode_error(forged), mismatch);
  }
  // A last chunk of length 0, and one longer than chunk 0 (the header's
  // size grown to match, so only the split is wrong).
  {
    Bytes forged = packed;
    set_chunk_len(forged, 2, 0);
    set_total(forged, 8192);
    EXPECT_EQ(decode_error(forged), mismatch);
    forged = packed;
    set_chunk_len(forged, 2, 5000);
    set_total(forged, 8192 + 5000);
    EXPECT_EQ(decode_error(forged), mismatch);
  }
  // Lengths that do not sum to the header's size, either way.
  for (const std::uint64_t total : {9999ull, 10001ull, 0ull}) {
    Bytes forged = packed;
    set_total(forged, total);
    EXPECT_EQ(decode_error(forged), mismatch) << total;
  }
  // A 2^40-byte header over frames that agree with it: the plausibility
  // guard refuses the total before anything is allocated.
  {
    Bytes forged = packed;
    constexpr std::uint64_t kL = 1ull << 39;
    set_chunk_len(forged, 0, kL);
    set_chunk_len(forged, 1, kL);
    set_chunk_len(forged, 2, kL);
    set_total(forged, 3 * kL);
    EXPECT_EQ(decode_error(forged),
              "implausible declared size in compressed stream");
  }
  // A chunk frame that names another codec than the container header.
  {
    Bytes forged = packed;
    forged[chunk_offset(forged, 1) + 1] =
        static_cast<std::byte>(CodecId::kDeflateStyle);
    EXPECT_EQ(decode_error(forged),
              "codec id mismatch: stream was produced by a different codec");
  }
}

TEST(Chunked, DecodesWithoutKnowingChunkSize) {
  // The chunk size is the writer's choice only: a container written at any
  // size decodes bit-identically through decode() and through a codec
  // configured for any other chunk size.
  const Bytes data = test_data((3u << 19) + 777, 23);  // 1.5 MiB + 777
  const std::vector<std::size_t> sizes = {4096, 32768, 1u << 20};
  exec::TaskPool pool(2);
  for (const std::size_t written : sizes) {
    const Bytes packed =
        ChunkedCodec(CodecId::kLz4Style, 1, written).compress(data);
    EXPECT_EQ(ChunkedCodec::decode(packed), data) << written;
    EXPECT_EQ(ChunkedCodec::decode(packed, &pool), data) << written;
    for (const std::size_t reader : {std::size_t{4096}, std::size_t{32768},
                                     std::size_t{1} << 20,
                                     std::size_t{4} << 20}) {
      if (reader == written) continue;
      EXPECT_EQ(ChunkedCodec(CodecId::kLz4Style, 1, reader).decompress(packed),
                data)
          << "written=" << written << " reader=" << reader;
    }
  }
}

TEST(Chunked, ExceptionFromWorkerPropagates) {
  const ChunkedCodec codec(CodecId::kDeflateStyle, 1, 64);
  const Bytes data = test_data(4096, 15);
  Bytes packed = codec.compress(data);
  // Corrupt a middle chunk: the parallel decompress must rethrow.
  packed[packed.size() / 2] ^= std::byte{0xFF};
  exec::TaskPool pool(4);
  EXPECT_THROW((void)codec.decompress(packed, &pool), CodecError);
}

TEST(Chunked, InvalidConfigThrows) {
  EXPECT_THROW(ChunkedCodec(CodecId::kDeflateStyle, 1, 0), CodecError);
  EXPECT_THROW(ChunkedCodec(CodecId::kDeflateStyle, 0, 4096), CodecError);
}

TEST(Chunked, ChunkLevelInterfaceMatchesCompressBitExact) {
  // The incremental writer: begin() lays down the header and a zeroed
  // size table, each append_chunk() lands one stream at the end and
  // patches its entry, and the finished container is compress()'s bytes.
  const ChunkedCodec codec(CodecId::kDeflateStyle, 1, 10000);
  for (std::size_t size : {0u, 1u, 10000u, 35000u}) {
    const Bytes data = test_data(size, size + 21);
    const std::size_t k = codec.chunk_count(size);
    EXPECT_EQ(k, (size + 9999) / 10000);
    Bytes container = test_data(5, 1);  // begin() replaces old contents
    codec.begin(container, size);
    EXPECT_EQ(container.size(), ChunkedCodec::header_bytes(k));
    std::size_t covered = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const auto [offset, length] = codec.chunk_extent(size, j);
      EXPECT_EQ(offset, covered);
      covered += length;
      EXPECT_EQ(ChunkedCodec::chunk_stream_size(container, j), 0u);
      const std::size_t before = container.size();
      codec.append_chunk(container, data, j);
      EXPECT_EQ(ChunkedCodec::chunk_stream_size(container, j),
                container.size() - before);
    }
    EXPECT_EQ(covered, size);
    EXPECT_EQ(container, codec.compress(data)) << "size=" << size;
  }
  EXPECT_THROW((void)codec.chunk_extent(10000, 1), CodecError);
}

TEST(Chunked, AppendOutOfOrderThrows) {
  // A chunk lands only right after its predecessor, once, into a
  // container begun for the same input size.
  const ChunkedCodec codec(CodecId::kLz4Style, 1, 10000);
  const Bytes data = test_data(25000, 3);
  Bytes container;
  codec.begin(container, data.size());
  EXPECT_THROW(codec.append_chunk(container, data, 1), CodecError);
  codec.append_chunk(container, data, 0);
  EXPECT_THROW(codec.append_chunk(container, data, 0), CodecError);
  EXPECT_THROW(codec.append_chunk(container, ByteSpan(data).first(15000), 1),
               CodecError);
  codec.append_chunk(container, data, 1);
  codec.append_chunk(container, data, 2);
  EXPECT_EQ(container, codec.compress(data));
  EXPECT_THROW(codec.append_chunk(container, data, 3), CodecError);
  EXPECT_THROW((void)ChunkedCodec::chunk_stream_size(
                   ByteSpan(container).first(20), 1),
               CodecError);
}

TEST(Chunked, BegunContainerIsAllocatedOnce) {
  // begin() reserves each chunk at the codec's payload_reserve(), the
  // figure its own headroom check asks for. nlz4's is its worst case, so
  // random input (which expands) lands without moving the container, over
  // one chunk or several.
  Rng rng(5);
  Bytes noise((1u << 20) + 200);
  for (auto& b : noise) b = static_cast<std::byte>(rng.next_u64());
  for (const std::size_t chunk : {std::size_t{4} << 20, std::size_t{1} << 18}) {
    const ChunkedCodec lz4(CodecId::kLz4Style, 1, chunk);
    Bytes out;
    lz4.begin(out, noise.size());
    const std::byte* const data = out.data();
    for (std::size_t j = 0; j < lz4.chunk_count(noise.size()); ++j) {
      lz4.append_chunk(out, noise, j);
      EXPECT_EQ(out.data(), data) << "chunk=" << chunk << " j=" << j;
    }
    EXPECT_GT(out.size(), noise.size());
    EXPECT_EQ(out, lz4.compress(noise));
  }
  // ngzip keeps reserving the input size, which compressible input never
  // outgrows: less than nlz4 reserves, and never reallocated.
  const Bytes data = test_data(1u << 20, 6);
  const ChunkedCodec gz(CodecId::kDeflateStyle, 1, std::size_t{1} << 18);
  const ChunkedCodec lz4(CodecId::kLz4Style, 1, std::size_t{1} << 18);
  Bytes lz4_out;
  lz4.begin(lz4_out, data.size());
  Bytes out;
  gz.begin(out, data.size());
  const std::size_t capacity = out.capacity();
  EXPECT_LT(capacity, lz4_out.capacity());
  for (std::size_t j = 0; j < gz.chunk_count(data.size()); ++j) {
    gz.append_chunk(out, data, j);
  }
  EXPECT_EQ(out.capacity(), capacity);
  EXPECT_EQ(gz.decompress(out), data);
}

TEST(Chunked, CompressInsidePoolWorkerRunsInlineAndMatches) {
  // decompress(framed, &pool) called from a task of that pool is a nested
  // batch: it runs inline and still returns the input. compress() is a
  // serial loop, so it is safe anywhere.
  const ChunkedCodec codec(CodecId::kLz4Style, 1, 8192);
  const Bytes data = test_data(100000, 17);
  const Bytes outside = codec.compress(data);
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::TaskPool pool(threads);
    std::vector<Bytes> inside(3);
    pool.parallel_for(inside.size(), [&](std::size_t i) {
      inside[i] = codec.compress(data);
      if (codec.decompress(inside[i], &pool) != data) inside[i].clear();
    });
    for (const Bytes& b : inside) {
      EXPECT_EQ(b, outside) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ndpcr::compress
