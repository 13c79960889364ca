#include "compress/chunked.hpp"

#include <cstring>
#include <vector>

#include "common/buffer_pool.hpp"
#include "compress/lz4_style.hpp"
#include "exec/task_pool.hpp"

namespace ndpcr::compress {
namespace {

constexpr std::uint32_t kMagic = 0x4E44434B;  // "NDCK"
constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 4 + 8;

}  // namespace

ChunkedCodec::ChunkedCodec(CodecId id, int level, std::size_t chunk_size,
                           unsigned /*ignored*/, bool accelerate)
    : id_(id),
      level_(level),
      accelerate_(accelerate),
      chunk_size_(chunk_size),
      codec_(make_codec(id, level)) {  // validates id/level eagerly
  if (chunk_size == 0) {
    throw CodecError("chunk size must be positive");
  }
  if (accelerate) {
    if (id != CodecId::kLz4Style) {
      throw CodecError("acceleration is only available for nlz4");
    }
    codec_ = std::make_unique<Lz4StyleCodec>(level, /*accelerate=*/true);
  }
}

std::size_t ChunkedCodec::chunk_count(std::size_t input_size) const {
  return input_size == 0 ? 0 : (input_size + chunk_size_ - 1) / chunk_size_;
}

std::pair<std::size_t, std::size_t> ChunkedCodec::chunk_extent(
    std::size_t input_size, std::size_t index) const {
  const std::size_t offset = index * chunk_size_;
  if (offset >= input_size) {
    throw CodecError("chunk index out of range");
  }
  return {offset, std::min(chunk_size_, input_size - offset)};
}

void ChunkedCodec::begin(Bytes& out, std::size_t input_size) const {
  const std::size_t count = chunk_count(input_size);
  out.clear();
  // Room for every chunk stream at the codec's payload_reserve(), the
  // figure its own headroom check asks for, so no chunk reallocates the
  // container. For nlz4 that is its worst case, so not even incompressible
  // input moves it; ngzip reserves the input size (docs/PERF.md,
  // "Container reservation").
  std::size_t room = header_bytes(count) + count * kFrameHeaderSize;
  for (std::size_t i = 0; i < count; ++i) {
    room += codec_->payload_reserve(chunk_extent(input_size, i).second);
  }
  // The room depends only on the input size, so a container the stores
  // retired serves the next one begun for the same size. Only inputs the
  // pool serves (captures, full images) get pooled containers: one per
  // content-sized input (a delta image, a dedup block) would leave a bin
  // per size ever seen (common/buffer_pool.hpp).
  if (out.capacity() != room) {
    BufferPool& pool = BufferPool::global();
    pool.retire(std::move(out));
    out = pool.serves(input_size) ? pool.acquire(room) : Bytes{};
    out.reserve(room);
  }
  append_le<std::uint32_t>(out, kMagic);
  out.push_back(static_cast<std::byte>(id_));
  out.push_back(static_cast<std::byte>(level_));
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(count));
  append_le<std::uint64_t>(out, input_size);
  out.resize(header_bytes(count), std::byte{0});
}

void ChunkedCodec::append_chunk(Bytes& out, ByteSpan input,
                                std::size_t index) const {
  const auto [offset, len] = chunk_extent(input.size(), index);
  // A stream is never empty (it carries a frame header), so a zero entry
  // marks a chunk not yet appended.
  const std::size_t entry = kHeaderSize + index * 8;
  if (out.size() < header_bytes(chunk_count(input.size())) ||
      read_le<std::uint32_t>(out, 6) != chunk_count(input.size()) ||
      read_le<std::uint64_t>(out, entry) != 0 ||
      (index > 0 && read_le<std::uint64_t>(out, entry - 8) == 0)) {
    throw CodecError("chunk appended out of order");
  }
  const std::size_t start = out.size();
  codec_->compress_append(input.subspan(offset, len), out);
  const std::uint64_t size = out.size() - start;
  std::memcpy(out.data() + entry, &size, sizeof size);  // as append_le
}

std::size_t ChunkedCodec::chunk_stream_size(ByteSpan container,
                                            std::size_t index) {
  if (container.size() < kHeaderSize + (index + 1) * 8) {
    throw CodecError("chunked stream truncated");
  }
  return read_le<std::uint64_t>(container, kHeaderSize + index * 8);
}

std::size_t ChunkedCodec::header_bytes(std::size_t chunk_count) {
  return kHeaderSize + chunk_count * 8;
}

std::optional<ChunkedCodec::Header> ChunkedCodec::peek(ByteSpan framed) {
  if (framed.size() < kHeaderSize) return std::nullopt;
  if (read_le<std::uint32_t>(framed, 0) != kMagic) return std::nullopt;
  const auto id_byte = static_cast<std::uint8_t>(framed[4]);
  if (id_byte > static_cast<std::uint8_t>(CodecId::kXzStyle)) {
    return std::nullopt;
  }
  Header h;
  h.id = static_cast<CodecId>(id_byte);
  h.level = static_cast<int>(static_cast<std::uint8_t>(framed[5]));
  h.chunk_count = read_le<std::uint32_t>(framed, 6);
  h.original_size = read_le<std::uint64_t>(framed, 10);
  return h;
}

Bytes ChunkedCodec::compress(ByteSpan input) const {
  Bytes out;
  begin(out, input.size());
  for (std::size_t i = 0; i < chunk_count(input.size()); ++i) {
    append_chunk(out, input, i);
  }
  return out;
}

Bytes ChunkedCodec::decompress(ByteSpan framed, exec::TaskPool* pool) const {
  if (const auto header = peek(framed); header && header->id != id_) {
    throw CodecError("chunked stream codec mismatch");
  }
  return decode(framed, pool);
}

Bytes ChunkedCodec::decode(ByteSpan framed, exec::TaskPool* pool) {
  if (framed.size() < kHeaderSize) {
    throw CodecError("chunked stream truncated");
  }
  if (read_le<std::uint32_t>(framed, 0) != kMagic) {
    throw CodecError("not a chunked stream");
  }
  const std::unique_ptr<Codec> codec =  // validates the id and level
      make_codec(static_cast<CodecId>(framed[4]),
                 static_cast<int>(static_cast<std::uint8_t>(framed[5])));
  const auto chunks = read_le<std::uint32_t>(framed, 6);
  const auto original_size = read_le<std::uint64_t>(framed, 10);
  if (framed.size() < kHeaderSize + std::size_t{chunks} * 8) {
    throw CodecError("chunked stream truncated");
  }

  // Each chunk's output length is the original size in its own frame, so
  // the writer's chunk size is implied. The lengths must be a fixed-size
  // split - chunk 0's L > 0 for all but the last, the last in (0, L] -
  // summing to the header's size, checked before the output is allocated.
  std::vector<std::pair<std::size_t, std::size_t>> extents(chunks);
  std::size_t offset = kHeaderSize + std::size_t{chunks} * 8;
  std::uint64_t chunk_len = 0;  // L
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < chunks; ++i) {
    const auto size = read_le<std::uint64_t>(framed, kHeaderSize + i * 8);
    // offset <= framed.size() holds here, so the subtraction cannot wrap
    // (`offset + size` could, for a size near 2^64). A chunk stream holds
    // at least its frame header.
    if (size > framed.size() - offset || size < kFrameHeaderSize) {
      throw CodecError("chunked stream truncated");
    }
    const auto len = read_le<std::uint64_t>(framed, offset + 3);
    if (i == 0) chunk_len = len;
    if (len == 0 || len > chunk_len || len > original_size - total ||
        (len != chunk_len && i + 1 < chunks)) {
      throw CodecError("chunked stream size mismatch");
    }
    extents[i] = {offset, size};
    offset += size;
    total += len;
  }
  if (offset != framed.size()) {
    throw CodecError("trailing bytes in chunked stream");
  }
  if (total != original_size) {
    throw CodecError("chunked stream size mismatch");
  }
  if (!plausible_decoded_size(original_size, framed.size())) {
    throw CodecError("implausible declared size in compressed stream");
  }

  // Tasks decode straight into their chunk's window of the final buffer:
  // no per-chunk output vectors and no serial reassembly copy.
  Bytes out(original_size);
  const auto decode_chunk = [&](std::size_t i) {
    const std::size_t at = i * chunk_len;
    codec->decompress_into(
        framed.subspan(extents[i].first, extents[i].second), out.data() + at,
        std::min<std::uint64_t>(chunk_len, original_size - at));
  };
  // No pool given: decode inline, on a pool with no workers (which keeps
  // no batch state, so every thread may share it).
  static exec::TaskPool inline_pool(1);
  (pool ? *pool : inline_pool).parallel_for(chunks, decode_chunk);
  return out;
}

}  // namespace ndpcr::compress
