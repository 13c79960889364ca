#include "compress/chunked.hpp"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "compress/lz4_style.hpp"
#include "exec/task_pool.hpp"

namespace ndpcr::compress {
namespace {

constexpr std::uint32_t kMagic = 0x4E44434B;  // "NDCK"
constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 4 + 8;

// Run `work(i)` for i in [0, count) on up to `threads` workers. Exceptions
// from workers are rethrown on the caller thread (first one wins).
template <typename Fn>
void parallel_for(std::size_t count, unsigned threads, Fn&& work) {
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) work(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        work(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::jthread> pool;
  const unsigned n = std::min<unsigned>(threads, static_cast<unsigned>(count));
  pool.reserve(n);
  for (unsigned w = 0; w < n; ++w) pool.emplace_back(worker);
  pool.clear();  // join
  if (error) std::rethrow_exception(error);
}

}  // namespace

ChunkedCodec::ChunkedCodec(CodecId id, int level, std::size_t chunk_size,
                           unsigned threads, bool accelerate)
    : id_(id),
      level_(level),
      accelerate_(accelerate),
      chunk_size_(chunk_size),
      threads_(threads),
      codec_(make_codec(id, level)),  // validates id/level eagerly
      scratch_(std::make_unique<ScratchPool>()) {
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

void ChunkedCodec::warm(std::size_t count) const { scratch_->warm(count); }

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

Bytes ChunkedCodec::compress_chunk(ByteSpan input, std::size_t index) const {
  // Codecs are stateless across calls; all per-call mutable state lives in
  // the leased workspace, so concurrent callers stay fully independent.
  const auto lease = scratch_->acquire();
  const auto [offset, len] = chunk_extent(input.size(), index);
  return codec_->compress(input.subspan(offset, len), *lease);
}

Bytes ChunkedCodec::assemble(std::size_t original_size,
                             const std::vector<Bytes>& chunks,
                             std::size_t first, std::size_t count) const {
  if (count == SIZE_MAX) count = chunks.size() - first;
  if (count != chunk_count(original_size)) {
    throw CodecError("chunk count does not match original size");
  }
  Bytes out;
  std::size_t total = header_bytes(count);
  for (std::size_t i = 0; i < count; ++i) total += chunks[first + i].size();
  out.reserve(total);
  append_le<std::uint32_t>(out, kMagic);
  out.push_back(static_cast<std::byte>(id_));
  out.push_back(static_cast<std::byte>(level_));
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(count));
  append_le<std::uint64_t>(out, original_size);
  for (std::size_t i = 0; i < count; ++i) {
    append_le<std::uint64_t>(out, chunks[first + i].size());
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Bytes& c = chunks[first + i];
    out.insert(out.end(), c.begin(), c.end());
  }
  return out;
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
  const std::size_t chunks = chunk_count(input.size());
  std::vector<Bytes> compressed(chunks);

  // Inside an exec::TaskPool worker nested parallelism is rejected, so the
  // internal pool degrades to inline execution (same bytes either way).
  const unsigned threads = exec::TaskPool::in_worker() ? 1 : threads_;
  parallel_for(chunks, threads, [&](std::size_t i) {
    compressed[i] = compress_chunk(input, i);
  });

  return assemble(input.size(), compressed);
}

Bytes ChunkedCodec::decompress(ByteSpan framed) const {
  if (framed.size() < kHeaderSize) {
    throw CodecError("chunked stream truncated");
  }
  if (read_le<std::uint32_t>(framed, 0) != kMagic) {
    throw CodecError("not a chunked stream");
  }
  if (framed[4] != static_cast<std::byte>(id_)) {
    throw CodecError("chunked stream codec mismatch");
  }
  const auto chunks = read_le<std::uint32_t>(framed, 6);
  const auto original_size = read_le<std::uint64_t>(framed, 10);
  if (framed.size() < kHeaderSize + std::size_t{chunks} * 8) {
    throw CodecError("chunked stream truncated");
  }

  std::vector<std::pair<std::size_t, std::size_t>> extents(chunks);
  std::size_t offset = kHeaderSize + std::size_t{chunks} * 8;
  for (std::uint32_t i = 0; i < chunks; ++i) {
    const auto size = read_le<std::uint64_t>(framed, kHeaderSize + i * 8);
    if (offset + size > framed.size()) {
      throw CodecError("chunked stream truncated");
    }
    extents[i] = {offset, size};
    offset += size;
  }
  if (offset != framed.size()) {
    throw CodecError("trailing bytes in chunked stream");
  }

  // The chunk count doubles as a validator for the declared size: both
  // must agree before the output buffer is allocated eagerly, which also
  // bounds the allocation a corrupted header can request (the size table
  // already had to fit in the stream).
  if (chunks != chunk_count(original_size)) {
    throw CodecError("chunked stream size mismatch");
  }

  // Workers decode straight into their chunk's window of the final buffer:
  // no per-chunk output vectors and no serial reassembly copy.
  Bytes out(original_size);
  const unsigned threads = exec::TaskPool::in_worker() ? 1 : threads_;
  parallel_for(chunks, threads, [&](std::size_t i) {
    const auto [chunk_offset, chunk_len] = chunk_extent(original_size, i);
    const auto lease = scratch_->acquire();
    codec_->decompress_into(
        framed.subspan(extents[i].first, extents[i].second),
        out.data() + chunk_offset, chunk_len, *lease);
  });
  return out;
}

}  // namespace ndpcr::compress
