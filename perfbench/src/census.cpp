#include "census.hpp"

#include "compress/chunked.hpp"
#include "compress/probe.hpp"

namespace perfbench {

namespace compress = ndpcr::compress;

namespace {

// The compress.choice.* counts every census reports, zeros included.
constexpr const char* kChoiceNames[] = {
    "compress.choice.null", "compress.choice.nlz4",
    "compress.choice.nlz4-accel", "compress.choice.ngzip"};

}  // namespace

void IoCensus::merge(const IoCensus& other) {
  for (const auto& [name, count] : other.choice) choice[name] += count;
  stored_bytes += other.stored_bytes;
  original_bytes += other.original_bytes;
  replay_bytes += other.replay_bytes;
  replay_seconds += other.replay_seconds;
  probe_accel += other.probe_accel;
  ok = ok && other.ok;
}

void IoCensus::record(std::map<std::string, double>& exact) const {
  for (const auto& [name, count] : choice) exact[name] = count;
  exact["compress.probe.nlz4-accel"] = static_cast<double>(probe_accel);
  exact["io_bytes_per_byte"] = static_cast<double>(stored_bytes) /
                               static_cast<double>(original_bytes);
}

IoCensus census_io(const ndpcr::ckpt::KvStore& io, std::uint32_t ranks,
                   std::size_t chunk_bytes, bool replay, Probe& probe) {
  IoCensus out;
  for (const char* name : kChoiceNames) out.choice[name] = 0.0;
  for (std::uint32_t rank = 0; rank < ranks; ++rank) {
    for (const std::uint64_t id : io.list(rank)) {
      const auto stored = io.get(rank, id);
      if (!stored.ok()) {
        out.ok = false;
        continue;
      }
      const ndpcr::ByteSpan bytes(*stored);
      out.stored_bytes += bytes.size();
      const auto header = compress::ChunkedCodec::peek(bytes);
      if (!header) {  // raw image: the null codec
        out.choice["compress.choice.null"] += 1;
        out.original_bytes += bytes.size();
        continue;
      }
      out.original_bytes += header->original_size;
      const bool lz4 = header->id == compress::CodecId::kLz4Style;
      if (!lz4 && header->id != compress::CodecId::kDeflateStyle) {
        out.ok = false;  // no other codec is configured anywhere
        continue;
      }
      if (!lz4) {
        out.choice["compress.choice.ngzip"] += 1;
        if (!replay) continue;
      }
      try {
        const compress::ChunkedCodec plain(header->id, header->level,
                                           chunk_bytes, 1);
        const ndpcr::Bytes image = plain.decompress(bytes);
        if (lz4 && compress::choose_codec(ndpcr::ByteSpan(image)).accelerate) {
          ++out.probe_accel;
        }
        bool matched = false;
        for (const bool accel : {false, true}) {
          if (matched || (accel && !lz4)) continue;
          const compress::ChunkedCodec codec(header->id, header->level,
                                             chunk_bytes, 1, accel);
          Probe::Scope scope(probe, "compress.replay", "compress");
          const ndpcr::Bytes again = codec.compress(ndpcr::ByteSpan(image));
          const double seconds = scope.stop();
          matched = again == *stored;
          if (!matched) continue;
          out.replay_seconds += seconds;
          out.replay_bytes += image.size();
          if (lz4) {
            out.choice[accel ? "compress.choice.nlz4-accel"
                             : "compress.choice.nlz4"] += 1;
          }
        }
        if (!matched) out.ok = false;
      } catch (const compress::CodecError&) {
        out.ok = false;
      }
    }
  }
  return out;
}

}  // namespace perfbench
