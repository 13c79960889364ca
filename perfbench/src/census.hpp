#pragma once

// IO-level census: walks the entries a work unit left on an IO store and
// reads each one's codec from its ChunkedCodec header (ChunkedCodec::peek).
// The header records the codec id and level but not nlz4's accelerated
// mode, so every LZ4 entry is decoded and compressed again, plain and then
// accelerated, until the bytes match what is stored; no match is a
// correctness miss. Each decoded LZ4 image is also run through
// compress::choose_codec, the probe the adaptive commit path consults.
// With `replay`, ngzip entries are re-encoded and checked the same way.
// The re-encodes run single-threaded with the stored codec, which is what
// compress.replay_mib_s times.

#include <cstdint>
#include <map>
#include <string>

#include "ckpt/stores.hpp"
#include "harness.hpp"

namespace perfbench {

struct IoCensus {
  std::map<std::string, double> choice;  // compress.choice.<codec> counts
  std::uint64_t probe_accel = 0;  // LZ4 entries the probe would accelerate
  std::uint64_t stored_bytes = 0;
  std::uint64_t original_bytes = 0;
  std::uint64_t replay_bytes = 0;
  double replay_seconds = 0.0;
  bool ok = true;  // every entry decoded (and re-encoded identically)

  void merge(const IoCensus& other);
  // Adds the exact counts: compress.choice.*, compress.probe.nlz4-accel
  // and io_bytes_per_byte (stored over original bytes).
  void record(std::map<std::string, double>& exact) const;
};

// `chunk_bytes` is the container chunk size the writer used.
IoCensus census_io(const ndpcr::ckpt::KvStore& io, std::uint32_t ranks,
                   std::size_t chunk_bytes, bool replay, Probe& probe);

}  // namespace perfbench
