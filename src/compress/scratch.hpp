#pragma once

// Per-thread codec workspace. Every codec allocates the same few large
// structures per call - MatchFinder hash tables, Huffman decode tables,
// staging buffers - and on the chunked data path those calls happen once
// per chunk, so the allocations (and the page faults behind them) used to
// dominate the fast codecs. CodecScratch keeps them alive across calls:
// codecs reset or resize in place and reallocate only when a larger input
// arrives. Each thread owns one workspace, which every codec instance it
// calls shares (eight NDP agents pumped on one thread keep one set of
// tables, a pool of N workers keeps N). A workspace holds no state between
// calls, so a stream never depends on which calls came before it.

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "compress/huffman.hpp"

namespace ndpcr::compress {

struct CodecScratch {
  // MatchFinder storage: head is re-filled per use, prev only resized
  // (stale entries are unreachable once head is cleared).
  std::vector<std::uint32_t> match_head;
  std::vector<std::uint32_t> match_prev;
  // Parsed LZSS items, packed literal | length << 8 | distance << 20.
  std::vector<std::uint64_t> items;
  // Huffman decode tables, rebuilt in place per block via init().
  HuffmanDecoder lit_decoder;
  HuffmanDecoder dist_decoder;
  std::vector<std::uint8_t> code_lengths;
  // Block staging buffers (bzip2-style MTF stream and L column).
  Bytes staging;
  Bytes staging2;
  std::vector<std::uint32_t> u32_tmp;
};

// The calling thread's workspace, held for one codec entry point (the
// Codec methods take it; nothing else needs to). Entry points never nest
// on one thread: a nested hold would hand the outer call's live tables to
// the inner one, so it throws std::logic_error instead. The check is one
// thread-local flag, so it stays on in optimised builds, where the tests
// run.
class ThreadScratch {
 public:
  ThreadScratch();
  ~ThreadScratch();
  ThreadScratch(const ThreadScratch&) = delete;
  ThreadScratch& operator=(const ThreadScratch&) = delete;

  [[nodiscard]] CodecScratch& operator*() const { return *scratch_; }

 private:
  CodecScratch* scratch_;
};

}  // namespace ndpcr::compress
