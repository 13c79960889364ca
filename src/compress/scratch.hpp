#pragma once

// Reusable codec workspaces. Every codec allocates the same few large
// structures per call - MatchFinder hash tables, Huffman decode tables,
// staging buffers - and on the chunked data path those calls happen once
// per chunk, so the allocations (and the page faults behind them) used to
// dominate the fast codecs. CodecScratch keeps them alive across calls:
// codecs reset or resize in place and reallocate only when a larger input
// arrives. ScratchPool hands workspaces to concurrent workers; ChunkedCodec
// (and through it MultilevelManager's IO leg and NdpAgent's drain) holds
// one pool.

#include <cstdint>
#include <memory>
#include <mutex>
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

// A mutex-guarded freelist of CodecScratch instances. acquire() pops one
// (or creates it on a miss) and the returned Lease gives it back on
// destruction, so a pool serving N concurrent workers converges on N live
// workspaces regardless of how many chunks pass through.
class ScratchPool {
 public:
  class Lease {
   public:
    explicit Lease(ScratchPool& pool) : pool_(&pool), scratch_(pool.take()) {}
    ~Lease() {
      if (scratch_) pool_->give(std::move(scratch_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), scratch_(std::move(other.scratch_)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    [[nodiscard]] CodecScratch& operator*() const { return *scratch_; }
    [[nodiscard]] CodecScratch* operator->() const { return scratch_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<CodecScratch> scratch_;
  };

  [[nodiscard]] Lease acquire() { return Lease(*this); }

 private:
  std::unique_ptr<CodecScratch> take();
  void give(std::unique_ptr<CodecScratch> scratch);

  std::mutex mutex_;
  std::vector<std::unique_ptr<CodecScratch>> free_;
};

}  // namespace ndpcr::compress
