#include "compress/scratch.hpp"

namespace ndpcr::compress {

std::unique_ptr<CodecScratch> ScratchPool::take() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto scratch = std::move(free_.back());
      free_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<CodecScratch>();
}

void ScratchPool::give(std::unique_ptr<CodecScratch> scratch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(scratch));
}

}  // namespace ndpcr::compress
