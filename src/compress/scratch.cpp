#include "compress/scratch.hpp"

#include <stdexcept>

namespace ndpcr::compress {
namespace {

thread_local bool t_held = false;

}  // namespace

ThreadScratch::ThreadScratch() {
  static thread_local CodecScratch scratch;
  if (t_held) {
    throw std::logic_error("nested codec call on one thread");
  }
  t_held = true;
  scratch_ = &scratch;
}

ThreadScratch::~ThreadScratch() { t_held = false; }

}  // namespace ndpcr::compress
