#pragma once

// Region registration: the application-facing capture API. An application
// registers the memory regions that constitute its restartable state (the
// moral equivalent of BLCR walking a process's address space); capture()
// snapshots them into an image payload and restore() copies a payload back.
//
// Incremental checkpointing happens below this layer, on whole payloads
// (delta::DeltaCodec chains, docs/DELTA.md): capture() is a plain copy.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/image.hpp"
#include "common/bytes.hpp"

namespace ndpcr::ckpt {

class RegionRegistry {
 public:
  // Register a region. The pointer must stay valid (and the size fixed)
  // for the registry's lifetime; capture()/restore() throw ImageError if
  // a live-size check (available for register_vector targets) detects a
  // resize. Names must be unique; they are recorded in the payload and
  // validated on restore.
  void register_region(std::string name, void* data, std::size_t size);

  // Vector registration keeps a live handle to the vector, so capture and
  // restore follow reallocations and *detect* resizes (a resized target
  // throws instead of silently reading stale extents).
  template <typename T>
  void register_vector(std::string name, std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T>* live = &v;
    register_region_impl(std::move(name), v.data(), v.size() * sizeof(T),
                         [live]() -> LiveExtent {
                           return {live->data(), live->size() * sizeof(T)};
                         });
  }

  // Snapshot all regions into a payload.
  [[nodiscard]] Bytes capture() const;

  // Copy a captured payload back into the registered regions. Throws
  // ImageError if the payload does not match the registered layout.
  void restore(ByteSpan payload) const;

  [[nodiscard]] std::size_t total_bytes() const;
  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

 private:
  struct LiveExtent {
    void* data;
    std::size_t size;
  };
  struct Region {
    std::string name;
    void* data;
    std::size_t size;
    // Null for raw registrations; vector registrations use it to follow
    // reallocations and detect resizes.
    std::function<LiveExtent()> live;
  };

  void register_region_impl(std::string name, void* data, std::size_t size,
                            std::function<LiveExtent()> live);
  // The region's current data pointer (following the live handle when one
  // exists); throws ImageError if the live size differs from the
  // registered size.
  static void* current_extent(const Region& region);

  std::vector<Region> regions_;
};

}  // namespace ndpcr::ckpt
