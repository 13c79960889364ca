#include "ckpt/region.hpp"

#include <cstring>

#include "common/buffer_pool.hpp"

namespace ndpcr::ckpt {

void RegionRegistry::register_region(std::string name, void* data,
                                     std::size_t size) {
  register_region_impl(std::move(name), data, size, nullptr);
}

void RegionRegistry::register_region_impl(std::string name, void* data,
                                          std::size_t size,
                                          std::function<LiveExtent()> live) {
  for (const auto& r : regions_) {
    if (r.name == name) {
      throw ImageError("duplicate region name: " + name);
    }
  }
  Region region;
  region.name = std::move(name);
  region.data = data;
  region.size = size;
  region.live = std::move(live);
  regions_.push_back(std::move(region));
}

void* RegionRegistry::current_extent(const Region& region) {
  if (!region.live) return region.data;
  const LiveExtent extent = region.live();
  if (extent.size != region.size) {
    throw ImageError("region '" + region.name +
                     "' resized since registration (" +
                     std::to_string(region.size) + " -> " +
                     std::to_string(extent.size) + " bytes)");
  }
  return extent.data;
}

Bytes RegionRegistry::capture() const {
  // Exactly the payload's size, so the buffer a store retires serves the
  // next capture of the same layout (common/buffer_pool.hpp).
  std::size_t size = 4;
  for (const auto& r : regions_) size += 4 + r.name.size() + 8 + r.size;
  Bytes out = BufferPool::global().acquire(size);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(regions_.size()));
  for (const auto& r : regions_) {
    const void* data = current_extent(r);
    append_le<std::uint32_t>(out, static_cast<std::uint32_t>(r.name.size()));
    for (char c : r.name) out.push_back(static_cast<std::byte>(c));
    append_le<std::uint64_t>(out, r.size);
    // insert, not resize + memcpy: one pass over the region, no zero fill.
    const auto* bytes = static_cast<const std::byte*>(data);
    out.insert(out.end(), bytes, bytes + r.size);
  }
  return out;
}

void RegionRegistry::restore(ByteSpan payload) const {
  std::size_t pos = 0;
  auto need = [&](std::size_t n) {
    if (pos + n > payload.size()) {
      throw ImageError("truncated region payload");
    }
  };
  need(4);
  const auto count = read_le<std::uint32_t>(payload, pos);
  pos += 4;
  if (count != regions_.size()) {
    throw ImageError("region count mismatch on restore");
  }
  for (const auto& r : regions_) {
    void* data = current_extent(r);
    need(4);
    const auto name_len = read_le<std::uint32_t>(payload, pos);
    pos += 4;
    need(name_len);
    if (name_len != r.name.size() ||
        std::memcmp(payload.data() + pos, r.name.data(), name_len) != 0) {
      throw ImageError("region name mismatch on restore");
    }
    pos += name_len;
    need(8);
    const auto size = read_le<std::uint64_t>(payload, pos);
    pos += 8;
    if (size != r.size) {
      throw ImageError("region size mismatch on restore");
    }
    need(size);
    std::memcpy(data, payload.data() + pos, size);
    pos += size;
  }
  if (pos != payload.size()) {
    throw ImageError("trailing bytes in region payload");
  }
}

std::size_t RegionRegistry::total_bytes() const {
  std::size_t total = 0;
  for (const auto& r : regions_) total += r.size;
  return total;
}

}  // namespace ndpcr::ckpt
