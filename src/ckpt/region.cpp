#include "ckpt/region.hpp"

#include <cstring>

#include "delta/delta.hpp"

namespace ndpcr::ckpt {
namespace {

constexpr std::uint32_t kDeltaMagic = 0x4E445244;  // "NDRD"

// Order-sensitive FNV-style fold of per-region content hashes: the digest
// a delta payload pins its base with.
std::uint64_t fold_digest(std::uint64_t h, std::uint64_t region_hash) {
  h ^= region_hash;
  h *= 0x100000001b3ull;
  return h;
}

constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

// One parsed region record of a full payload (count + per-region
// name/size/bytes), shared by restore parsing and apply_delta.
struct ParsedRegion {
  std::string_view name;
  std::size_t size = 0;
  ByteSpan bytes;
};

std::vector<ParsedRegion> parse_full_payload(ByteSpan payload) {
  std::size_t pos = 0;
  auto need = [&](std::size_t n) {
    if (pos + n > payload.size()) {
      throw ImageError("truncated region payload");
    }
  };
  need(4);
  const auto count = read_le<std::uint32_t>(payload, pos);
  pos += 4;
  std::vector<ParsedRegion> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ParsedRegion r;
    need(4);
    const auto name_len = read_le<std::uint32_t>(payload, pos);
    pos += 4;
    need(name_len);
    r.name = std::string_view(
        reinterpret_cast<const char*>(payload.data() + pos), name_len);
    pos += name_len;
    need(8);
    r.size = read_le<std::uint64_t>(payload, pos);
    pos += 8;
    need(r.size);
    r.bytes = payload.subspan(pos, r.size);
    pos += r.size;
    out.push_back(r);
  }
  if (pos != payload.size()) {
    throw ImageError("trailing bytes in region payload");
  }
  return out;
}

}  // namespace

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

void RegionRegistry::mark_dirty(std::string_view name) {
  for (auto& r : regions_) {
    if (r.name == name) {
      r.dirty = true;
      return;
    }
  }
  throw ImageError("mark_dirty: unknown region '" + std::string(name) + "'");
}

std::uint64_t RegionRegistry::base_digest() const {
  std::uint64_t h = kDigestSeed;
  for (const auto& r : regions_) h = fold_digest(h, r.content_hash);
  return h;
}

Bytes RegionRegistry::capture() {
  Bytes out;
  out.reserve(total_bytes() + 64 * regions_.size());
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(regions_.size()));
  for (auto& r : regions_) {
    const void* data = current_extent(r);
    append_le<std::uint32_t>(out, static_cast<std::uint32_t>(r.name.size()));
    for (char c : r.name) out.push_back(static_cast<std::byte>(c));
    append_le<std::uint64_t>(out, r.size);
    const std::size_t offset = out.size();
    // insert, not resize + memcpy: one pass over the region, no zero fill.
    const auto* bytes = static_cast<const std::byte*>(data);
    out.insert(out.end(), bytes, bytes + r.size);
    r.content_hash = delta::block_hash(ByteSpan(out).subspan(offset, r.size));
    r.dirty = false;
  }
  has_base_ = true;
  return out;
}

Bytes RegionRegistry::capture_delta(DeltaCaptureStats* stats) {
  if (!has_base_) {
    throw ImageError("capture_delta before any full capture");
  }
  DeltaCaptureStats local;
  local.regions_total = regions_.size();

  // Decide dirtiness first, against the *pre-capture* hashes: the digest
  // must describe the base this delta applies to.
  const std::uint64_t digest = base_digest();
  std::vector<const void*> data(regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Region& r = regions_[i];
    data[i] = current_extent(r);
    if (!r.dirty && tracking_ == DirtyTracking::kHashSweep) {
      const std::uint64_t now = delta::block_hash(
          ByteSpan(static_cast<const std::byte*>(data[i]), r.size));
      if (now != r.content_hash) r.dirty = true;
    }
  }

  Bytes out;
  append_le<std::uint32_t>(out, kDeltaMagic);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(regions_.size()));
  append_le<std::uint64_t>(out, digest);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Region& r = regions_[i];
    append_le<std::uint32_t>(out, static_cast<std::uint32_t>(r.name.size()));
    for (char c : r.name) out.push_back(static_cast<std::byte>(c));
    append_le<std::uint64_t>(out, r.size);
    out.push_back(static_cast<std::byte>(r.dirty ? 1 : 0));
    if (r.dirty) {
      const std::size_t offset = out.size();
      const auto* bytes = static_cast<const std::byte*>(data[i]);
      out.insert(out.end(), bytes, bytes + r.size);
      r.content_hash =
          delta::block_hash(ByteSpan(out).subspan(offset, r.size));
      r.dirty = false;
      ++local.regions_included;
      local.included_bytes += r.size;
    } else {
      local.skipped_bytes += r.size;
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

bool RegionRegistry::is_delta_payload(ByteSpan payload) {
  return payload.size() >= 4 &&
         read_le<std::uint32_t>(payload, 0) == kDeltaMagic;
}

Bytes RegionRegistry::apply_delta(ByteSpan base_payload,
                                  ByteSpan delta_payload) {
  const std::vector<ParsedRegion> base = parse_full_payload(base_payload);

  std::size_t pos = 0;
  auto need = [&](std::size_t n) {
    if (pos + n > delta_payload.size()) {
      throw ImageError("truncated region delta payload");
    }
  };
  need(16);
  if (read_le<std::uint32_t>(delta_payload, 0) != kDeltaMagic) {
    throw ImageError("not a region delta payload");
  }
  const auto count = read_le<std::uint32_t>(delta_payload, 4);
  const auto digest = read_le<std::uint64_t>(delta_payload, 8);
  pos = 16;
  if (count != base.size()) {
    throw ImageError("region count mismatch between base and delta");
  }
  std::uint64_t base_hash = kDigestSeed;
  for (const auto& r : base) {
    base_hash = fold_digest(base_hash, delta::block_hash(r.bytes));
  }
  if (base_hash != digest) {
    throw ImageError("region delta applied against the wrong base");
  }

  Bytes out;
  out.reserve(base_payload.size());
  append_le<std::uint32_t>(out, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    need(4);
    const auto name_len = read_le<std::uint32_t>(delta_payload, pos);
    pos += 4;
    need(name_len);
    const std::string_view name(
        reinterpret_cast<const char*>(delta_payload.data() + pos), name_len);
    pos += name_len;
    need(8);
    const auto size = read_le<std::uint64_t>(delta_payload, pos);
    pos += 8;
    need(1);
    const bool present = delta_payload[pos] != std::byte{0};
    pos += 1;
    if (name != base[i].name || size != base[i].size) {
      throw ImageError("region layout mismatch between base and delta");
    }
    append_le<std::uint32_t>(out, name_len);
    for (char c : name) out.push_back(static_cast<std::byte>(c));
    append_le<std::uint64_t>(out, size);
    if (present) {
      need(size);
      out.insert(out.end(), delta_payload.begin() + pos,
                 delta_payload.begin() + pos + size);
      pos += size;
    } else {
      out.insert(out.end(), base[i].bytes.begin(), base[i].bytes.end());
    }
  }
  if (pos != delta_payload.size()) {
    throw ImageError("trailing bytes in region delta payload");
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
