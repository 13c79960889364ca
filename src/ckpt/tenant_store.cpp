#include "ckpt/tenant_store.hpp"

#include <utility>

namespace ndpcr::ckpt {

StoreStatus TenantStoreView::put(std::uint32_t rank,
                                 std::uint64_t checkpoint_id, Bytes data) {
  if (quota_ != nullptr && !quota_->charge_write(data.size())) {
    return StoreStatus::failure(StoreErrorKind::kPermanent,
                                "tenant IO quota exhausted");
  }
  return inner().put(offset_ + rank, checkpoint_id, std::move(data));
}

StoreResult<Bytes> TenantStoreView::get(std::uint32_t rank,
                                        std::uint64_t checkpoint_id) const {
  if (quota_ != nullptr) quota_->charge_read();
  return inner().get(offset_ + rank, checkpoint_id);
}

StoreResult<EntryDigest> TenantStoreView::digest(
    std::uint32_t rank, std::uint64_t checkpoint_id) const {
  if (quota_ != nullptr) quota_->charge_read();
  return inner().digest(offset_ + rank, checkpoint_id);
}

bool TenantStoreView::contains(std::uint32_t rank,
                               std::uint64_t checkpoint_id) const {
  return inner().contains(offset_ + rank, checkpoint_id);
}

std::optional<std::uint64_t> TenantStoreView::newest_id(
    std::uint32_t rank) const {
  return inner().newest_id(offset_ + rank);
}

std::vector<std::uint64_t> TenantStoreView::list(std::uint32_t rank) const {
  return inner().list(offset_ + rank);
}

void TenantStoreView::erase(std::uint32_t rank,
                            std::uint64_t checkpoint_id) {
  inner().erase(offset_ + rank, checkpoint_id);
}

bool TenantStoreView::corrupt_entry(std::uint32_t rank,
                                    std::uint64_t checkpoint_id,
                                    std::uint64_t salt) {
  return inner().corrupt_entry(offset_ + rank, checkpoint_id, salt);
}

void TenantStoreView::clear() {
  for (std::uint32_t rank = 0; rank < rank_count_; ++rank) {
    for (const std::uint64_t id : inner().list(offset_ + rank)) {
      inner().erase(offset_ + rank, id);
    }
  }
}

}  // namespace ndpcr::ckpt
