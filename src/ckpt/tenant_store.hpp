#pragma once

// Multi-tenant sharing seam for KvStores (docs/SERVICE.md). The service
// layer multiplexes many tenant sessions over one shared IO (and partner)
// device; each session's MultilevelManager keeps addressing ranks 0..N-1
// while the shared store sees every tenant in a disjoint rank namespace.
//
// TenantStoreView is a ForwardingKvStore (src/ckpt/stores.hpp) over the
// shared store that adds a rank offset and a quota: rank r of tenant t
// maps to rank t * kTenantRankStride + r of the shared store. Nothing is
// copied and no state lives in the view, so a tenant's writes are visible
// to a later view with the same tenant id (restart after a simulated
// process death) and invisible to every other tenant.
//
// StoreQuota meters a tenant's traffic through the seam. Budgets are
// lifetime write budgets (bytes moved and operations issued, not bytes
// resident): a facility grants each tenant so much IO, and when the grant
// is exhausted further *writes* are denied with a typed permanent
// StoreError - the manager's self-healing path then degrades that
// tenant's IO level and commits continue on the surviving levels. Reads
// are metered but never denied: a tenant over budget can always restart
// from what it already paid to store.

#include <cstdint>

#include "ckpt/stores.hpp"

namespace ndpcr::ckpt {

// Rank-namespace stride between tenants on a shared store. Managers
// address ranks far below this, so views can never collide.
inline constexpr std::uint32_t kTenantRankStride = 1u << 16;

// Stride between sub-slots inside one tenant's window. A tenant may hold
// several views of distinct roles over the same shared device (one per
// partner host space); each role gets its own 256-rank sub-namespace.
inline constexpr std::uint32_t kTenantSubSlotStride = 256;

struct StoreQuota {
  std::uint64_t byte_budget = 0;  // lifetime put bytes; 0 = unmetered
  std::uint64_t op_budget = 0;    // lifetime put+get ops; 0 = unmetered

  std::uint64_t bytes_charged = 0;
  std::uint64_t ops_charged = 0;
  std::uint64_t write_denials = 0;

  // Would a write of `bytes` exceed a budget? (Preview; charges nothing.)
  [[nodiscard]] bool would_deny(std::size_t bytes) const {
    return (byte_budget != 0 && bytes_charged + bytes > byte_budget) ||
           (op_budget != 0 && ops_charged + 1 > op_budget);
  }

  // Charge a write, or count the denial and return false.
  bool charge_write(std::size_t bytes) {
    if (would_deny(bytes)) {
      ++write_denials;
      return false;
    }
    bytes_charged += bytes;
    ++ops_charged;
    return true;
  }

  // Reads are charged against the op budget but never denied.
  void charge_read() { ++ops_charged; }

  // Fully spent: no byte (or op) of the grant remains. Weaker than
  // would_deny - a write can be denied for size while headroom remains.
  [[nodiscard]] bool exhausted() const {
    return (byte_budget != 0 && bytes_charged >= byte_budget) ||
           (op_budget != 0 && ops_charged >= op_budget);
  }
};

// A tenant's window onto a shared store: rank-offset forwarding plus
// quota enforcement. Every keyed operation (corrupt_entry included) lands
// on the tenant's own entries of `base`. The device-wide observers and
// the mutation gate forward unchanged: used_bytes() and count() report
// the whole shared device, and a gate installed through a view gates
// every tenant. Lifetime: the view borrows `base` and `quota` - the
// service owns both and keeps them alive for as long as any session
// exists.
class TenantStoreView final : public ForwardingKvStore {
 public:
  // `sub_slot` separates same-device roles within the tenant's window
  // (partner host spaces); rank_count must stay below
  // kTenantSubSlotStride.
  TenantStoreView(KvStore& base, std::uint32_t tenant_id,
                  std::uint32_t rank_count, StoreQuota* quota = nullptr,
                  std::uint32_t sub_slot = 0)
      : ForwardingKvStore(base),
        offset_(tenant_id * kTenantRankStride +
                sub_slot * kTenantSubSlotStride),
        rank_count_(rank_count),
        quota_(quota) {}

  StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                  Bytes data) override;
  [[nodiscard]] StoreResult<Bytes> get(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;
  // Metered exactly like get(): one read op.
  [[nodiscard]] StoreResult<EntryDigest> digest(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override;
  [[nodiscard]] bool contains(std::uint32_t rank,
                              std::uint64_t checkpoint_id) const override;
  [[nodiscard]] std::optional<std::uint64_t> newest_id(
      std::uint32_t rank) const override;
  [[nodiscard]] std::vector<std::uint64_t> list(
      std::uint32_t rank) const override;
  void erase(std::uint32_t rank, std::uint64_t checkpoint_id) override;
  // Clears only this tenant's namespace (all rank_count ranks), never the
  // neighbors'.
  void clear() override;
  bool corrupt_entry(std::uint32_t rank, std::uint64_t checkpoint_id,
                     std::uint64_t salt) override;

  [[nodiscard]] std::uint32_t rank_offset() const { return offset_; }

 private:
  std::uint32_t offset_;
  std::uint32_t rank_count_;
  StoreQuota* quota_;
};

}  // namespace ndpcr::ckpt
