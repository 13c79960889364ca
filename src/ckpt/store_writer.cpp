#include "ckpt/store_writer.hpp"

#include <utility>

namespace ndpcr::ckpt {

PutOutcome verified_put_once(KvStore& store, std::uint32_t rank,
                             std::uint64_t id, Bytes data,
                             const EntryDigest& expected, bool verify) {
  PutOutcome out;
  const StoreStatus status = store.put(rank, id, std::move(data));
  if (!status.ok()) {
    out.put_permanent = status.error().permanent();
    return out;
  }
  out.accepted = true;
  if (!verify) {
    out.ok = true;
    return out;
  }
  const StoreResult<EntryDigest> readback = store.digest(rank, id);
  if (readback.ok() && *readback == expected) {
    out.ok = true;
    return out;
  }
  out.verify_failed = true;
  if (readback.ok()) {
    // Torn or bit-flipped write landed under a valid key: quarantine it
    // so no reader can mistake it for the real entry.
    store.erase(rank, id);
    out.quarantined = true;
  } else {
    // A readback *error* leaves the entry in place - it may be intact -
    // but unverified counts as failed; the caller decides whether a
    // rewrite is worth it.
    out.read_error_permanent = readback.error().permanent();
  }
  return out;
}

}  // namespace ndpcr::ckpt
