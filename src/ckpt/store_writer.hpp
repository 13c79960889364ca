#pragma once

// The write-verify-quarantine primitive every durable write in the repo
// follows: verified_put_once is ONE attempt - put, read back the stored
// entry's digest, compare it with the digest the caller computed once
// from the source, erase a torn entry that landed under a valid key.
// Both retry harnesses - MultilevelManager::checked_put's bounded
// retry/backoff loop and NdpAgent's virtual-time drain retry - wrap this
// one primitive, so the store-facing op sequence of an attempt is
// identical wherever a checkpoint lands.

#include <cstdint>

#include "ckpt/stores.hpp"

namespace ndpcr::ckpt {

// Outcome of one write-verify attempt (see verified_put_once).
struct PutOutcome {
  bool ok = false;        // durably in place and its digest read back equal
  bool accepted = false;  // the store's put itself succeeded
  bool put_permanent = false;   // put failed with a permanent error
  bool verify_failed = false;   // readback missing/mismatched/erred
  bool read_error_permanent = false;  // the readback error was permanent
  bool quarantined = false;     // a mismatched entry was erased
};

// One attempt: put `data` under (rank, id) - the store takes ownership,
// so a retry hands over a fresh buffer rebuilt from the caller's source -
// then, when `verify`, read back the entry's digest (KvStore::digest: one
// read op, no copy) and compare it with `expected`, erasing
// (quarantining) an entry whose digest differs. Reports store errors
// through the outcome flags, never by throwing (a store's own exception -
// local NVM out of capacity - passes through); the caller's retry policy
// interprets the flags.
PutOutcome verified_put_once(KvStore& store, std::uint32_t rank,
                             std::uint64_t id, Bytes data,
                             const EntryDigest& expected, bool verify);

}  // namespace ndpcr::ckpt
