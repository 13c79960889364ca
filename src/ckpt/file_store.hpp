#pragma once

// Durable checkpoint storage on a real filesystem, in the BLCR layout the
// paper describes (section 4.2.1: per-process context files in a folder,
// tracked by metadata). The directory structure is
//
//   <root>/rank-<r>/ckpt-<id>.ndcr
//   <root>/rank-<r>/latest          (latest-pointer metadata)
//
// Durability: data is written to a temporary name, fsync'd, renamed into
// place, and the parent directory is fsync'd - so a crash at any point
// leaves either the old state or the complete new file under the valid
// name, never a torn one.
//
// The latest pointer is the checkpoint's commit point: it is updated with
// the same write-temp + fsync + rename discipline *after* the data file
// is durable, names the newest published checkpoint id, and carries a
// CRC. A crash between the data rename and the pointer update leaves the
// previous pointer in place - the new file exists but is not yet
// published, and newest_id() keeps answering with the previous
// checkpoint. A torn or corrupt pointer (a non-atomic foreign writer) is
// detected by size/magic/CRC validation and newest_id() falls back to
// scanning the directory, so the pointer can lose freshness but never
// correctness (docs/EQUIVALENCE.md).
//
// Seeded IO faults reach a FileStore the way they reach every store:
// behind a KvStore adapter wrapped in the one store fault decorator,
// faults::FaultyKvStore (the crash simulator's file-backed IO level).
// put() consults an optional MutationGate (crash-point injection; the
// data write and the pointer update are distinct crash sites).

#include <cstdint>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/mutation_gate.hpp"
#include "ckpt/store_error.hpp"
#include "common/bytes.hpp"

namespace ndpcr::ckpt {

class FileStore {
 public:
  // Creates the root directory (and parents) if missing. Throws
  // std::filesystem::filesystem_error on IO failure.
  explicit FileStore(std::filesystem::path root);

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  // Atomically replace the checkpoint file. IO failures are reported (not
  // thrown), classified transient (EINTR/EAGAIN/EIO) or permanent.
  StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                  ByteSpan data);
  [[nodiscard]] StoreResult<Bytes> get(std::uint32_t rank,
                                       std::uint64_t checkpoint_id) const;
  [[nodiscard]] bool contains(std::uint32_t rank,
                              std::uint64_t checkpoint_id) const;
  [[nodiscard]] std::optional<std::uint64_t> newest_id(
      std::uint32_t rank) const;
  // Checkpoint ids present for a rank, ascending. Stray files that do not
  // match ckpt-<digits>.ndcr exactly are skipped, never an error.
  [[nodiscard]] std::vector<std::uint64_t> list(std::uint32_t rank) const;
  void erase(std::uint32_t rank, std::uint64_t checkpoint_id);

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

  // The validated latest-pointer value, if the pointer file exists, parses
  // (size/magic/CRC) and references a checkpoint file that is present.
  // nullopt means torn/stale/absent - callers fall back to list().
  [[nodiscard]] std::optional<std::uint64_t> latest_pointer(
      std::uint32_t rank) const;

  // Crash-point injection hook (docs/EQUIVALENCE.md).
  void set_mutation_gate(MutationGate gate) { gate_ = std::move(gate); }

 private:
  [[nodiscard]] std::filesystem::path rank_dir(std::uint32_t rank) const;
  [[nodiscard]] std::filesystem::path file_path(
      std::uint32_t rank, std::uint64_t checkpoint_id) const;
  [[nodiscard]] std::filesystem::path latest_path(std::uint32_t rank) const;
  // Atomically publish `checkpoint_id` as the rank's latest (write-temp +
  // fsync + rename). Consults the gate under MutationOp::kPointer.
  void write_latest(std::uint32_t rank, std::uint64_t checkpoint_id);
  // Re-derive the pointer from the directory after an erase.
  void refresh_latest(std::uint32_t rank);

  std::filesystem::path root_;
  MutationGate gate_;
};

}  // namespace ndpcr::ckpt
