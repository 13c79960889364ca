#pragma once

// Multilevel checkpoint/restart coordinator (the SCR-like substrate of
// sections 3.4-3.5): coordinated checkpoints across N simulated nodes,
// three levels of storage, and recovery that walks levels from fastest to
// slowest.
//
//   local   - the node's own NVM circular buffer (every checkpoint)
//   partner - XOR-group parity on the node after each group (every
//             `partner_every`-th checkpoint); a full copy on the next
//             node is the group of one
//   io      - the parallel file system (every `io_every`-th checkpoint),
//             optionally compressed (section 3.5 compresses only the
//             IO-level stream)
//
// This is a functional model - it moves real bytes and validates CRCs - so
// the examples and the cluster simulator can exercise true data-path
// behaviour (corruption detection, partner rebuild, level fallback).
//
// Stores keep only live restore points (DESIGN.md section 5, "Retention"):
// once a commit settles, every generation recovery can no longer reach
// first is erased from each level - like the paper's NVM circular buffer
// (section 4.2) and SCR's bounded cache - so new commits write into
// recycled buffers instead of ever-fresh pages. An IO level the manager
// does not write (io_every at 0) but finds entries on is the one NDP
// agents drain out of its local NVM; it is retired by the same rule.
//
// The data path is self-healing (docs/FAULTS.md): store writes go through
// bounded retry with exponential backoff (virtual - counted, never slept),
// every write is verified by readback, corrupted entries are quarantined,
// and a level whose device stays down is marked degraded while commits
// keep succeeding on the surviving levels. A degraded level is re-probed
// on every commit and heals without a restart once its store recovers.
// All of it is observable through the HealthReport.
//
// The data path is parallel (docs/PERF.md): commit fans per-rank work
// (serialize + CRC, partner group encode + exchange, chunked IO compression,
// local NVM write + verify) across an exec::TaskPool, and recover
// validates every rank's local copy in parallel before falling back.
// Results are bit-identical at any thread count: each task owns its index
// and its own health-counter delta, deltas are merged in index order after
// the barrier, and operations against shared fault-scheduled stores (the
// IO device) stay serial on the committing thread so fault replays are
// schedule-independent. When commit/recover are themselves called from
// inside a pool worker (the chaos suite runs whole replicates as tasks)
// everything runs inline.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "ckpt/dedup_level.hpp"
#include "ckpt/image.hpp"
#include "ckpt/nvm_store.hpp"
#include "ckpt/stores.hpp"
#include "compress/chunked.hpp"
#include "compress/codec.hpp"
#include "compress/probe.hpp"
#include "delta/delta.hpp"
#include "obs/trace.hpp"

namespace ndpcr::exec {
class TaskPool;
}  // namespace ndpcr::exec

namespace ndpcr::obs {
class MetricsRegistry;
}  // namespace ndpcr::obs

namespace ndpcr::ckpt {

enum class RecoveryLevel { kLocal, kPartner, kIo };

const char* to_string(RecoveryLevel level);

// Partner-level redundancy scheme (SCR's levels). XOR groups tolerate one
// loss per group at 1/xor_group_size space overhead (rebuild needs the
// surviving members' local copies plus the parity); a full copy is the
// group of one - it tolerates the loss of a node at 100% overhead. Both
// run the same group encode/rebuild path: kCopy is xor_group_size = 1.
enum class PartnerScheme { kCopy, kXorGroup };

// Which remote store a MultilevelConfig::store_factory call is building.
enum class StoreLevel { kPartner, kIo };

enum class LevelState { kHealthy, kDegraded };

const char* to_string(LevelState state);

// Per-level health counters. All counters are monotone; `state` moves
// healthy -> degraded when a store operation exhausts its retries (or
// hits a permanent error) and back only when a later commit's probe
// succeeds (counted in `repairs`).
struct LevelHealth {
  LevelState state = LevelState::kHealthy;
  std::uint64_t puts = 0;             // put attempts issued
  std::uint64_t put_retries = 0;      // attempts after the first
  std::uint64_t put_failures = 0;     // operations abandoned
  std::uint64_t verify_failures = 0;  // readback mismatched what we wrote
  std::uint64_t quarantined = 0;      // corrupt entries erased
  std::uint64_t read_retries = 0;     // transient read errors retried
  std::uint64_t degraded_commits = 0; // commits made while degraded
  std::uint64_t repairs = 0;          // degraded -> healthy transitions
  double backoff_seconds = 0.0;       // virtual backoff accumulated

  [[nodiscard]] bool degraded() const {
    return state == LevelState::kDegraded;
  }

  // Add another report's counters (a task's private delta, or one NDP
  // agent's drain health); the sum is degraded if either side is.
  LevelHealth& operator+=(const LevelHealth& other);
};

// Health of the whole multilevel data path; consumed by the cluster
// simulator, the chaos harness and `ndpcr --faults`.
struct HealthReport {
  LevelHealth local;
  LevelHealth partner;
  LevelHealth io;
  std::uint64_t commits = 0;
  std::uint64_t degraded_commits = 0;  // commits with any level degraded

  [[nodiscard]] bool any_degraded() const {
    return local.degraded() || partner.degraded() || io.degraded();
  }
};

// Incremental-checkpointing policy for the commit path (docs/DELTA.md).
// With `enabled`, commits after the first write delta images against the
// previous committed checkpoint's payload; every `chain_length`-th link
// forces a full image so recovery chains stay bounded. Dedup layers a
// content-addressed block store under the IO level (CDC recipes).
struct DeltaPolicy {
  bool enabled = false;
  // Maximum delta links between full anchors (0 behaves like disabled:
  // every commit is a full).
  std::uint32_t chain_length = 7;
  std::size_t block_bytes = 4096;  // DeltaCodec block size
  // CDC block dedup across ranks/commits at the IO level: images become
  // recipes + content-addressed blocks in the same KvStore.
  bool io_dedup = false;
  delta::CdcParams cdc;
};

// Byte ledger of one commit-path stage: the bytes the manager's own
// passes touched, by kind. Pure functions of the payload sizes and the
// fault schedule - no clocks - so tests can pin touches per payload byte
// as a regression gate that cannot flake. Work inside a device or inside
// a codec (compression) is not counted.
struct ByteLedger {
  std::uint64_t copied = 0;    // staging copies, buffers handed to stores
  std::uint64_t crc = 0;       // NDCI headers, write digests, verify reads
  std::uint64_t hashed = 0;    // through delta::block_hash
  std::uint64_t xored = 0;     // folded into XOR parity
  std::uint64_t compared = 0;  // compared byte for byte

  [[nodiscard]] std::uint64_t touches() const {
    return copied + crc + hashed + xored + compared;
  }
  ByteLedger& operator+=(const ByteLedger& o) {
    copied += o.copied;
    crc += o.crc;
    hashed += o.hashed;
    xored += o.xored;
    compared += o.compared;
    return *this;
  }
};

// Byte-movement accounting for the commit/recover data path: what the
// delta and dedup layers save is visible here (and through
// record_data_path) rather than inferred from device sizes. All counters
// are accumulated serially in rank order, so they are bit-identical at
// any pool size.
struct DataPathStats {
  std::uint64_t commits_full = 0;
  std::uint64_t commits_delta = 0;
  std::uint64_t payload_bytes_in = 0;      // raw payload bytes offered
  std::uint64_t delta_input_bytes = 0;     // payload bytes delta-encoded
  std::uint64_t delta_encoded_bytes = 0;   // delta streams produced
  std::uint64_t local_bytes_written = 0;   // image bytes into local NVM
  std::uint64_t partner_bytes_written = 0; // image/parity bytes to partners
  std::uint64_t io_logical_bytes = 0;      // framed image bytes bound for IO
  std::uint64_t io_bytes_written = 0;      // bytes actually put to IO
  std::uint64_t dedup_new_bytes = 0;       // block bytes new to the IO store
  std::uint64_t dedup_dup_bytes = 0;       // block bytes resolved as dups
  std::uint64_t chain_links = 0;           // delta links walked in recover
  std::uint64_t chain_replays = 0;         // chains replayed to a payload
  // Commit-path byte ledger, per stage: image build (serialize, delta
  // encode, NDCI CRC, the write digest), then each level's writes.
  ByteLedger image;
  ByteLedger local;
  ByteLedger partner;
  ByteLedger io;

  // Every byte pass of the commit path, over payload_bytes_in.
  [[nodiscard]] double touches_per_payload_byte() const {
    if (payload_bytes_in == 0) return 0.0;
    const std::uint64_t total = image.touches() + local.touches() +
                                partner.touches() + io.touches();
    return static_cast<double>(total) /
           static_cast<double>(payload_bytes_in);
  }

  // 1 - encoded/input over the payloads that were delta-encoded.
  [[nodiscard]] double delta_factor() const {
    return delta_input_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(delta_encoded_bytes) /
                           static_cast<double>(delta_input_bytes);
  }
  [[nodiscard]] double dedup_hit_rate() const {
    const std::uint64_t total = dedup_new_bytes + dedup_dup_bytes;
    return total == 0
               ? 0.0
               : static_cast<double>(dedup_dup_bytes) /
                     static_cast<double>(total);
  }
};

// Read by perfbench through MultilevelManager::pipeline(); always 0, as
// every IO put runs on the committing thread. Delete with the next
// perfbench change.
struct PipelineStats {
  std::uint64_t enqueue_stalls = 0;
  std::uint64_t queue_peak = 0;
};

struct MultilevelConfig {
  std::uint64_t app_id = 1;
  std::uint32_t node_count = 1;
  std::size_t nvm_capacity_bytes = 64ull << 20;
  std::uint32_t partner_every = 1;  // 0 disables the partner level
  std::uint32_t io_every = 0;       // 0 disables the IO level
  PartnerScheme partner_scheme = PartnerScheme::kCopy;
  std::uint32_t xor_group_size = 4; // ranks per parity group (kXorGroup)
  // Codec for IO-level checkpoints; null means store uncompressed. The
  // stream is a ChunkedCodec container whose chunks (de)compress on
  // `pool`; `io_chunk_bytes` fixes the bytes written (any chunk size
  // reads back), the pool only the execution.
  compress::CodecId io_codec = compress::CodecId::kNull;
  int io_codec_level = 0;
  std::size_t io_chunk_bytes = 1ull << 20;

  // Online per-region codec selection (docs/PERF.md): probe every rank's
  // image at commit time (compress::choose_codec) and pick accel-nlz4
  // for incompressible arrays, ngzip for repetitive/structured bytes,
  // plain nlz4 in between. The choice rides in the ChunkedCodec
  // container header, so recovery is self-describing (any mix of codecs
  // across ranks/checkpoints decodes). The static io_codec above is the
  // override: adaptive only engages when io_codec is kNull - configuring
  // a real codec pins every write to it. Dedup block streams always use
  // the static codec (one block is shared by many images; its coding
  // must not depend on which image wrote it first).
  bool io_codec_adaptive = false;

  // Ignored; delete with the next perfbench change (perfbench sets it).
  std::size_t io_writer_depth = 0;

  // Execution engine for the parallel data path (null = the process-wide
  // exec::global_pool()). Thread count is an execution detail: committed
  // bytes, checkpoint ids and HealthReport counters are bit-identical at
  // any size, and commit/recover run inline when called from inside a
  // pool task.
  exec::TaskPool* pool = nullptr;

  // Factory for the remote stores (one partner space per hosting node,
  // one IO store; `host` is the hosting rank for partner spaces, 0 for
  // IO). Null builds plain KvStores; the fault layer installs
  // FaultyKvStore decorators here, and the crash simulator
  // ForwardingKvStore views over stores that outlive the manager
  // (docs/EQUIVALENCE.md).
  std::function<std::unique_ptr<KvStore>(StoreLevel level,
                                         std::uint32_t host)>
      store_factory;

  // Factory for the per-rank local NVM devices. Null builds fresh stores
  // from nvm_capacity_bytes. The crash simulator hands the *same* NvmStore
  // objects to the dying manager and the restart manager, so local state
  // survives a simulated process death the way a real NVDIMM survives one.
  std::function<std::shared_ptr<NvmStore>(std::uint32_t rank)> nvm_factory;

  // Restart mode: the stores the factories hand over may already hold a
  // previous life's checkpoints. The constructor inventories every level
  // for the newest surviving id so new commits continue the id sequence
  // instead of colliding with it, and rebuilds the IO dedup index from
  // the recipes still on the device. Without this flag a manager built
  // over surviving stores starts at id 1: recover() finds nothing (its
  // scan starts below every stored id) and the first commit collides
  // with checkpoint 1's leftovers - the crash-consistency bug the
  // equivalence sweep exposed, pinned by MultilevelDelta.AdoptExisting*.
  bool adopt_existing = false;

  // Invoked on the image bytes just before each local NVM write (op_index
  // counts the rank's local writes, monotonically). The fault layer uses
  // it to model torn or bit-flipped NVM writes; commit's verify readback
  // catches and retries them. May be called from pool workers - one rank
  // per task - so implementations that share state must synchronize.
  std::function<void(std::uint32_t rank, std::uint64_t op_index,
                     Bytes& image)>
      local_write_hook;

  // Incremental checkpointing + dedup (docs/DELTA.md). Off by default:
  // every commit is a self-contained full image.
  DeltaPolicy delta;

  // Read back every put's digest (KvStore::digest) and compare it with
  // the source's, computed once before the put.
  bool verify_writes = true;

  // Optional tracer (docs/OBSERVABILITY.md). Null disables tracing; the
  // manager then binds obs::Tracer::null() and every emission site costs
  // one branch. Commit/recover emit a span tree on the logical clock:
  // commit > image_build / partner / io / local, with retry, quarantine,
  // degrade and heal instants. Parallel phases record into per-task
  // buffers merged in task-index order, so the trace fingerprint is as
  // thread-invariant as the HealthReport.
  obs::Tracer* trace = nullptr;
};

// Fold a HealthReport into metric counters/gauges under `prefix` (e.g.
// "ckpt"), one entry per LevelHealth field per level - the bridge from
// the self-healing path to a --metrics snapshot.
void record_health(obs::MetricsRegistry& metrics, const HealthReport& report,
                   std::string_view prefix);

// Likewise for the data-path accounting: counters plus the derived
// delta_factor / dedup_hit_rate gauges under `prefix` (e.g. "ckpt.data").
void record_data_path(obs::MetricsRegistry& metrics,
                      const DataPathStats& stats, std::string_view prefix);

// Where a store operation's trace events land: the buffer is either the
// tracer's root (serial phases) or the task's private buffer (parallel
// phases), null when tracing is off. `level` becomes the event category.
struct TraceCtx {
  obs::TraceBuffer* buf = nullptr;
  std::uint32_t track = 0;
  const char* level = "";
};

class MultilevelManager {
 public:
  explicit MultilevelManager(const MultilevelConfig& config);

  // Coordinated commit of one checkpoint across all ranks. `payloads[r]`
  // is rank r's state. Returns the checkpoint id. Store failures never
  // throw: they are retried, then degrade the level (see HealthReport).
  // Throws std::logic_error only if a local NVM cannot accept the
  // checkpoint (capacity exhausted by locked entries).
  std::uint64_t commit(const std::vector<ByteSpan>& payloads);

  // Simulate loss of a node: its NVM contents and the partner copies it
  // was holding for its neighbor are gone.
  void fail_node(std::uint32_t rank);

  // Silent-corruption test hooks, all routed through the same primitive
  // the fault injector uses (corrupt_in_place): flip a byte of the rank's
  // newest entry at that level. Return false if no entry exists.
  bool corrupt_local(std::uint32_t rank);
  bool corrupt_partner(std::uint32_t rank);
  bool corrupt_io(std::uint32_t rank);

  struct Recovery {
    std::uint64_t checkpoint_id = 0;
    std::vector<Bytes> payloads;         // one per rank
    std::vector<RecoveryLevel> levels;   // where each rank recovered from
  };

  // Recover the application: the newest checkpoint id restorable by every
  // rank, walking local -> partner -> io per rank. Returns nullopt if no
  // common checkpoint survives. Transient store read errors are retried
  // (counted in the HealthReport); anything unreadable or corrupt is
  // treated as missing, never returned.
  [[nodiscard]] std::optional<Recovery> recover() const;

  // Introspection used by tests and the cluster simulator.
  [[nodiscard]] const NvmStore& local_store(std::uint32_t rank) const;
  [[nodiscard]] NvmStore& local_store(std::uint32_t rank);
  [[nodiscard]] const KvStore& io_store() const { return *io_; }
  [[nodiscard]] const HealthReport& health() const { return health_; }
  [[nodiscard]] const DataPathStats& data_path() const { return data_stats_; }
  // Always zero (see PipelineStats).
  [[nodiscard]] PipelineStats pipeline() const { return {}; }
  [[nodiscard]] std::uint64_t last_checkpoint_id() const { return next_id_ - 1; }

  // Partner-group topology: consecutive ranks form groups (of one under
  // kCopy); the parity for the group containing `rank` - keyed by the
  // group's first rank - is hosted by the node after its last member.
  [[nodiscard]] std::uint32_t group_first(std::uint32_t rank) const;
  [[nodiscard]] std::uint32_t parity_host(std::uint32_t rank) const;

 private:
  // Constructor helper for config.adopt_existing: inventory every level
  // for surviving checkpoint ids (so next_id_ continues the sequence) and
  // rebuild the IO dedup index from the recipes still on the device.
  void adopt_existing_state();
  // The configured pool, or exec::global_pool() when none is.
  [[nodiscard]] exec::TaskPool& pool() const;
  // Run body(i) for i in [0, n) on the configured pool (inline when
  // already inside a pool task, as every nested parallel_for runs).
  // `work_bytes` estimates the batch's total work: when per-index work
  // is tiny, indices are claimed in blocks (TaskPool grain) so pool
  // handoff overhead cannot dominate - small batches degrade all the way
  // to one inline task. 0 keeps one index per claim. Grain never changes
  // results: per-index slots are reduced in index order regardless.
  void for_tasks(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t work_bytes = 0) const;
  // Parse + CRC-check + dedup-assemble one rank's image from the remote
  // levels (partner rebuild, then IO; an IO entry that reads back damaged
  // is read once more). Serial: touches shared fault-scheduled stores.
  [[nodiscard]] std::optional<CheckpointImage> try_remote_rank(
      std::uint32_t rank, std::uint64_t id, RecoveryLevel& level_out) const;
  // Rebuild one rank's image from its group's parity and the surviving
  // members' local copies (for a group of one, the parity is the image).
  [[nodiscard]] std::optional<CheckpointImage> fetch_partner(
      std::uint32_t rank, std::uint64_t id) const;
  // Read one rank/id image from the local NVM only. Pure (no shared-store
  // ops, no health counters): safe from any task.
  [[nodiscard]] std::optional<CheckpointImage> fetch_local(
      std::uint32_t rank, std::uint64_t id) const;
  // Resolve rank/id to a full payload, walking delta chains back to their
  // anchor and replaying forward (docs/DELTA.md). `local_only` restricts
  // every link to the local NVM (the parallel phase-1 probe); otherwise
  // each link falls back local -> partner -> io. `level_out` reports the
  // deepest level any link came from, `links_out` the delta links walked
  // (0 for a directly-full image). Chain stats go through `links_out`, not
  // data_stats_, so the parallel phase-1 probes stay race-free. `head`,
  // when set, is id's local image as the caller already fetched it.
  [[nodiscard]] std::optional<Bytes> resolve_payload(
      std::uint32_t rank, std::uint64_t id, bool local_only,
      RecoveryLevel& level_out, std::size_t& links_out,
      std::optional<CheckpointImage> head = std::nullopt) const;
  // Raw image bytes from one stored IO entry: dedup recipe assembly
  // (block reads through checked_get) and chunked decompression, but no
  // CRC/meta validation yet.
  [[nodiscard]] std::optional<Bytes> decode_io_entry(Bytes stored) const;
  // Read through a remote store with bounded retry on transient errors.
  [[nodiscard]] std::optional<Bytes> checked_get(const KvStore& store,
                                                 LevelHealth& health,
                                                 std::uint32_t rank,
                                                 std::uint64_t id,
                                                 TraceCtx tc = TraceCtx()) const;
  // The bytes for put attempt `attempt` (0-based). The store takes
  // ownership of each buffer, so attempt 0 may hand over a prebuilt one
  // (parity, a compressed stream) and later attempts rebuild from the
  // source, which lives through commit().
  using PutBytes = std::function<Bytes(std::uint32_t attempt)>;
  // Write + verify-by-digest + retry/backoff, for every level (local NVM
  // goes through an adapter). Returns true once the entry is durably in
  // place and its digest equals `expected`, computed once from the
  // source. `probe` limits the operation to a single attempt (used while
  // the level is already degraded). Accounting goes to `health` and
  // `ledger`, which in the parallel batches are the task's private
  // deltas, not the shared report.
  bool checked_put(KvStore& store, LevelHealth& health, ByteLedger& ledger,
                   std::uint32_t rank, std::uint64_t id,
                   const PutBytes& bytes, const EntryDigest& expected,
                   bool probe, TraceCtx tc = TraceCtx());
  // Rank `rank`'s framed image of checkpoint `id` from its payload: a
  // delta stream against prev_payload_ when `as_delta`, else the payload
  // itself. Charges its byte passes to `ledger` and leaves the write
  // digest's CRC in `framed_crc`. Pure per rank: safe from any task.
  [[nodiscard]] Bytes build_image(std::uint32_t rank, std::uint64_t id,
                                  bool as_delta, ByteSpan payload,
                                  ByteLedger& ledger,
                                  std::uint32_t& framed_crc,
                                  delta::DeltaStats* dstats) const;
  // Each level's commit returns whether the generation is complete there:
  // every rank (local, IO) or every group (partner) verified.
  // commit_local runs last and moves each image into its NVM; a retry
  // rebuilds it from `payloads` (build_image), so `images` is spent.
  bool commit_local(std::uint64_t id, bool as_delta,
                    const std::vector<ByteSpan>& payloads,
                    std::vector<Bytes>& images,
                    const std::vector<EntryDigest>& digests);
  bool commit_partner(std::uint64_t id, const std::vector<Bytes>& images,
                      const std::vector<EntryDigest>& digests);
  // Build every rank's IO stream as one pool task per rank (adaptive
  // probe, chunked container, digest), then put them in rank order on the
  // committing thread and settle the level. A degraded level runs the
  // same puts as a probe that stops at the first failing rank. The dedup
  // path writes recipes plus new blocks instead.
  bool commit_io(std::uint64_t id, const std::vector<Bytes>& images,
                 const std::vector<EntryDigest>& digests);
  // Retention (DESIGN.md section 5): what one generation left on the
  // levels. `complete` is indexed by RecoveryLevel and cleared once the
  // level's entries are erased.
  struct Generation {
    std::uint64_t base_id = 0;  // delta reference; 0 for a full anchor
    bool adopted = false;       // inventoried on restart: chain unknown
    std::array<bool, 3> complete{};
  };
  // Erase, level by level, every generation the retention rule no longer
  // keeps. Runs once a commit has settled; each erase goes through the
  // store's own erase, so crash gates see it as a mutation.
  void retire_generations();
  // Oldest id of `id`'s delta chain: its full anchor, or the oldest
  // generation on record when an adopted link's chain is unknown.
  [[nodiscard]] std::uint64_t chain_anchor(std::uint64_t id) const;
  // Erase every entry of generation `id` from one level (IO recipes
  // release their dedup blocks too). Returns the entries erased.
  std::size_t erase_generation(RecoveryLevel level, std::uint64_t id);
  // The ChunkedCodec a rank's IO stream uses: the adaptive candidate for
  // `choice`, or io_codec_ when adaptive is off (nullptr = store raw).
  [[nodiscard]] const compress::ChunkedCodec* codec_for(
      const compress::CodecChoice& choice) const;
  // Decode a stored IO stream, whoever wrote it; raw image bytes pass
  // through (by value, so they move). Nullopt on damage.
  [[nodiscard]] std::optional<Bytes> decode_io_stream(Bytes stored) const;

  MultilevelConfig config_;
  // Partner-group width: xor_group_size, or 1 for copy partners.
  std::uint32_t group_;
  // Chunked container codec for the IO level; empty when uncompressed.
  std::optional<compress::ChunkedCodec> io_codec_;
  // Adaptive candidates (config_.io_codec_adaptive), indexed like
  // compress::codec_candidate. Built once so per-commit selection never
  // allocates codec tables.
  std::vector<std::unique_ptr<compress::ChunkedCodec>> adaptive_codecs_;
  // Delta-chain state: the previous committed checkpoint's full payloads
  // (the encode reference) and the links since the last full anchor.
  std::optional<delta::DeltaCodec> delta_codec_;
  std::vector<Bytes> prev_payload_;
  bool have_prev_ = false;
  std::uint32_t links_since_full_ = 0;
  // IO-level block dedup bookkeeping (config_.delta.io_dedup).
  std::optional<DedupIndex> io_dedup_;
  // shared_ptr: with a nvm_factory the devices outlive the manager (the
  // crash simulator re-attaches them to the restart manager).
  std::vector<std::shared_ptr<NvmStore>> local_;
  // partner_space_[n] holds the parity of the group that ends at rank
  // (n + N - 1) % N.
  std::vector<std::unique_ptr<KvStore>> partner_space_;
  std::unique_ptr<KvStore> io_;
  std::uint64_t next_id_ = 1;
  // Generations some level may still hold, by id (retire_generations).
  std::map<std::uint64_t, Generation> generations_;
  // Per-rank local write-op counters (fault-hook op indices must not
  // depend on the order ranks drain from the pool).
  std::vector<std::uint64_t> local_write_ops_;
  // Mutable: recover() is logically const but counts its read retries.
  mutable HealthReport health_;
  // Mutable: recover() counts chain links walked and replays completed.
  mutable DataPathStats data_stats_;
  // Never null: config.trace or the shared disabled Tracer::null().
  obs::Tracer* trace_;
};

}  // namespace ndpcr::ckpt
