#pragma once

// The write side of the pipelined commit path (docs/PERF.md).
//
// Two pieces:
//
//   verified_put_once - ONE attempt of the write-verify-quarantine
//     protocol every durable write in the repo follows: put, read back
//     the stored entry's digest, compare it with the digest the caller
//     computed once from the source, erase a torn entry that landed
//     under a valid key. Both
//     retry harnesses - MultilevelManager::checked_put's bounded
//     retry/backoff loop and NdpAgent's virtual-time drain retry - wrap
//     this one primitive, so the store-facing op sequence of an attempt
//     is identical wherever a checkpoint lands.
//
//   AsyncStageWriter - a single background executor running submitted
//     closures strictly in submission (FIFO) order, with a bounded
//     handoff queue (depth 2 = double buffering: one job in flight, one
//     staged). The commit path submits its per-rank IO puts here so
//     level writes overlap the next rank's serialization/compression;
//     recover submits pure decompress jobs so decode overlaps the next
//     rank's store reads.
//
// Determinism contract: the writer adds concurrency, never reordering.
// Jobs run in submission order on one thread, so a store driven only
// through the writer sees the exact op sequence the serial path issued -
// fault schedules and crash-point cutoffs, which are pure functions of
// each device's own op index, replay unchanged. Results (health deltas,
// trace buffers, output slots) are indexed by submission order and
// merged by the caller after flush(), behind the queue mutex's
// happens-before. flush() is the commit point: the caller does not
// advance any latest-pointer semantics until every submitted write has
// landed.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

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

// Counters for the async stage. Purely observational: queue depth and
// stall counts depend on wall-clock scheduling, so - like wall-time
// trace events - they are excluded from every determinism fingerprint
// (docs/OBSERVABILITY.md). `jobs`/`inline_jobs` are deterministic.
struct PipelineStats {
  std::uint64_t jobs = 0;            // closures accepted (queued + inline)
  std::uint64_t inline_jobs = 0;     // ran synchronously (depth 0)
  std::uint64_t enqueue_stalls = 0;  // submits that waited on a full queue
  std::uint64_t queue_peak = 0;      // deepest staged+in-flight observed
  std::uint64_t flushes = 0;

  void merge(const PipelineStats& o) {
    jobs += o.jobs;
    inline_jobs += o.inline_jobs;
    enqueue_stalls += o.enqueue_stalls;
    queue_peak = queue_peak > o.queue_peak ? queue_peak : o.queue_peak;
    flushes += o.flushes;
  }
};

class AsyncStageWriter {
 public:
  // `depth` bounds the handoff queue (staged jobs; one more may be in
  // flight). 0 disables the background thread entirely: submit() runs
  // the job inline, which is the bit-identical serial reference the
  // writer-on/off equivalence test pins. The thread starts lazily on
  // the first queued submit.
  explicit AsyncStageWriter(std::size_t depth = 2);
  ~AsyncStageWriter();  // flushes (exceptions swallowed) and joins

  AsyncStageWriter(const AsyncStageWriter&) = delete;
  AsyncStageWriter& operator=(const AsyncStageWriter&) = delete;

  // Enqueue a job; blocks while `depth` jobs are already staged. Jobs
  // run in submission order. submit/flush are single-caller: only the
  // thread that owns the writer may call them.
  void submit(std::function<void()> job);

  // Barrier: returns once every submitted job ran. Rethrows the first
  // job exception (later jobs still ran - they are independent).
  void flush();

  // Stable only after flush() (or before any submit).
  [[nodiscard]] const PipelineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }

 private:
  void loop();

  std::size_t depth_;
  std::mutex m_;
  std::condition_variable cv_submit_;  // worker waits for work
  std::condition_variable cv_drain_;   // submitter waits for space / flush
  std::deque<std::function<void()>> queue_;
  bool busy_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
  PipelineStats stats_;
  std::thread thread_;
};

}  // namespace ndpcr::ckpt
