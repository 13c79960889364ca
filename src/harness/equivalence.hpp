#pragma once

// Crash-anywhere restart-equivalence harness (docs/EQUIVALENCE.md).
//
// The proof obligation: for EVERY durable-state mutation a checkpointed
// run performs, a process that dies exactly there - losing its in-flight
// buffers, possibly leaving the dying write as a torn prefix - and then
// restarts from whatever checkpoint level survives, finishes the
// computation with BIT-IDENTICAL final state to the run that never
// crashed.
//
// The harness proves it by construction:
//
//   1. Golden run: NPB-style proxy kernels (one per rank) iterate and
//      checkpoint on a cadence through a MultilevelManager whose durable
//      stores live in a CrashSimulator recording every mutation. The
//      final per-rank state fingerprints and every committed payload's
//      CRC are the reference.
//   2. Crash-point sweep: for each canonical mutation index k, a fresh,
//      identically-seeded simulator is armed to die at k; the run is
//      replayed until the crash fires, the manager is destroyed (process
//      death), and a new manager is built over the surviving bytes with
//      adopt_existing. recover() picks the newest restorable checkpoint,
//      the kernels restore and run to completion, and the final
//      fingerprints must equal the golden run's.
//   3. Invariants checked along the way: the recovered id never exceeds
//      the id being committed at death, recovered payloads match the
//      golden run's committed payload CRCs bit-for-bit, all ranks agree
//      on the resume iteration, and every post-restart iteration passes
//      the kernel's residual verify().
//
// Everything is a pure function of the config (seeds included), so a
// sweep replays identically across machines and thread counts; the
// sweep fingerprint pins that in tests at pool sizes 1/2/8.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "faults/crash.hpp"
#include "faults/fault_plan.hpp"

namespace ndpcr::exec {
class TaskPool;
}  // namespace ndpcr::exec

namespace ndpcr::harness {

// Which commit-path flavor the managers run.
enum class PayloadMode { kFull, kDelta, kDedup };

const char* to_string(PayloadMode mode);
PayloadMode payload_mode_from(const std::string& name);  // throws on junk

struct EquivalenceConfig {
  std::string kernel = "cg";  // workloads::proxy_kernel_names()
  PayloadMode mode = PayloadMode::kFull;
  std::uint32_t node_count = 3;
  std::uint64_t iterations = 12;  // solver iterations per rank
  std::uint64_t cadence = 3;      // checkpoint every `cadence` iterations
  std::size_t state_bytes = 32 << 10;  // per-rank kernel state target
  std::uint32_t partner_every = 1;
  std::uint32_t io_every = 2;
  std::uint64_t seed = 1;
  // Online per-rank codec selection on the IO level (docs/PERF.md). The
  // sweep proves the probe's choices - recorded in each stream's
  // container header - survive any crash point: restart managers decode
  // whatever codec the dying run picked.
  bool io_codec_adaptive = false;
  // Seeded device-fault schedule under the crash gates (clean when zero).
  faults::FaultRates rates;
  std::uint64_t fault_seed = 1;
  bool torn = true;  // dying writes land as torn prefixes (vs vanish)
  // Optional file-backed IO level: each run gets its own subdirectory.
  std::filesystem::path io_root;
  exec::TaskPool* pool = nullptr;  // null = the process-wide pool
};

struct GoldenRun {
  std::vector<faults::CrashPoint> points;  // canonical crash enumeration
  std::vector<std::uint64_t> rank_fingerprints;
  std::uint64_t final_fingerprint = 0;  // rank fingerprints folded
  // CRC32 of every committed payload, keyed (rank, checkpoint id): the
  // bit-equivalence reference for recovered payloads.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t>
      payload_crcs;
  std::uint64_t commits = 0;
};

struct CrashRunResult {
  std::size_t point = 0;     // canonical index k
  bool crashed = false;      // the armed run reached its point
  bool recovered = false;    // restart found a restorable checkpoint
  std::uint64_t recovered_id = 0;  // 0 when !recovered
  bool equivalent = false;   // final fingerprints match the golden run
  bool invariants_ok = false;
  std::string failure;  // empty iff equivalent && invariants_ok

  [[nodiscard]] bool ok() const { return equivalent && invariants_ok; }
};

struct SweepReport {
  GoldenRun golden;
  std::size_t points_total = 0;
  std::size_t points_run = 0;
  std::size_t failures = 0;
  std::vector<CrashRunResult> failed;  // failing points, in k order
  // CRC32 over every run point's (k, crashed, recovered_id, ok) stream:
  // one word that must agree across thread counts and machines.
  std::uint32_t fingerprint = 0;

  [[nodiscard]] bool ok() const { return failures == 0; }
};

// Run the golden (crash-free) reference for `config`.
[[nodiscard]] GoldenRun run_golden(const EquivalenceConfig& config);

// Replay with a crash at canonical point k, restart, run to completion,
// and compare against `golden`. k must be < golden.points.size().
[[nodiscard]] CrashRunResult run_crash_point(const EquivalenceConfig& config,
                                             const GoldenRun& golden,
                                             std::size_t k);

// Golden run + crash sweep over every `stride`-th canonical point
// (stride 1 = every durable mutation).
[[nodiscard]] SweepReport run_sweep(const EquivalenceConfig& config,
                                    std::size_t stride = 1);

}  // namespace ndpcr::harness
