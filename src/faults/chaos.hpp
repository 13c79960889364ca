#pragma once

// Chaos soak harness: drive a MultilevelManager through a seeded fault
// schedule plus random node failures and silent corruption, and check the
// recovery invariants after every probe:
//
//   1. Every recovered payload is byte-identical to what was committed
//      under that checkpoint id (implies CRC-valid).
//   2. recover() never returns a checkpoint newer than the last commit.
//   3. Health counters are monotone; a level leaves the degraded state
//      only through a counted repair.
//
// A run is a pure function of its ChaosConfig (fingerprint included), so
// soaks parallelised across seeds with exec::TaskPool reproduce
// bit-identically at any thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "exec/task_pool.hpp"
#include "faults/faulty_stores.hpp"

namespace ndpcr::obs {
class MetricsRegistry;
class Tracer;
}  // namespace ndpcr::obs

namespace ndpcr::faults {

struct ChaosConfig {
  std::uint64_t seed = 1;
  std::uint32_t node_count = 6;
  ckpt::PartnerScheme scheme = ckpt::PartnerScheme::kCopy;
  std::uint32_t xor_group_size = 3;
  compress::CodecId io_codec = compress::CodecId::kNull;
  std::uint32_t partner_every = 1;
  std::uint32_t io_every = 2;
  std::uint32_t commits = 24;
  std::size_t payload_bytes = 2048;
  // Fault rates applied to every device (local NVM sees torn/bitflip only).
  FaultRates rates{0.02, 0.01, 0.01, 0.01};
  double p_fail_node = 0.05;  // per-commit chance of losing a node
  double p_corrupt = 0.10;    // per-commit chance of one silent corruption
  double p_recover = 0.25;    // per-commit chance of a recovery probe
  // Schedule a permanent IO outage over the middle third of the run's
  // expected IO operations (cleared afterwards, so repair is observable).
  bool io_outage = false;
  // Incremental commit path (docs/DELTA.md): delta_chain > 0 enables
  // delta images with that many links between full anchors; io_dedup
  // layers CDC block dedup under the IO level (CDC parameters scaled to
  // the small chaos payloads). The DataPathStats counters join the run
  // fingerprint, so thread-invariance covers the incremental path too.
  std::uint32_t delta_chain = 0;
  std::size_t delta_block_bytes = 512;
  bool io_dedup = false;
  // Sparse-update workload: ranks keep persistent state and each commit
  // rewrites ~update_fraction of each rank's bytes (instead of fully
  // random payloads) - the regime where delta/dedup actually save bytes.
  bool sparse_updates = false;
  double update_fraction = 0.05;
  // IO-level ChunkedCodec chunk size forwarded to the manager (format-
  // visible: it fixes the stored bytes).
  std::size_t io_chunk_bytes = 1ull << 20;
  // Pool for the manager's parallel data path (null = global_pool()).
  // Thread count must not change the report - that is the invariant the
  // thread-invariance tests pin.
  exec::TaskPool* pool = nullptr;
  // Optional observability (docs/OBSERVABILITY.md). `trace` threads
  // through to the manager and gives every faulty store its own event
  // buffer (spliced in store-creation order at run end), so injections
  // line up with the commit/recover spans they perturb. Only single runs
  // take a tracer; run_chaos_suite shares one pool across schedules and
  // stays untraced. `metrics` receives the end-of-run HealthReport and
  // chaos counters under the "chaos." prefix.
  obs::Tracer* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct ChaosReport {
  std::uint64_t seed = 0;
  std::uint64_t commits = 0;
  std::uint64_t recover_calls = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t unrecoverable = 0;
  std::uint64_t node_failures = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> violation_notes;  // first few, for diagnostics
  ckpt::HealthReport health;                 // manager health at run end
  ckpt::DataPathStats data;                  // byte-movement accounting
  FaultStats faults;                         // aggregated injections
  std::uint32_t fingerprint = 0;             // CRC32 of the run's outcomes
};

// Execute one seeded chaos schedule. Deterministic: same config, same
// report (fingerprint included), on any machine and at any thread count.
ChaosReport run_chaos(const ChaosConfig& config);

// Run many schedules across the pool (one task per config; each run is
// self-contained, so the engine's index-ownership contract makes the
// result vector thread-count-invariant).
std::vector<ChaosReport> run_chaos_suite(
    const std::vector<ChaosConfig>& configs, exec::TaskPool& pool);

// Order-sensitive combination of the suite's fingerprints: one word that
// must match across reruns and thread counts.
std::uint32_t suite_fingerprint(const std::vector<ChaosReport>& reports);

// CRC32 over every HealthReport counter (floating-point backoff included,
// bit-for-bit): the thread-invariance tests compare these across pool
// sizes instead of spelling out each field.
std::uint32_t health_fingerprint(const ckpt::HealthReport& health);

// Seeded workload generators shared by the chaos runners (including the
// service-layer soak in src/svc). chaos_payload draws a fresh payload of
// base_size plus up to 255 jitter bytes; chaos_sparse_update rewrites
// ~fraction of an existing payload at seeded positions (size unchanged),
// the regime where delta/dedup layers save bytes. Both consume the Rng
// deterministically.
Bytes chaos_payload(Rng& rng, std::size_t base_size);
void chaos_sparse_update(Rng& rng, Bytes& payload, double fraction);

}  // namespace ndpcr::faults
