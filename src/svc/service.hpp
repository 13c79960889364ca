#pragma once

// Multi-tenant checkpoint service (docs/SERVICE.md): one CheckpointService
// multiplexes N independent tenant Sessions over shared storage - one
// shared IO (PFS) device, one shared partner device, an aggregate local
// NVM budget - and one exec::TaskPool. Each session wraps its own
// MultilevelManager behind an SCR-style client API:
//
//   can_admit()         - would the service admit a checkpoint right now?
//                         (a preview; SCR's SCR_Need_checkpoint means
//                         "is it time to checkpoint", which it is not)
//   start_checkpoint()  - stage this checkpoint (admission-controlled)
//   commit()            - drive the shared scheduler until it lands
//   latest()            - the latest-pointer: the newest *fully committed*
//                         checkpoint id (advances only at completion)
//   restart()           - recover the latest restorable checkpoint
//
// What single-tenant code never needed, the service adds:
//
//   Fair-share scheduling. Staged checkpoints do not run immediately:
//   they queue per tenant, and a deficit-round-robin scheduler
//   (pump_round) picks which tenant's checkpoint commits next. Every
//   round each backlogged tenant earns quantum * qos.weight deficit
//   bytes and commits staged checkpoints while its deficit covers their
//   cost, so long-run shared-IO throughput is proportional to weight
//   while light tenants still progress every round.
//
//   Admission control and backpressure. Shared local NVM is a finite
//   budget (SvcConfig::shared_nvm_bytes). Above the soft watermark a
//   tenant is throttled to every degrade_factor-th attempt (checkpoint
//   frequency degrades instead of neighbors' data); above the hard
//   watermark staging is denied outright. Both outcomes are typed
//   SvcStatus values, never exceptions.
//
//   Per-tenant quotas at the store seam. Each session's IO traffic flows
//   through a ckpt::TenantStoreView carrying the tenant's StoreQuota:
//   writes beyond the grant fail with a typed permanent error, the
//   manager's self-healing degrades that tenant's IO level, and commits
//   continue on the surviving levels. A tenant whose grant is fully
//   exhausted is refused new staging (kDeniedQuota); reads are never
//   denied, so restart always works.
//
//   Observability. export_metrics publishes per-tenant counters,
//   per-tenant p50/p99 commit-latency gauges (on the service's virtual
//   clock) and Jain fairness indices through obs::MetricsRegistry; with
//   a tracer, every tenant gets its own track of scheduler events.
//
// Determinism contract: the service is externally synchronized (one
// caller thread) and every commit executes serially in scheduler
// order - only the *inside* of a commit fans out
// over the TaskPool. Admission, scheduling and the virtual clock are
// pure functions of the call sequence, so service fingerprints are
// bit-identical at any pool size, and a tenant's own fingerprint depends
// only on its own traffic and fault schedule - never on a neighbor's
// faults (the isolation property svc_test and the chaos soak pin).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "ckpt/tenant_store.hpp"
#include "common/crc32.hpp"
#include "obs/metrics.hpp"

namespace ndpcr::exec {
class TaskPool;
}  // namespace ndpcr::exec

namespace ndpcr::obs {
class Tracer;
}  // namespace ndpcr::obs

namespace ndpcr::svc {

enum class SvcStatus {
  kOk,                  // done; all levels healthy
  kQueued,              // staged; will commit in scheduler order
  kThrottled,           // soft backpressure: retry at lower frequency
  kDeniedBackpressure,  // hard backpressure: shared NVM budget exhausted
  kDeniedQuota,         // tenant's IO grant is fully exhausted
  kDegraded,            // done, but a storage level is degraded
  kNoCheckpoint,        // restart found nothing restorable
};

const char* to_string(SvcStatus status);

// Per-tenant quality of service: the DRR weight shares the shared IO
// level, the quota meters the tenant's lifetime traffic through it.
struct TenantQos {
  std::uint32_t weight = 1;
  std::uint64_t quota_bytes = 0;  // lifetime IO put bytes; 0 = unmetered
  std::uint64_t quota_ops = 0;    // lifetime IO ops; 0 = unmetered
};

struct TenantSpec {
  std::string name;  // metric/trace key; "" = generated ("t0007")
  std::uint32_t ranks = 1;
  std::uint32_t partner_every = 1;
  std::uint32_t io_every = 1;
  compress::CodecId io_codec = compress::CodecId::kNull;
  std::uint32_t delta_chain = 0;  // > 0 enables delta images
  std::size_t delta_block_bytes = 512;
  TenantQos qos;
  // Optional decorator over the tenant's shared-store views (the chaos
  // soak wraps each view in a faults::FaultyKvStore). Receives the view it
  // must forward to; identity when null.
  std::function<std::unique_ptr<ckpt::KvStore>(
      ckpt::StoreLevel level, std::uint32_t host,
      std::unique_ptr<ckpt::KvStore> view)>
      store_decorator;
  // Forwarded to MultilevelConfig::local_write_hook (torn/bit-flipped
  // local NVM writes; the commit path's verify readback catches them).
  std::function<void(std::uint32_t, std::uint64_t, Bytes&)> local_write_hook;
};

struct SvcConfig {
  std::uint64_t seed = 1;
  // Aggregate local-NVM budget across every tenant's ranks, and the
  // watermarks: above soft * budget new checkpoints are throttled, above
  // hard * budget they are denied.
  std::size_t shared_nvm_bytes = 64ull << 20;
  double soft_fraction = 0.75;
  double hard_fraction = 0.90;
  std::uint32_t degrade_factor = 4;  // admit 1 of N while throttled
  // Per-rank NvmStore capacity handed to each manager.
  std::size_t per_rank_nvm_bytes = 1ull << 20;
  // DRR quantum: deficit bytes a weight-1 tenant earns per round.
  std::uint64_t scheduler_quantum = 4096;
  // Virtual IO model for commit-latency accounting (deterministic; never
  // wall clock): each committed checkpoint advances the service clock by
  // bytes / io_bandwidth + io_op_seconds.
  double io_bandwidth = 1ull << 30;
  double io_op_seconds = 1e-4;
  exec::TaskPool* pool = nullptr;   // null = exec::global_pool()
  obs::Tracer* trace = nullptr;     // per-tenant scheduler event tracks
};

class CheckpointService;

class Session {
 public:
  struct Restart {
    std::uint64_t checkpoint_id = 0;
    std::vector<Bytes> payloads;  // one per rank
  };

  struct Stats {
    std::uint64_t accepted = 0;             // staged checkpoints
    std::uint64_t throttled = 0;            // soft-backpressure refusals
    std::uint64_t denied_backpressure = 0;  // hard-backpressure refusals
    std::uint64_t denied_quota = 0;         // exhausted-grant refusals
    std::uint64_t committed = 0;            // checkpoints fully committed
    std::uint64_t committed_bytes = 0;      // payload bytes committed
    std::uint64_t restarts = 0;             // restart() calls
  };

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // SCR-style client API -------------------------------------------------

  // Would start_checkpoint admit a checkpoint of `bytes` payload right
  // now? Pure preview: charges nothing, advances no throttle state.
  [[nodiscard]] bool can_admit(std::size_t bytes = 0) const;

  // Stage one coordinated checkpoint (payloads[r] = rank r's state).
  // Returns kQueued on success; a refusal is typed and stages nothing.
  // Throws std::invalid_argument if payloads.size() != spec().ranks.
  SvcStatus start_checkpoint(const std::vector<ByteSpan>& payloads);

  // Drive the shared scheduler (in fair order, serving other tenants'
  // queues too) until every checkpoint this session staged has committed.
  // kOk when the session's levels are all healthy, kDegraded otherwise.
  SvcStatus commit();

  // Latest-pointer: the newest fully committed checkpoint id (0 = none).
  // Advances only when a staged checkpoint completes, never at staging.
  [[nodiscard]] std::uint64_t latest() const { return latest_; }

  // Recover the newest restorable checkpoint from this tenant's levels.
  [[nodiscard]] std::optional<Restart> restart();

  // Introspection --------------------------------------------------------

  [[nodiscard]] const TenantSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint32_t tenant_id() const { return tenant_id_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const ckpt::StoreQuota& quota() const { return quota_; }
  [[nodiscard]] std::size_t pending_jobs() const { return pending_.size(); }
  [[nodiscard]] const ckpt::MultilevelManager& manager() const {
    return *manager_;
  }
  [[nodiscard]] const obs::Histogram& commit_latency() const {
    return latency_;
  }
  // Local NVM bytes this session's ranks currently hold.
  [[nodiscard]] std::size_t nvm_used_bytes() const;

  // CRC32 over everything tenant-local: admission outcomes, committed
  // ids/bytes, quota counters, manager health and data-path counters.
  // Thread-count-invariant, and - the isolation property - independent of
  // every other tenant's fault schedule.
  [[nodiscard]] std::uint32_t fingerprint() const;

 private:
  friend class CheckpointService;

  struct StagedJob {
    std::vector<Bytes> payloads;
    std::size_t bytes = 0;
    double submit_vt = 0.0;
  };

  Session(CheckpointService& service, std::uint32_t tenant_id,
          TenantSpec spec);

  CheckpointService& service_;
  std::uint32_t tenant_id_;
  TenantSpec spec_;
  ckpt::StoreQuota quota_;
  std::unique_ptr<ckpt::MultilevelManager> manager_;
  std::deque<StagedJob> pending_;
  std::uint64_t deficit_ = 0;       // DRR deficit bytes
  std::uint32_t throttle_skip_ = 0; // admissions to skip while throttled
  std::uint64_t latest_ = 0;
  Stats stats_;
  obs::Histogram latency_;  // virtual-clock commit latency
};

class CheckpointService {
 public:
  explicit CheckpointService(const SvcConfig& config);
  ~CheckpointService();

  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  // Register a tenant. The returned Session is owned by the service and
  // stays valid for the service's lifetime. Tenant ids are assigned in
  // registration order.
  Session& open_session(TenantSpec spec);

  // One deficit-round-robin round over every backlogged session, in
  // tenant order: each earns quantum * weight deficit and commits staged
  // checkpoints while the deficit covers their payload cost. Returns the
  // number of checkpoints committed this round.
  std::size_t pump_round();

  // Pump until no session has staged work.
  void drain();

  [[nodiscard]] const SvcConfig& config() const { return config_; }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] Session& session(std::size_t i) { return *sessions_[i]; }
  [[nodiscard]] const Session& session(std::size_t i) const {
    return *sessions_[i];
  }
  [[nodiscard]] std::size_t backlog_jobs() const { return backlog_jobs_; }
  [[nodiscard]] std::size_t backlog_bytes() const { return backlog_bytes_; }
  // Aggregate local-NVM residency across every session's ranks.
  [[nodiscard]] std::size_t nvm_used_bytes() const;
  [[nodiscard]] double virtual_time() const { return vt_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] bool tracing() const;
  // The shared devices (tests inspect cross-tenant residency).
  [[nodiscard]] const ckpt::KvStore& io_device() const { return io_base_; }
  [[nodiscard]] const ckpt::KvStore& partner_device() const {
    return partner_base_;
  }

  // Jain fairness over per-tenant committed IO bytes, raw and normalized
  // by QoS weight (a weighted-fair schedule scores ~1 on the latter).
  [[nodiscard]] double jain_io() const;
  [[nodiscard]] double jain_io_weighted() const;

  // Per-tenant counters/gauges plus service-level fairness and
  // backpressure gauges under `prefix` (e.g. "svc"). Counters are
  // cumulative adds: export once per registry.
  void export_metrics(obs::MetricsRegistry& metrics,
                      std::string_view prefix) const;

  // CRC32 over the completion sequence (tenant, id, cost), every
  // session's fingerprint and latency histogram, the virtual clock and
  // round count. Bit-identical at pool sizes 1/2/8.
  [[nodiscard]] std::uint32_t fingerprint() const;

 private:
  friend class Session;

  // Admission decision for a checkpoint of `bytes` staged by `session`.
  // kQueued admits; anything else refuses (and advances throttle state
  // unless `preview`).
  SvcStatus admit(Session& session, std::size_t bytes, bool preview);
  void execute(Session& session, Session::StagedJob job);

  SvcConfig config_;
  ckpt::KvStore io_base_;       // shared IO (PFS) device
  ckpt::KvStore partner_base_;  // shared partner-space device
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t backlog_jobs_ = 0;
  std::size_t backlog_bytes_ = 0;
  double vt_ = 0.0;  // virtual clock; advances per committed checkpoint
  std::uint64_t rounds_ = 0;
  std::uint64_t completions_ = 0;
  Crc32 completion_crc_;  // running (tenant, id, cost) sequence hash
};

}  // namespace ndpcr::svc
