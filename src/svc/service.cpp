#include "svc/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "exec/task_pool.hpp"
#include "faults/chaos.hpp"  // health_fingerprint
#include "obs/trace.hpp"

namespace ndpcr::svc {
namespace {

void feed_u64(Crc32& crc, std::uint64_t v) { crc.update(&v, sizeof v); }

void feed_double(Crc32& crc, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  feed_u64(crc, bits);
}

void feed_data_path(Crc32& crc, const ckpt::DataPathStats& d) {
  feed_u64(crc, d.commits_full);
  feed_u64(crc, d.commits_delta);
  feed_u64(crc, d.payload_bytes_in);
  feed_u64(crc, d.delta_input_bytes);
  feed_u64(crc, d.delta_encoded_bytes);
  feed_u64(crc, d.local_bytes_written);
  feed_u64(crc, d.partner_bytes_written);
  feed_u64(crc, d.io_logical_bytes);
  feed_u64(crc, d.io_bytes_written);
  feed_u64(crc, d.dedup_new_bytes);
  feed_u64(crc, d.dedup_dup_bytes);
  feed_u64(crc, d.chain_links);
  feed_u64(crc, d.chain_replays);
}

std::string default_name(std::uint32_t tenant_id) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "t%04u", tenant_id);
  return buf;
}

}  // namespace

const char* to_string(SvcStatus status) {
  switch (status) {
    case SvcStatus::kOk: return "ok";
    case SvcStatus::kQueued: return "queued";
    case SvcStatus::kThrottled: return "throttled";
    case SvcStatus::kDeniedBackpressure: return "denied_backpressure";
    case SvcStatus::kDeniedQuota: return "denied_quota";
    case SvcStatus::kDegraded: return "degraded";
    case SvcStatus::kNoCheckpoint: return "no_checkpoint";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Session

Session::Session(CheckpointService& service, std::uint32_t tenant_id,
                 TenantSpec spec)
    : service_(service), tenant_id_(tenant_id), spec_(std::move(spec)) {
  quota_.byte_budget = spec_.qos.quota_bytes;
  quota_.op_budget = spec_.qos.quota_ops;

  const SvcConfig& cfg = service_.config_;
  ckpt::MultilevelConfig mc;
  mc.app_id = tenant_id_ + 1;
  mc.node_count = spec_.ranks;
  mc.nvm_capacity_bytes = cfg.per_rank_nvm_bytes;
  mc.partner_every = spec_.partner_every;
  mc.io_every = spec_.io_every;
  mc.io_codec = spec_.io_codec;
  mc.io_codec_level =
      spec_.io_codec == compress::CodecId::kNull ? 0 : 1;
  mc.pool = cfg.pool;
  if (spec_.delta_chain > 0) {
    mc.delta.enabled = true;
    mc.delta.chain_length = spec_.delta_chain;
    mc.delta.block_bytes = spec_.delta_block_bytes;
  }
  mc.local_write_hook = spec_.local_write_hook;
  // Every remote level is a window onto the service's shared devices: the
  // IO view carries this tenant's quota; partner host spaces get one
  // sub-slot each. The optional decorator (fault injection) wraps the
  // view, so injected damage lands inside this tenant's namespace only.
  mc.store_factory = [this](ckpt::StoreLevel level, std::uint32_t host)
      -> std::unique_ptr<ckpt::KvStore> {
    std::unique_ptr<ckpt::KvStore> view;
    if (level == ckpt::StoreLevel::kIo) {
      view = std::make_unique<ckpt::TenantStoreView>(
          service_.io_base_, tenant_id_, spec_.ranks, &quota_);
    } else {
      view = std::make_unique<ckpt::TenantStoreView>(
          service_.partner_base_, tenant_id_, spec_.ranks, nullptr,
          host + 1);
    }
    if (spec_.store_decorator) {
      return spec_.store_decorator(level, host, std::move(view));
    }
    return view;
  };
  manager_ = std::make_unique<ckpt::MultilevelManager>(mc);
}

bool Session::can_admit(std::size_t bytes) const {
  // Preview admission: admit() with preview set mutates nothing.
  auto& self = const_cast<Session&>(*this);
  return self.service_.admit(self, bytes, /*preview=*/true) ==
         SvcStatus::kQueued;
}

SvcStatus Session::start_checkpoint(const std::vector<ByteSpan>& payloads) {
  if (payloads.size() != spec_.ranks) {
    throw std::invalid_argument("svc: payload count != tenant ranks");
  }
  std::size_t bytes = 0;
  for (const ByteSpan p : payloads) bytes += p.size();
  const SvcStatus status = service_.admit(*this, bytes, /*preview=*/false);
  if (status != SvcStatus::kQueued) {
    if (service_.tracing()) {
      service_.config_.trace->instant(
          "refuse", "svc", tenant_id_,
          {obs::str("status", to_string(status)), obs::u64("bytes", bytes)});
    }
    return status;
  }
  StagedJob job;
  job.bytes = bytes;
  job.submit_vt = service_.vt_;
  job.payloads.reserve(payloads.size());
  for (const ByteSpan p : payloads) job.payloads.emplace_back(p.begin(), p.end());
  pending_.push_back(std::move(job));
  ++service_.backlog_jobs_;
  service_.backlog_bytes_ += bytes;
  ++stats_.accepted;
  if (service_.tracing()) {
    service_.config_.trace->instant("stage", "svc", tenant_id_,
                                    {obs::u64("bytes", bytes)});
  }
  return SvcStatus::kQueued;
}

SvcStatus Session::commit() {
  // Work-conserving: pumping serves every backlogged tenant in fair
  // order, so waiting for our own queue can never starve a neighbor.
  // Termination: a backlogged session's deficit grows by at least one
  // quantum per round, so any staged cost is eventually covered.
  while (!pending_.empty()) service_.pump_round();
  if (latest_ == 0) return SvcStatus::kNoCheckpoint;
  return manager_->health().any_degraded() ? SvcStatus::kDegraded
                                           : SvcStatus::kOk;
}

std::optional<Session::Restart> Session::restart() {
  ++stats_.restarts;
  auto recovery = manager_->recover();
  if (!recovery) return std::nullopt;
  Restart out;
  out.checkpoint_id = recovery->checkpoint_id;
  out.payloads = std::move(recovery->payloads);
  return out;
}

std::size_t Session::nvm_used_bytes() const {
  std::size_t used = 0;
  for (std::uint32_t rank = 0; rank < spec_.ranks; ++rank) {
    used += manager_->local_store(rank).used_bytes();
  }
  return used;
}

std::uint32_t Session::fingerprint() const {
  Crc32 crc;
  feed_u64(crc, stats_.accepted);
  feed_u64(crc, stats_.throttled);
  feed_u64(crc, stats_.denied_backpressure);
  feed_u64(crc, stats_.denied_quota);
  feed_u64(crc, stats_.committed);
  feed_u64(crc, stats_.committed_bytes);
  feed_u64(crc, stats_.restarts);
  feed_u64(crc, latest_);
  feed_u64(crc, quota_.bytes_charged);
  feed_u64(crc, quota_.ops_charged);
  feed_u64(crc, quota_.write_denials);
  feed_u64(crc, faults::health_fingerprint(manager_->health()));
  feed_data_path(crc, manager_->data_path());
  return crc.value();
}

// ---------------------------------------------------------------------------
// CheckpointService

CheckpointService::CheckpointService(const SvcConfig& config)
    : config_(config) {}

CheckpointService::~CheckpointService() = default;

bool CheckpointService::tracing() const {
  return config_.trace != nullptr && config_.trace->enabled();
}

Session& CheckpointService::open_session(TenantSpec spec) {
  if (spec.ranks == 0 || spec.ranks >= ckpt::kTenantSubSlotStride) {
    throw std::invalid_argument("svc: tenant ranks out of range");
  }
  const auto tenant_id = static_cast<std::uint32_t>(sessions_.size());
  if (spec.name.empty()) spec.name = default_name(tenant_id);
  sessions_.push_back(std::unique_ptr<Session>(
      new Session(*this, tenant_id, std::move(spec))));
  Session& session = *sessions_.back();
  if (tracing()) {
    config_.trace->set_track_name(tenant_id, "svc " + session.spec_.name);
  }
  return session;
}

SvcStatus CheckpointService::admit(Session& session, std::size_t bytes,
                                   bool preview) {
  if (session.quota_.exhausted()) {
    if (!preview) ++session.stats_.denied_quota;
    return SvcStatus::kDeniedQuota;
  }
  const double budget = static_cast<double>(config_.shared_nvm_bytes);
  const auto projected = static_cast<double>(nvm_used_bytes() +
                                             backlog_bytes_ + bytes);
  if (projected > config_.hard_fraction * budget) {
    if (!preview) ++session.stats_.denied_backpressure;
    return SvcStatus::kDeniedBackpressure;
  }
  if (projected > config_.soft_fraction * budget) {
    // Degrade-to-lower-frequency: admit every degrade_factor-th attempt.
    if (session.throttle_skip_ > 0) {
      if (!preview) {
        --session.throttle_skip_;
        ++session.stats_.throttled;
      }
      return SvcStatus::kThrottled;
    }
    if (!preview && config_.degrade_factor > 1) {
      session.throttle_skip_ = config_.degrade_factor - 1;
    }
    return SvcStatus::kQueued;
  }
  if (!preview) session.throttle_skip_ = 0;
  return SvcStatus::kQueued;
}

std::size_t CheckpointService::pump_round() {
  ++rounds_;
  std::size_t done = 0;
  for (const auto& sp : sessions_) {
    Session& s = *sp;
    if (s.pending_.empty()) {
      s.deficit_ = 0;  // classic DRR: no banking while idle
      continue;
    }
    s.deficit_ += config_.scheduler_quantum *
                  std::max<std::uint32_t>(1, s.spec_.qos.weight);
    while (!s.pending_.empty()) {
      const auto cost =
          std::max<std::uint64_t>(1, s.pending_.front().bytes);
      if (s.deficit_ < cost) break;
      s.deficit_ -= cost;
      Session::StagedJob job = std::move(s.pending_.front());
      s.pending_.pop_front();
      execute(s, std::move(job));
      ++done;
    }
    if (s.pending_.empty()) s.deficit_ = 0;
  }
  return done;
}

void CheckpointService::drain() {
  while (backlog_jobs_ > 0) pump_round();
}

void CheckpointService::execute(Session& session, Session::StagedJob job) {
  std::vector<ByteSpan> views(job.payloads.begin(), job.payloads.end());
  const std::uint64_t id = session.manager_->commit(views);
  --backlog_jobs_;
  backlog_bytes_ -= job.bytes;
  // Virtual clock: the shared IO path serves one checkpoint at a time,
  // so completion time is the running clock plus this job's service
  // time. Latency = completion - staging time; a starved tenant's queue
  // wait is visible here.
  vt_ += static_cast<double>(job.bytes) / config_.io_bandwidth +
         config_.io_op_seconds;
  session.latency_.record(std::max(vt_ - job.submit_vt, 1e-9));
  session.latest_ = id;
  ++session.stats_.committed;
  session.stats_.committed_bytes += job.bytes;
  ++completions_;
  feed_u64(completion_crc_, session.tenant_id_);
  feed_u64(completion_crc_, id);
  feed_u64(completion_crc_, job.bytes);
  if (tracing()) {
    config_.trace->instant("commit", "svc", session.tenant_id_,
                           {obs::u64("id", id),
                            obs::u64("bytes", job.bytes)});
  }
}

std::size_t CheckpointService::nvm_used_bytes() const {
  std::size_t used = 0;
  for (const auto& sp : sessions_) used += sp->nvm_used_bytes();
  return used;
}

double CheckpointService::jain_io() const {
  std::vector<double> shares;
  shares.reserve(sessions_.size());
  for (const auto& sp : sessions_) {
    shares.push_back(
        static_cast<double>(sp->manager().data_path().io_bytes_written));
  }
  return obs::jain_index(shares);
}

double CheckpointService::jain_io_weighted() const {
  std::vector<double> shares;
  shares.reserve(sessions_.size());
  for (const auto& sp : sessions_) {
    const double w = std::max<std::uint32_t>(1, sp->spec().qos.weight);
    shares.push_back(
        static_cast<double>(sp->manager().data_path().io_bytes_written) /
        w);
  }
  return obs::jain_index(shares);
}

void CheckpointService::export_metrics(obs::MetricsRegistry& metrics,
                                       std::string_view prefix) const {
  const std::string base(prefix);
  for (const auto& sp : sessions_) {
    const Session& s = *sp;
    const std::string p = base + "." + s.spec().name;
    const Session::Stats& st = s.stats();
    metrics.counter(p + ".accepted").add(st.accepted);
    metrics.counter(p + ".throttled").add(st.throttled);
    metrics.counter(p + ".denied_backpressure").add(st.denied_backpressure);
    metrics.counter(p + ".denied_quota").add(st.denied_quota);
    metrics.counter(p + ".commits").add(st.committed);
    metrics.counter(p + ".committed_bytes").add(st.committed_bytes);
    metrics.counter(p + ".restarts").add(st.restarts);
    metrics.counter(p + ".io_bytes")
        .add(s.manager().data_path().io_bytes_written);
    metrics.counter(p + ".quota_write_denials").add(s.quota().write_denials);
    metrics.gauge(p + ".weight")
        .set(static_cast<double>(s.spec().qos.weight));
    metrics.gauge(p + ".latency_p50").set(s.commit_latency().p50());
    metrics.gauge(p + ".latency_p99").set(s.commit_latency().p99());
  }
  metrics.gauge(base + ".fairness.jain_io").set(jain_io());
  metrics.gauge(base + ".fairness.jain_io_weighted").set(jain_io_weighted());
  metrics.gauge(base + ".nvm.used_bytes")
      .set(static_cast<double>(nvm_used_bytes()));
  metrics.gauge(base + ".nvm.budget_bytes")
      .set(static_cast<double>(config_.shared_nvm_bytes));
  metrics.gauge(base + ".virtual_time").set(vt_);
  metrics.counter(base + ".rounds").add(rounds_);
  metrics.counter(base + ".completions").add(completions_);
  metrics.counter(base + ".backlog_jobs").add(backlog_jobs_);
}

std::uint32_t CheckpointService::fingerprint() const {
  Crc32 crc = completion_crc_;  // running completion-sequence hash
  for (const auto& sp : sessions_) {
    feed_u64(crc, sp->fingerprint());
    feed_u64(crc, sp->commit_latency().count());
    feed_double(crc, sp->commit_latency().sum());
  }
  feed_double(crc, vt_);
  feed_u64(crc, rounds_);
  feed_u64(crc, completions_);
  feed_u64(crc, backlog_jobs_);
  feed_u64(crc, backlog_bytes_);
  return crc.value();
}

}  // namespace ndpcr::svc
