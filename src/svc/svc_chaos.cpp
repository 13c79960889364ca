#include "svc/svc_chaos.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "exec/task_pool.hpp"
#include "faults/chaos.hpp"  // chaos_payload / chaos_sparse_update
#include "faults/faulty_stores.hpp"
#include "obs/metrics.hpp"

namespace ndpcr::svc {
namespace {

void feed_u64(Crc32& crc, std::uint64_t v) { crc.update(&v, sizeof v); }

void violation(SvcChaosReport& report, std::string note) {
  ++report.violations;
  if (report.violation_notes.size() < 8) {
    report.violation_notes.push_back(
        "seed " + std::to_string(report.seed) + ": " + std::move(note));
  }
}

}  // namespace

SvcChaosReport run_svc_chaos(const SvcChaosConfig& config) {
  SvcChaosReport report;
  report.seed = config.seed;
  report.tenants = config.tenants;

  const std::size_t per_rank_nvm = (config.payload_bytes + 4096) * 4;

  // Tenant population: heterogeneous on purpose. Ranks, weights, IO
  // cadence, codec and delta policy all rotate by tenant id, so the
  // shared devices see realistically mixed traffic.
  std::uint64_t total_ranks = 0;
  for (std::uint32_t t = 0; t < config.tenants; ++t) {
    total_ranks += 1 + (t % 2);
  }

  SvcConfig sc;
  sc.seed = config.seed;
  sc.per_rank_nvm_bytes = per_rank_nvm;
  sc.shared_nvm_bytes =
      config.nvm_budget_fraction > 0.0
          ? static_cast<std::size_t>(config.nvm_budget_fraction *
                                     static_cast<double>(total_ranks) *
                                     static_cast<double>(per_rank_nvm))
          : static_cast<std::size_t>(total_ranks) * per_rank_nvm;
  sc.scheduler_quantum = config.payload_bytes * 2;
  sc.pool = config.pool;
  sc.trace = config.trace;
  CheckpointService service(sc);

  // Per-tenant fault machinery. Outer vectors are sized once: the
  // decorator lambdas capture pointers into them.
  std::vector<std::vector<const faults::FaultyKvStore*>> decorators(
      config.tenants);
  std::vector<std::shared_ptr<faults::FaultStats>> local_stats(
      config.tenants);

  for (std::uint32_t t = 0; t < config.tenants; ++t) {
    TenantSpec spec;
    spec.ranks = 1 + (t % 2);
    spec.qos.weight = 1u << (t % 3);  // weights 1 / 2 / 4
    spec.io_every = (t % 7 == 3) ? 2 : 1;
    spec.partner_every = 1;
    if (t % 16 == 5) spec.io_codec = compress::CodecId::kRle;
    if (t % 4 == 1) spec.delta_chain = 3;
    if (config.quota_every > 0 && t % config.quota_every ==
                                      config.quota_every - 1) {
      // An IO grant sized to exhaust mid-run: byte headroom runs out for
      // seam denials, the op grant hits exactly for admission denials.
      spec.qos.quota_bytes = static_cast<std::uint64_t>(spec.ranks) *
                             (config.payload_bytes + 512) *
                             std::max<std::uint32_t>(1, config.waves / 2);
      spec.qos.quota_ops =
          static_cast<std::uint64_t>(spec.ranks) * 3 * config.waves;
    }
    const bool faulted = config.faults && config.rates.any() && (t % 2 == 1);
    if (faulted) {
      auto plan = std::make_shared<faults::FaultPlan>(
          exec::sub_seed(config.seed, t, 1), config.rates);
      auto* bucket = &decorators[t];
      spec.store_decorator =
          [plan, bucket](ckpt::StoreLevel level, std::uint32_t host,
                         std::unique_ptr<ckpt::KvStore> view)
          -> std::unique_ptr<ckpt::KvStore> {
        const faults::Target target = level == ckpt::StoreLevel::kIo
                                          ? faults::io_target()
                                          : faults::partner_target(host);
        auto store = std::make_unique<faults::FaultyKvStore>(
            plan, target, std::move(view));
        bucket->push_back(store.get());
        return store;
      };
      local_stats[t] = std::make_shared<faults::FaultStats>();
      spec.local_write_hook =
          faults::make_local_write_hook(plan, local_stats[t]);
    }
    service.open_session(std::move(spec));
  }

  // Persistent per-rank tenant state (sparse-update workload), and the
  // committed-payload ledger the restart probes verify against. Each
  // tenant's workload stream is its own sub-seed: what tenant A stages
  // never depends on what happened to tenant B.
  std::vector<Rng> tenant_rng;
  std::vector<std::vector<Bytes>> state(config.tenants);
  tenant_rng.reserve(config.tenants);
  for (std::uint32_t t = 0; t < config.tenants; ++t) {
    tenant_rng.emplace_back(exec::sub_seed(config.seed, t, 0));
    const std::uint32_t ranks = service.session(t).spec().ranks;
    state[t].reserve(ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      state[t].push_back(
          faults::chaos_payload(tenant_rng[t], config.payload_bytes));
    }
  }
  std::vector<std::deque<std::vector<Bytes>>> staged_copies(config.tenants);
  std::vector<std::vector<std::vector<Bytes>>> committed_payloads(
      config.tenants);
  std::vector<std::uint64_t> recorded(config.tenants, 0);

  // Move staged copies to the committed ledger as the scheduler lands
  // them (per-tenant FIFO; manager ids are sequential from 1).
  auto settle = [&] {
    for (std::uint32_t t = 0; t < config.tenants; ++t) {
      while (recorded[t] < service.session(t).stats().committed) {
        committed_payloads[t].push_back(std::move(staged_copies[t].front()));
        staged_copies[t].pop_front();
        ++recorded[t];
      }
    }
  };

  auto probe_restart = [&](std::uint32_t t) {
    Session& s = service.session(t);
    ++report.restarts;
    auto restart = s.restart();
    if (!restart) {
      if (s.latest() != 0) {
        violation(report, "tenant " + std::to_string(t) +
                              " has latest " + std::to_string(s.latest()) +
                              " but failed to restart");
      } else {
        ++report.no_checkpoint;
      }
      return;
    }
    ++report.restored;
    const std::uint64_t id = restart->checkpoint_id;
    if (id > s.latest()) {
      violation(report, "tenant " + std::to_string(t) + " restarted id " +
                            std::to_string(id) + " newer than latest " +
                            std::to_string(s.latest()));
      return;
    }
    if (id == 0 || id > committed_payloads[t].size()) {
      violation(report, "tenant " + std::to_string(t) +
                            " restarted an id never committed");
      return;
    }
    const std::vector<Bytes>& expect = committed_payloads[t][id - 1];
    for (std::uint32_t r = 0; r < s.spec().ranks; ++r) {
      if (restart->payloads[r] != expect[r]) {
        violation(report, "tenant " + std::to_string(t) + " rank " +
                              std::to_string(r) +
                              " payload mismatch at id " +
                              std::to_string(id));
      }
    }
  };

  // The seeded schedule: every draw below happens unconditionally, so
  // the interleaving is a pure function of the seed - fault outcomes and
  // admission refusals can never shift it.
  Rng sched(exec::sub_seed(config.seed, 0x5C4ED, 0));
  std::vector<std::uint32_t> order(config.tenants);
  for (std::uint32_t t = 0; t < config.tenants; ++t) order[t] = t;

  for (std::uint32_t wave = 0; wave < config.waves; ++wave) {
    // Fisher-Yates over the staging order.
    for (std::uint32_t i = config.tenants; i > 1; --i) {
      const auto j = static_cast<std::uint32_t>(sched.next_below(i));
      std::swap(order[i - 1], order[j]);
    }
    for (const std::uint32_t t : order) {
      Session& s = service.session(t);
      for (std::uint32_t r = 0; r < s.spec().ranks; ++r) {
        faults::chaos_sparse_update(tenant_rng[t], state[t][r],
                                    config.update_fraction);
      }
      std::vector<ByteSpan> views(state[t].begin(), state[t].end());
      const SvcStatus status = s.start_checkpoint(views);
      if (status == SvcStatus::kQueued) {
        staged_copies[t].push_back(state[t]);  // copy: the ledger's truth
      }
      if (sched.next_double() < 0.25) {
        service.pump_round();
        settle();
      }
    }
    const std::uint64_t extra_rounds = sched.next_below(3) + 1;
    for (std::uint64_t i = 0; i < extra_rounds; ++i) service.pump_round();
    settle();
    for (std::uint32_t t = 0; t < config.tenants; ++t) {
      if (sched.next_double() < config.p_restart) probe_restart(t);
    }
  }
  service.drain();
  settle();
  // Every run ends with a full sweep: all tenants must restart clean.
  for (std::uint32_t t = 0; t < config.tenants; ++t) probe_restart(t);

  // Aggregate outcomes.
  for (std::uint32_t t = 0; t < config.tenants; ++t) {
    const Session& s = service.session(t);
    const Session::Stats& st = s.stats();
    report.staged += st.accepted;
    report.committed += st.committed;
    report.throttled += st.throttled;
    report.denied_backpressure += st.denied_backpressure;
    report.denied_quota += st.denied_quota;
    report.quota_write_denials += s.quota().write_denials;
    for (const faults::FaultyKvStore* store : decorators[t]) {
      report.fault_injections += store->stats().injected();
    }
    if (local_stats[t]) report.fault_injections += local_stats[t]->injected();
    report.tenant_fingerprints.push_back(s.fingerprint());
  }
  report.jain_io = service.jain_io();
  report.jain_io_weighted = service.jain_io_weighted();
  report.virtual_time = service.virtual_time();
  report.service_fingerprint = service.fingerprint();

  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    service.export_metrics(m, "svc");
    m.counter("svc.chaos.staged").add(report.staged);
    m.counter("svc.chaos.committed").add(report.committed);
    m.counter("svc.chaos.throttled").add(report.throttled);
    m.counter("svc.chaos.denied_backpressure")
        .add(report.denied_backpressure);
    m.counter("svc.chaos.denied_quota").add(report.denied_quota);
    m.counter("svc.chaos.restarts").add(report.restarts);
    m.counter("svc.chaos.restored").add(report.restored);
    m.counter("svc.chaos.fault_injections").add(report.fault_injections);
    m.counter("svc.chaos.violations").add(report.violations);
  }

  Crc32 crc;
  feed_u64(crc, report.staged);
  feed_u64(crc, report.committed);
  feed_u64(crc, report.throttled);
  feed_u64(crc, report.denied_backpressure);
  feed_u64(crc, report.denied_quota);
  feed_u64(crc, report.quota_write_denials);
  feed_u64(crc, report.restarts);
  feed_u64(crc, report.restored);
  feed_u64(crc, report.no_checkpoint);
  feed_u64(crc, report.fault_injections);
  feed_u64(crc, report.violations);
  for (const std::uint32_t fp : report.tenant_fingerprints) {
    feed_u64(crc, fp);
  }
  feed_u64(crc, report.service_fingerprint);
  report.fingerprint = crc.value();
  return report;
}

}  // namespace ndpcr::svc
