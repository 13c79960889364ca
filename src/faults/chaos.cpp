#include "faults/chaos.hpp"

#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ndpcr::faults {
namespace {

void feed_u64(Crc32& crc, std::uint64_t v) { crc.update(&v, sizeof v); }

void feed_double(Crc32& crc, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  feed_u64(crc, bits);
}

void feed_level(Crc32& crc, const ckpt::LevelHealth& h) {
  feed_u64(crc, static_cast<std::uint64_t>(h.state));
  feed_u64(crc, h.puts);
  feed_u64(crc, h.put_retries);
  feed_u64(crc, h.put_failures);
  feed_u64(crc, h.verify_failures);
  feed_u64(crc, h.quarantined);
  feed_u64(crc, h.read_retries);
  feed_u64(crc, h.degraded_commits);
  feed_u64(crc, h.repairs);
  feed_double(crc, h.backoff_seconds);
}

void violation(ChaosReport& report, std::string note) {
  ++report.violations;
  if (report.violation_notes.size() < 8) {
    report.violation_notes.push_back("seed " +
                                     std::to_string(report.seed) + ": " +
                                     std::move(note));
  }
}

// Counters may only grow, and a level may leave the degraded state only
// through a counted repair.
void check_level_monotone(ChaosReport& report, const char* name,
                          const ckpt::LevelHealth& prev,
                          const ckpt::LevelHealth& now) {
  const bool decreased =
      now.puts < prev.puts || now.put_retries < prev.put_retries ||
      now.put_failures < prev.put_failures ||
      now.verify_failures < prev.verify_failures ||
      now.quarantined < prev.quarantined ||
      now.read_retries < prev.read_retries ||
      now.degraded_commits < prev.degraded_commits ||
      now.repairs < prev.repairs ||
      now.backoff_seconds < prev.backoff_seconds;
  if (decreased) {
    violation(report, std::string(name) + " level counter decreased");
  }
  if (prev.degraded() && !now.degraded() && now.repairs <= prev.repairs) {
    violation(report, std::string(name) +
                          " level left degraded without a repair");
  }
}

void check_health_monotone(ChaosReport& report,
                           const ckpt::HealthReport& prev,
                           const ckpt::HealthReport& now) {
  check_level_monotone(report, "local", prev.local, now.local);
  check_level_monotone(report, "partner", prev.partner, now.partner);
  check_level_monotone(report, "io", prev.io, now.io);
  if (now.commits < prev.commits ||
      now.degraded_commits < prev.degraded_commits) {
    violation(report, "global health counter decreased");
  }
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

}  // namespace

Bytes chaos_payload(Rng& rng, std::size_t base_size) {
  Bytes payload(base_size + rng.next_below(256));
  std::size_t i = 0;
  while (i < payload.size()) {
    const std::uint64_t word = rng.next_u64();
    const std::size_t n = std::min(sizeof word, payload.size() - i);
    std::memcpy(payload.data() + i, &word, n);
    i += n;
  }
  return payload;
}

// Rewrite ~fraction of the payload at seeded positions: the sparse-update
// workload that gives the delta/dedup layers something to save.
void chaos_sparse_update(Rng& rng, Bytes& payload, double fraction) {
  if (payload.empty()) return;
  const auto touches = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(payload.size()) * fraction));
  for (std::uint64_t t = 0; t < touches; ++t) {
    const std::size_t pos = rng.next_below(payload.size());
    payload[pos] = static_cast<std::byte>(rng.next_below(256));
  }
}

ChaosReport run_chaos(const ChaosConfig& config) {
  ChaosReport report;
  report.seed = config.seed;

  auto plan = std::make_shared<FaultPlan>(config.seed, config.rates);
  if (config.io_outage) {
    // Blanket the middle third of the IO store's expected operation count
    // (puts + verify readbacks), so the run shows degradation and repair.
    const std::uint64_t io_commits =
        config.io_every > 0 ? config.commits / config.io_every : 0;
    const std::uint64_t expected_ops =
        2ull * config.node_count * std::max<std::uint64_t>(io_commits, 1);
    plan->add_outage(io_target(), expected_ops / 3,
                     2 * expected_ops / 3);
  }

  auto local_stats = std::make_shared<FaultStats>();
  std::vector<const FaultyKvStore*> tracked;

  // Per-store injection buffers: a deque for stable addresses (stores
  // keep raw pointers), spliced into the tracer in creation order after
  // the run. Tracks 32+ keep fault rows clear of the manager's ranks.
  obs::Tracer* tracer = config.trace;
  const bool tracing = tracer != nullptr && tracer->enabled();
  std::deque<obs::TraceBuffer> fault_bufs;

  ckpt::MultilevelConfig mc;
  mc.node_count = config.node_count;
  mc.nvm_capacity_bytes = (config.payload_bytes + 4096) * 4;
  mc.partner_every = config.partner_every;
  mc.io_every = config.io_every;
  mc.partner_scheme = config.scheme;
  mc.xor_group_size = config.xor_group_size;
  mc.io_codec = config.io_codec;
  mc.io_codec_level = config.io_codec == compress::CodecId::kNull ? 0 : 1;
  mc.io_chunk_bytes = config.io_chunk_bytes;
  mc.pool = config.pool;
  mc.trace = config.trace;
  if (config.delta_chain > 0) {
    mc.delta.enabled = true;
    mc.delta.chain_length = config.delta_chain;
    mc.delta.block_bytes = config.delta_block_bytes;
  }
  if (config.io_dedup) {
    mc.delta.io_dedup = true;
    // CDC parameters scaled to the KB-sized chaos payloads.
    mc.delta.cdc = {256, 512, 1024};
  }
  mc.store_factory = [&](ckpt::StoreLevel level, std::uint32_t host) {
    const Target target = level == ckpt::StoreLevel::kIo
                              ? io_target()
                              : partner_target(host);
    auto store = std::make_unique<FaultyKvStore>(plan, target);
    if (tracing) {
      const auto track = static_cast<std::uint32_t>(32 + fault_bufs.size());
      tracer->set_track_name(
          track, std::string(level == ckpt::StoreLevel::kIo ? "fault io h"
                                                            : "fault partner h") +
                     std::to_string(host));
      fault_bufs.emplace_back();
      store->set_trace(&fault_bufs.back(), track);
    }
    tracked.push_back(store.get());
    return store;
  };
  mc.local_write_hook = make_local_write_hook(plan, local_stats);
  ckpt::MultilevelManager manager(mc);

  Rng rng(exec::sub_seed(config.seed, 0xC4A05));
  std::map<std::uint64_t, std::vector<Bytes>> committed;
  std::uint64_t last_committed = 0;
  ckpt::HealthReport prev_health;
  Crc32 crc;

  auto probe_recovery = [&] {
    ++report.recover_calls;
    const auto recovery = manager.recover();
    check_health_monotone(report, prev_health, manager.health());
    prev_health = manager.health();
    if (!recovery) {
      ++report.unrecoverable;
      feed_u64(crc, 0);
      return;
    }
    ++report.recoveries;
    feed_u64(crc, recovery->checkpoint_id);
    if (recovery->checkpoint_id > last_committed) {
      violation(report, "recovered id " +
                            std::to_string(recovery->checkpoint_id) +
                            " newer than last committed " +
                            std::to_string(last_committed));
    }
    const auto it = committed.find(recovery->checkpoint_id);
    if (it == committed.end()) {
      violation(report, "recovered an id that was never committed");
      return;
    }
    for (std::uint32_t rank = 0; rank < config.node_count; ++rank) {
      feed_u64(crc, static_cast<std::uint64_t>(recovery->levels[rank]));
      if (recovery->payloads[rank] != it->second[rank]) {
        violation(report, "rank " + std::to_string(rank) +
                              " payload mismatch at id " +
                              std::to_string(recovery->checkpoint_id));
      }
    }
  };

  // Sparse-update mode: persistent per-rank state, perturbed a little
  // each commit (sizes stay fixed so consecutive checkpoints align).
  std::vector<Bytes> state;
  if (config.sparse_updates) {
    state.reserve(config.node_count);
    for (std::uint32_t rank = 0; rank < config.node_count; ++rank) {
      state.push_back(chaos_payload(rng, config.payload_bytes));
    }
  }

  for (std::uint32_t i = 0; i < config.commits; ++i) {
    std::vector<Bytes> payloads;
    payloads.reserve(config.node_count);
    for (std::uint32_t rank = 0; rank < config.node_count; ++rank) {
      if (config.sparse_updates) {
        chaos_sparse_update(rng, state[rank], config.update_fraction);
        payloads.push_back(state[rank]);
      } else {
        payloads.push_back(chaos_payload(rng, config.payload_bytes));
      }
    }
    std::vector<ByteSpan> views(payloads.begin(), payloads.end());
    const std::uint64_t id = manager.commit(views);
    ++report.commits;
    last_committed = id;
    committed.emplace(id, std::move(payloads));
    check_health_monotone(report, prev_health, manager.health());
    prev_health = manager.health();

    if (rng.next_double() < config.p_fail_node) {
      const auto victim =
          static_cast<std::uint32_t>(rng.next_below(config.node_count));
      manager.fail_node(victim);
      ++report.node_failures;
      if (tracing) {
        tracer->instant("node_failure", "chaos", 0,
                        {obs::u64("rank", victim), obs::u64("commit", i)});
      }
    }
    if (rng.next_double() < config.p_corrupt) {
      const auto level = rng.next_below(3);
      const auto rank =
          static_cast<std::uint32_t>(rng.next_below(config.node_count));
      const bool did = level == 0   ? manager.corrupt_local(rank)
                       : level == 1 ? manager.corrupt_partner(rank)
                                    : manager.corrupt_io(rank);
      if (did) ++report.corruptions;
      if (tracing) {
        tracer->instant(
            "silent_corruption", "chaos", 0,
            {obs::str("level", level == 0   ? "local"
                               : level == 1 ? "partner"
                                            : "io"),
             obs::u64("rank", rank), obs::u64("hit", did ? 1 : 0)});
      }
    }
    if (rng.next_double() < config.p_recover) probe_recovery();
  }
  probe_recovery();  // every run ends with a full recovery check

  report.health = manager.health();
  report.data = manager.data_path();
  report.faults = *local_stats;
  for (const FaultyKvStore* store : tracked) {
    report.faults += store->stats();
  }

  if (tracing) {
    // Fault rows land after the commit/recover spans; within a row the
    // events keep the store's deterministic op order.
    if (obs::TraceBuffer* rb = tracer->root()) {
      for (obs::TraceBuffer& buf : fault_bufs) rb->append(std::move(buf));
    }
  }
  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    ckpt::record_health(m, report.health, "chaos");
    ckpt::record_data_path(m, report.data, "chaos.data");
    m.counter("chaos.run.commits").add(report.commits);
    m.counter("chaos.run.recover_calls").add(report.recover_calls);
    m.counter("chaos.run.recoveries").add(report.recoveries);
    m.counter("chaos.run.unrecoverable").add(report.unrecoverable);
    m.counter("chaos.run.node_failures").add(report.node_failures);
    m.counter("chaos.run.corruptions").add(report.corruptions);
    m.counter("chaos.run.violations").add(report.violations);
    m.counter("chaos.faults.ops").add(report.faults.ops);
    m.counter("chaos.faults.injected").add(report.faults.injected());
    m.gauge("chaos.faults.stall_seconds").set(report.faults.stall_seconds);
  }

  feed_u64(crc, report.commits);
  feed_u64(crc, report.recover_calls);
  feed_u64(crc, report.recoveries);
  feed_u64(crc, report.unrecoverable);
  feed_u64(crc, report.node_failures);
  feed_u64(crc, report.corruptions);
  feed_u64(crc, report.violations);
  feed_level(crc, report.health.local);
  feed_level(crc, report.health.partner);
  feed_level(crc, report.health.io);
  feed_u64(crc, report.health.commits);
  feed_u64(crc, report.health.degraded_commits);
  feed_data_path(crc, report.data);
  feed_u64(crc, report.faults.ops);
  feed_u64(crc, report.faults.injected());
  feed_double(crc, report.faults.stall_seconds);
  report.fingerprint = crc.value();
  return report;
}

std::vector<ChaosReport> run_chaos_suite(
    const std::vector<ChaosConfig>& configs, exec::TaskPool& pool) {
  return pool.parallel_map(configs.size(), [&](std::size_t i) {
    return run_chaos(configs[i]);
  });
}

std::uint32_t health_fingerprint(const ckpt::HealthReport& health) {
  Crc32 crc;
  feed_level(crc, health.local);
  feed_level(crc, health.partner);
  feed_level(crc, health.io);
  feed_u64(crc, health.commits);
  feed_u64(crc, health.degraded_commits);
  return crc.value();
}

std::uint32_t suite_fingerprint(const std::vector<ChaosReport>& reports) {
  Crc32 crc;
  for (const ChaosReport& report : reports) {
    feed_u64(crc, report.fingerprint);
    feed_u64(crc, report.violations);
  }
  return crc.value();
}

}  // namespace ndpcr::faults
