#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ckpt/store_writer.hpp"
#include "common/rng.hpp"
#include "faults/faulty_stores.hpp"
#include "ndp/agent.hpp"
#include "obs/trace.hpp"
#include "workloads/miniapp.hpp"

namespace ndpcr::cluster {
namespace {

// Every bound is written so that NaN fails it: `!(x > 0)` rejects NaN
// where `x <= 0` would let it through.
bool positive(double x) { return std::isfinite(x) && x > 0; }
bool non_negative(double x) { return std::isfinite(x) && x >= 0; }

// Drain pipeline chunk (input bytes): chunk j+1 compresses while chunk j
// is on the IO wire.
constexpr std::size_t kNdpChunkBytes = 32ull << 10;

}  // namespace

ClusterSim::ClusterSim(const ClusterSimConfig& config) : cfg_(config) {
  if (cfg_.node_count == 0 || cfg_.total_steps == 0 ||
      cfg_.steps_per_checkpoint == 0) {
    throw std::invalid_argument(
        "node_count, total_steps and steps_per_checkpoint must be > 0");
  }
  if (!positive(cfg_.aggregate_io_bw) || !positive(cfg_.ndp_compress_bw)) {
    throw std::invalid_argument("bandwidths must be positive and finite");
  }
  if (!positive(cfg_.node_mttf) || !positive(cfg_.step_time)) {
    throw std::invalid_argument(
        "node_mttf and step_time must be positive and finite");
  }
  if (!non_negative(cfg_.local_commit_time.value_or(0.0)) ||
      !non_negative(cfg_.local_restore_time)) {
    throw std::invalid_argument(
        "local commit and restore times must be >= 0 and finite");
  }
  if (!(cfg_.p_local_recovery >= 0 && cfg_.p_local_recovery <= 1)) {
    throw std::invalid_argument("p_local_recovery must be in [0, 1]");
  }
  if (cfg_.ndp_agents && cfg_.io_every != 0) {
    throw std::invalid_argument(
        "with ndp_agents the agents write the IO level: io_every must be 0");
  }
}

ClusterSimResult ClusterSim::run() {
  ClusterSimResult result;
  Rng rng(cfg_.seed);
  const std::uint32_t n = cfg_.node_count;
  const double commit_time =
      cfg_.local_commit_time.value_or(0.1 * cfg_.step_time);
  obs::Tracer& tracer =
      cfg_.trace != nullptr ? *cfg_.trace : obs::Tracer::null();
  // The manager keeps tracks 0..n; the agents follow the simulation's row.
  const std::uint32_t sim_track = n + 1;
  if (tracer.enabled()) tracer.set_track_name(sim_track, "cluster");

  // One mini-app instance per rank (distinct seeds: ranks hold different
  // subdomains).
  auto make_rank = [&](std::uint32_t r) {
    return workloads::make_miniapp(cfg_.app, cfg_.state_bytes_per_rank,
                                   cfg_.seed * 1000 + r);
  };
  std::vector<std::unique_ptr<workloads::MiniApp>> ranks;
  ranks.reserve(n);
  for (std::uint32_t r = 0; r < n; ++r) ranks.push_back(make_rank(r));

  // Remote stores, optionally seen through a seeded fault plan; the
  // manager's retry/verify/degrade machinery (and the agents' drain
  // retries) absorb what they can and report the rest through
  // `result.health`. The IO store (the PFS) is the simulation's: writes
  // and restores go through `io`, the simulation's own size and inventory
  // reads use `pfs` and draw no faults.
  std::shared_ptr<faults::FaultPlan> plan;
  if (cfg_.partner_faults.any() || cfg_.io_faults.any()) {
    const std::uint64_t fault_seed =
        cfg_.fault_seed != 0 ? cfg_.fault_seed : cfg_.seed * 0x9E37 + 1;
    plan = std::make_shared<faults::FaultPlan>(fault_seed);
    for (std::uint32_t host = 0; host < n; ++host) {
      plan->set_rates(faults::partner_target(host), cfg_.partner_faults);
    }
    plan->set_rates(faults::io_target(), cfg_.io_faults);
  }
  ckpt::KvStore pfs;
  std::unique_ptr<ckpt::KvStore> io_store =
      std::make_unique<ckpt::ForwardingKvStore>(pfs);
  if (plan) {
    io_store = std::make_unique<faults::FaultyKvStore>(
        plan, faults::io_target(), std::move(io_store));
  }
  ckpt::KvStore& io = *io_store;
  // Moving `id` to or from the PFS takes its largest rank copy (of the
  // ranks `from_pfs` selects) through one node's share of the IO
  // bandwidth, whoever wrote it: the manager's IO level or an agent.
  const double io_share = cfg_.aggregate_io_bw / n;
  auto io_seconds = [&](std::uint64_t id, const auto& from_pfs) {
    std::size_t bytes = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      if (!from_pfs(r)) continue;
      if (const auto entry = pfs.get(r, id)) {
        bytes = std::max(bytes, entry->size());
      }
    }
    return static_cast<double>(bytes) / io_share;
  };

  // Each node's NVM is the manager's local level and, with agents on,
  // the agent drains it: the agent reads what the manager committed.
  std::vector<std::shared_ptr<ckpt::NvmStore>> nvm;
  std::vector<std::unique_ptr<ndp::NdpAgent>> agents;
  for (std::uint32_t r = 0; r < n; ++r) {
    nvm.push_back(std::make_shared<ckpt::NvmStore>(cfg_.nvm_capacity_bytes));
    if (!cfg_.ndp_agents) continue;
    ndp::AgentConfig ac;
    ac.compressed_capacity = cfg_.nvm_capacity_bytes / 4;
    ac.codec = cfg_.io_codec;
    ac.codec_level = cfg_.io_codec_level;
    ac.chunk_bytes = kNdpChunkBytes;
    ac.compress_bw = cfg_.ndp_compress_bw;
    ac.io_bw = io_share;
    ac.rank = r;
    ac.trace = cfg_.trace;
    ac.trace_track = sim_track + 1 + 3 * r;
    agents.push_back(std::make_unique<ndp::NdpAgent>(ac, io, nvm[r]));
  }

  ckpt::MultilevelConfig mc;
  mc.trace = cfg_.trace;
  mc.node_count = n;
  mc.partner_every = cfg_.partner_every;
  mc.partner_scheme = cfg_.partner_scheme;
  mc.xor_group_size = cfg_.xor_group_size;
  mc.io_every = cfg_.io_every;
  mc.io_codec = cfg_.io_codec;
  mc.io_codec_level = cfg_.io_codec_level;
  mc.nvm_factory = [&](std::uint32_t r) { return nvm[r]; };
  // Partner spaces are node memory fail_node() clears, never the PFS.
  mc.store_factory = [&](ckpt::StoreLevel level, std::uint32_t host)
      -> std::unique_ptr<ckpt::KvStore> {
    if (level == ckpt::StoreLevel::kIo) {
      return std::make_unique<ckpt::ForwardingKvStore>(io);
    }
    if (plan) {
      return std::make_unique<faults::FaultyKvStore>(
          plan, faults::partner_target(host));
    }
    return std::make_unique<ckpt::KvStore>();
  };
  ckpt::MultilevelManager manager(mc);

  // Virtual-time failure schedule: next failure instant for the whole
  // system (superposition of per-node exponentials), with the victim node
  // drawn uniformly.
  const double system_mttf = cfg_.node_mttf / static_cast<double>(n);
  double now = 0.0;
  double next_failure = rng.exponential(system_mttf);

  std::uint64_t step = 0;
  std::uint64_t high_water = 0;

  auto pump_all = [&](double seconds) {
    for (auto& agent : agents) {
      // `now` was already advanced past this pump window; align each
      // agent's virtual clock with the window start so drain spans land
      // on the simulation timeline.
      agent->sync_clock(now - seconds);
      agent->pump(seconds);
    }
  };

  // Drains the agents abandoned (IO permanently down or retries
  // exhausted) fall back to a synchronous host write - verified, with its
  // own small retry budget - so a flaky PFS costs host time instead of
  // losing the generation.
  auto collect_fallbacks = [&] {
    for (std::uint32_t r = 0; r < agents.size(); ++r) {
      auto fallback = agents[r]->take_host_fallback();
      if (!fallback) continue;
      // One durable-write primitive (ckpt/store_writer.hpp) under a
      // 3-attempt budget; a permanent put error ends it early.
      const auto digest = ckpt::digest_of(ByteSpan(fallback->compressed));
      bool landed = false;
      for (int attempt = 0; attempt < 3 && !landed; ++attempt) {
        const ckpt::PutOutcome out = ckpt::verified_put_once(
            io, r, fallback->checkpoint_id, Bytes(fallback->compressed),
            digest, /*verify=*/true);
        landed = out.ok;
        if (out.put_permanent) break;
      }
      if (landed) {
        now += static_cast<double>(fallback->compressed.size()) / io_share;
        ++result.host_fallback_writes;
      } else {
        ++result.host_fallback_drops;
      }
      tracer.instant_at(now,
                        landed ? "host_fallback_write" : "host_fallback_drop",
                        "cluster", sim_track,
                        {obs::u64("rank", r),
                         obs::u64("id", fallback->checkpoint_id)});
    }
  };

  // A failure keeps every NVM (transient) or wipes one node's, and then
  // every rank rolls back to the newest checkpoint recover() reaches.
  auto handle_failure = [&] {
    ++result.failures;
    next_failure = now + rng.exponential(system_mttf);
    const bool transient = cfg_.p_local_recovery > 0 &&
                           rng.next_double() < cfg_.p_local_recovery;
    if (transient) {
      tracer.instant_at(now, "transient_failure", "cluster", sim_track,
                        {obs::u64("step", step)});
    } else {
      const auto victim = static_cast<std::uint32_t>(rng.next_below(n));
      if (!agents.empty()) agents[victim]->reset();
      manager.fail_node(victim);
      tracer.instant_at(now, "node_failure", "cluster", sim_track,
                        {obs::u64("rank", victim), obs::u64("step", step)});
    }

    const auto rec = manager.recover();
    if (!rec) {
      // Nothing recoverable anywhere: restart the run from step 0.
      ++result.unrecoverable;
      tracer.instant_at(now, "scratch_restart", "cluster", sim_track,
                        {obs::u64("steps_lost", step)});
      for (std::uint32_t r = 0; r < n; ++r) ranks[r] = make_rank(r);
      result.steps_rerun += step;
      step = 0;
      return;
    }
    ++result.recoveries;
    std::uint64_t io_ranks = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      ranks[r]->restore(rec->payloads[r]);
      switch (rec->levels[r]) {
        case ckpt::RecoveryLevel::kLocal:
          ++result.local_level_ranks;
          break;
        case ckpt::RecoveryLevel::kPartner:
          ++result.partner_level_ranks;
          break;
        case ckpt::RecoveryLevel::kIo:
          ++result.io_level_ranks;
          ++io_ranks;
          break;
      }
    }
    if (io_ranks > 0) ++result.io_recoveries;
    // Coordinated restore time; an IO read, if any, dominates.
    now += std::max(cfg_.local_restore_time,
                    io_seconds(rec->checkpoint_id, [&](std::uint32_t r) {
                      return rec->levels[r] == ckpt::RecoveryLevel::kIo;
                    }));
    const std::uint64_t restored_step = ranks[0]->step_count();
    result.steps_rerun += step - restored_step;
    tracer.instant_at(now, "recovery", "cluster", sim_track,
                      {obs::u64("id", rec->checkpoint_id),
                       obs::u64("from_step", step),
                       obs::u64("to_step", restored_step),
                       obs::u64("io_ranks", io_ranks)});
    step = restored_step;
  };

  while (step < cfg_.total_steps) {
    // Advance one checkpoint period (or to completion) while every NDP
    // pumps.
    const std::uint64_t burst = std::min<std::uint64_t>(
        cfg_.steps_per_checkpoint, cfg_.total_steps - step);
    bool failed = false;
    for (std::uint64_t s = 0; s < burst; ++s) {
      now += cfg_.step_time;
      pump_all(cfg_.step_time);
      collect_fallbacks();
      if (now >= next_failure) {
        failed = true;
        break;
      }
      for (auto& rank : ranks) rank->step();
      ++step;
      ++result.steps_completed;
      if (step > high_water) {
        high_water = step;
        result.compute_seconds += cfg_.step_time;
      }
    }
    if (failed) {
      handle_failure();
      continue;
    }
    if (step >= cfg_.total_steps) break;

    // Coordinated checkpoint: capture every rank, commit through the
    // multilevel manager. The host owns the NVM meanwhile (no pumping).
    now += commit_time;
    std::vector<Bytes> images(n);
    std::vector<ByteSpan> views(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      images[r] = ranks[r]->checkpoint();
      views[r] = images[r];
      // If the NVM is wedged behind a locked drain, let the drain finish
      // first (the host stall the paper describes). Only a drain locks
      // NVM entries: with none in flight the image can never fit, and
      // waiting would spin forever. The manager stores images framed.
      while (!nvm[r]->fits(ckpt::CheckpointImage::kHeaderSize +
                           images[r].size())) {
        if (agents.empty() || !agents[r]->busy()) {
          throw std::runtime_error("checkpoint image exceeds the node NVM");
        }
        agents[r]->sync_clock(now);
        const double drained = agents[r]->pump(cfg_.step_time);
        now += drained > 0 ? drained : cfg_.step_time;
      }
    }
    const std::uint64_t id = manager.commit(views);
    // The host waits for its own IO write; agents drain after this point.
    now += io_seconds(id, [](std::uint32_t) { return true; });
    ++result.checkpoints;
    tracer.instant_at(now, "checkpoint", "cluster", sim_track,
                      {obs::u64("id", id), obs::u64("step", step)});
    for (auto& agent : agents) agent->local_committed(id);
    collect_fallbacks();
  }

  // Newest generation every rank's copy reached the PFS with (drains skip
  // generations, and a reset agent forgets what it drained).
  std::uint64_t& on_io = result.newest_io_checkpoint;
  for (on_io = manager.last_checkpoint_id(); on_io > 0; --on_io) {
    std::uint32_t r = 0;
    while (r < n && pfs.contains(r, on_io)) ++r;
    if (r == n) break;
  }
  result.virtual_seconds = now;

  // Validate: all ranks agree on the step count and their digests are
  // reproducible through a checkpoint/restore round trip.
  result.state_verified = true;
  for (auto& rank : ranks) {
    if (rank->step_count() != ranks[0]->step_count()) {
      result.state_verified = false;
    }
    const auto digest_before = rank->state_digest();
    const Bytes image = rank->checkpoint();
    rank->restore(image);
    if (rank->state_digest() != digest_before) result.state_verified = false;
  }
  result.health = manager.health();
  for (const auto& agent : agents) result.health.io += agent->drain_health();
  return result;
}

}  // namespace ndpcr::cluster
