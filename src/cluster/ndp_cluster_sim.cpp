#include "cluster/ndp_cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/multilevel.hpp"
#include "ckpt/nvm_store.hpp"
#include "ckpt/store_writer.hpp"
#include "ckpt/stores.hpp"
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

}  // namespace

NdpClusterSim::NdpClusterSim(const NdpClusterConfig& config) : cfg_(config) {
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
  if (!non_negative(cfg_.local_commit_time) ||
      !non_negative(cfg_.local_restore_time)) {
    throw std::invalid_argument(
        "local commit and restore times must be >= 0 and finite");
  }
  if (!(cfg_.p_local_recovery >= 0 && cfg_.p_local_recovery <= 1)) {
    throw std::invalid_argument("p_local_recovery must be in [0, 1]");
  }
}

NdpClusterResult NdpClusterSim::run() {
  NdpClusterResult result;
  Rng rng(cfg_.seed);
  const auto n = cfg_.node_count;
  obs::Tracer& tracer =
      cfg_.trace != nullptr ? *cfg_.trace : obs::Tracer::null();
  if (tracer.enabled()) tracer.set_track_name(0, "cluster");

  auto make_rank = [&](std::uint32_t r) {
    return workloads::make_miniapp(cfg_.app, cfg_.state_bytes_per_rank,
                                   cfg_.seed * 977 + r);
  };
  std::vector<std::unique_ptr<workloads::MiniApp>> ranks;
  for (std::uint32_t r = 0; r < n; ++r) ranks.push_back(make_rank(r));

  // One shared IO store (the PFS), optionally seen through a seeded fault
  // plan; each agent gets the paper's static per-node share of the
  // aggregate IO bandwidth. Stores and restores go through `io`; the
  // simulation's own size and inventory reads use `pfs` and draw no faults.
  ckpt::KvStore pfs;
  std::unique_ptr<ckpt::KvStore> io_store =
      std::make_unique<ckpt::ForwardingKvStore>(pfs);
  if (cfg_.io_fault_rates.any()) {
    const std::uint64_t fault_seed =
        cfg_.fault_seed != 0 ? cfg_.fault_seed : cfg_.seed * 0x9E37 + 5;
    auto plan = std::make_shared<faults::FaultPlan>(fault_seed);
    plan->set_rates(faults::io_target(), cfg_.io_fault_rates);
    io_store = std::make_unique<faults::FaultyKvStore>(
        std::move(plan), faults::io_target(), std::move(io_store));
  }
  ckpt::KvStore& io = *io_store;

  // The host's manager writes only the local level, into each node's NVM,
  // and its agent drains that NVM to IO: recover() reads local NVM, then
  // the drained copy. The manager runs untraced (the tracks are ours).
  std::vector<std::shared_ptr<ckpt::NvmStore>> nvm;
  std::vector<std::unique_ptr<ndp::NdpAgent>> agents;
  for (std::uint32_t r = 0; r < n; ++r) {
    nvm.push_back(std::make_shared<ckpt::NvmStore>(cfg_.nvm_capacity_bytes));
    ndp::AgentConfig ac;
    ac.compressed_capacity = cfg_.nvm_capacity_bytes / 4;
    ac.codec = cfg_.codec;
    ac.codec_level = cfg_.codec_level;
    ac.chunk_bytes = cfg_.ndp_chunk_bytes;
    ac.compress_bw = cfg_.ndp_compress_bw;
    ac.io_bw = cfg_.aggregate_io_bw / n;
    ac.rank = r;
    ac.trace = cfg_.trace;
    ac.trace_track = 1 + 3 * r;  // track 0 is the simulation's own row
    agents.push_back(std::make_unique<ndp::NdpAgent>(ac, io, nvm[r]));
  }
  ckpt::MultilevelConfig mc;
  mc.node_count = n;
  mc.partner_every = 0;
  mc.io_every = 0;
  mc.nvm_factory = [&](std::uint32_t r) { return nvm[r]; };
  // Partner spaces are node memory fail_node() clears, never the PFS.
  mc.store_factory = [&](ckpt::StoreLevel level, std::uint32_t) {
    return level == ckpt::StoreLevel::kIo
               ? std::make_unique<ckpt::ForwardingKvStore>(io)
               : std::make_unique<ckpt::KvStore>();
  };
  ckpt::MultilevelManager manager(mc);

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
    for (std::uint32_t r = 0; r < n; ++r) {
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
        now += static_cast<double>(fallback->compressed.size()) /
               (cfg_.aggregate_io_bw / n);
        ++result.host_fallback_writes;
        tracer.instant_at(now, "host_fallback_write", "cluster", 0,
                          {obs::u64("rank", r),
                           obs::u64("id", fallback->checkpoint_id)});
      } else {
        ++result.host_fallback_drops;
        tracer.instant_at(now, "host_fallback_drop", "cluster", 0,
                          {obs::u64("rank", r),
                           obs::u64("id", fallback->checkpoint_id)});
      }
    }
  };

  // A failure keeps every NVM (transient) or wipes one node's, and then
  // every rank rolls back to the newest checkpoint recover() reaches.
  auto handle_failure = [&] {
    ++result.failures;
    next_failure = now + rng.exponential(system_mttf);
    const bool transient = rng.next_double() < cfg_.p_local_recovery;
    tracer.instant_at(now, "failure", "cluster", 0,
                      {obs::u64("step", step),
                       obs::u64("transient", transient ? 1 : 0)});
    if (!transient) {
      const auto victim = static_cast<std::uint32_t>(rng.next_below(n));
      agents[victim]->reset();
      manager.fail_node(victim);
    }
    const auto rec = manager.recover();
    if (!rec) {
      ++result.scratch_restarts;
      tracer.instant_at(now, "scratch_restart", "cluster", 0,
                        {obs::u64("steps_lost", step)});
      for (std::uint32_t r = 0; r < n; ++r) ranks[r] = make_rank(r);
      result.steps_rerun += step;
      step = 0;
      return;
    }
    // Coordinated restore time: an IO read through a node's share of the
    // bandwidth dominates.
    std::size_t io_bytes = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      if (rec->levels[r] != ckpt::RecoveryLevel::kIo) continue;
      io_bytes = std::max(io_bytes, pfs.get(r, rec->checkpoint_id)->size());
    }
    now += std::max(cfg_.local_restore_time,
                    static_cast<double>(io_bytes) /
                        (cfg_.aggregate_io_bw / n));
    std::uint64_t restored_step = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      ranks[r]->restore(rec->payloads[r]);
      restored_step = ranks[r]->step_count();
    }
    result.steps_rerun += step - restored_step;
    step = restored_step;
    ++(io_bytes == 0 ? result.local_recoveries : result.io_recoveries);
    tracer.instant_at(now, io_bytes == 0 ? "local_recovery" : "io_recovery",
                      "cluster", 0,
                      {obs::u64("id", rec->checkpoint_id),
                       obs::u64("to_step", restored_step)});
  };

  while (step < cfg_.total_steps) {
    // Compute burst: the app advances while every NDP pumps.
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

    // Coordinated local commit: the host owns the NVM (no pumping).
    now += cfg_.local_commit_time;
    std::vector<Bytes> images(n);
    std::vector<ByteSpan> payloads(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      images[r] = ranks[r]->checkpoint();
      payloads[r] = images[r];
      // If the NVM is wedged behind a locked drain, let the drain finish
      // first (the host stall the paper describes). Only a drain locks
      // NVM entries: with none in flight the image can never fit, and
      // waiting would spin forever. The manager stores images framed.
      while (!nvm[r]->fits(ckpt::CheckpointImage::kHeaderSize +
                           images[r].size())) {
        if (!agents[r]->busy()) {
          throw std::runtime_error("checkpoint image exceeds the agent NVM");
        }
        agents[r]->sync_clock(now);
        const double drained = agents[r]->pump(cfg_.step_time);
        now += drained > 0 ? drained : cfg_.step_time;
      }
    }
    const std::uint64_t id = manager.commit(payloads);
    tracer.instant_at(now, "local_commit", "cluster", 0,
                      {obs::u64("id", id), obs::u64("step", step)});
    for (auto& agent : agents) agent->local_committed(id);
    ++result.checkpoints;
    collect_fallbacks();
  }

  // Newest generation every rank's copy reached the PFS with (drains skip
  // generations, and a reset agent forgets what it drained).
  std::uint64_t& on_io = result.io_checkpoints;
  for (on_io = manager.last_checkpoint_id(); on_io > 0; --on_io) {
    std::uint32_t r = 0;
    while (r < n && pfs.contains(r, on_io)) ++r;
    if (r == n) break;
  }
  result.virtual_seconds = now;
  for (const auto& agent : agents) {
    result.drain_put_retries += agent->stats().drain_put_retries;
    result.drain_put_failures += agent->stats().drain_put_failures;
    result.io_put_attempts += agent->stats().io_put_attempts;
    result.io_verify_failures += agent->stats().io_verify_failures;
    result.io_quarantined += agent->stats().io_quarantined;
    result.host_fallbacks += agent->stats().host_fallbacks;
  }

  result.state_verified = true;
  for (auto& rank : ranks) {
    if (rank->step_count() != ranks[0]->step_count()) {
      result.state_verified = false;
    }
    const auto digest = rank->state_digest();
    const Bytes image = rank->checkpoint();
    rank->restore(image);
    if (rank->state_digest() != digest) result.state_verified = false;
  }
  return result;
}

}  // namespace ndpcr::cluster
