#include "cluster/ndp_cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

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

  // One shared IO store (the PFS), optionally decorated with a seeded
  // fault plan; each agent gets the paper's static per-node share of the
  // aggregate IO bandwidth.
  std::unique_ptr<ckpt::KvStore> io_store;
  if (cfg_.io_fault_rates.any()) {
    const std::uint64_t fault_seed =
        cfg_.fault_seed != 0 ? cfg_.fault_seed : cfg_.seed * 0x9E37 + 5;
    auto plan = std::make_shared<faults::FaultPlan>(fault_seed);
    plan->set_rates(faults::io_target(), cfg_.io_fault_rates);
    io_store = std::make_unique<faults::FaultyKvStore>(std::move(plan),
                                                       faults::io_target());
  } else {
    io_store = std::make_unique<ckpt::KvStore>();
  }
  ckpt::KvStore& io = *io_store;
  std::vector<std::unique_ptr<ndp::NdpAgent>> agents;
  for (std::uint32_t r = 0; r < n; ++r) {
    ndp::AgentConfig ac;
    ac.uncompressed_capacity = cfg_.nvm_capacity_bytes;
    ac.compressed_capacity = cfg_.nvm_capacity_bytes / 4;
    ac.codec = cfg_.codec;
    ac.codec_level = cfg_.codec_level;
    ac.chunk_bytes = cfg_.ndp_chunk_bytes;
    ac.compress_bw = cfg_.ndp_compress_bw;
    ac.io_bw = cfg_.aggregate_io_bw / n;
    ac.rank = r;
    ac.trace = cfg_.trace;
    ac.trace_track = 1 + 3 * r;  // track 0 is the simulation's own row
    agents.push_back(std::make_unique<ndp::NdpAgent>(ac, io));
  }

  const double system_mttf = cfg_.node_mttf / static_cast<double>(n);
  double now = 0.0;
  double next_failure = rng.exponential(system_mttf);

  std::uint64_t step = 0;
  std::uint64_t high_water = 0;
  std::uint64_t ckpt_id = 0;

  // Newest checkpoint generation fully landed on IO across all ranks.
  // Consults the store, not agent memory (a reset agent forgets, the PFS
  // does not); drains may skip generations, so walk down from the
  // smallest per-rank newest until one is present everywhere.
  auto newest_common_on_io = [&]() -> std::uint64_t {
    std::uint64_t upper = ~0ull;
    for (std::uint32_t r = 0; r < n; ++r) {
      const auto newest = io.newest_id(r);
      if (!newest) return 0;
      upper = std::min(upper, *newest);
    }
    for (std::uint64_t g = upper; g > 0; --g) {
      bool everywhere = true;
      for (std::uint32_t r = 0; r < n && everywhere; ++r) {
        everywhere = io.contains(r, g);
      }
      if (everywhere) return g;
    }
    return 0;
  };

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

  // Fetch a complete generation *before* restoring any rank: with a
  // faulty store, restoring ranks one by one could leave the app half
  // rolled back when a later rank's read fails. Each rank's image comes
  // from its agent's NVM while it is still there, else from IO; reads
  // retry transient errors, and a corrupt or unreadable copy fails the
  // whole generation. `victim` (n for none) names the rank whose packed
  // IO read times a node-loss restore.
  struct Generation {
    std::vector<Bytes> images;
    std::size_t victim_packed = 0;  // compressed bytes read for victim
  };
  auto fetch_generation = [&](std::uint64_t target, std::uint32_t victim)
      -> std::optional<Generation> {
    Generation gen;
    gen.images.resize(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      if (auto local = agents[r]->restore_local(target)) {
        gen.images[r] = std::move(*local);
        continue;
      }
      auto packed = io.get(r, target);
      for (int attempt = 1;
           attempt < 4 && !packed.ok() && packed.error().transient();
           ++attempt) {
        packed = io.get(r, target);
      }
      if (!packed.ok()) return std::nullopt;
      auto image = agents[r]->decode_io(*packed);
      if (!image) return std::nullopt;
      gen.images[r] = std::move(*image);
      if (r == victim) gen.victim_packed = packed->size();
    }
    return gen;
  };

  // Roll every rank back to `gen`; returns the step they resume at.
  auto restore_all = [&](const Generation& gen) {
    std::uint64_t restored_step = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      ranks[r]->restore(gen.images[r]);
      restored_step = ranks[r]->step_count();
    }
    result.steps_rerun += step - restored_step;
    step = restored_step;
    return restored_step;
  };

  auto scratch_restart = [&] {
    ++result.scratch_restarts;
    tracer.instant_at(now, "scratch_restart", "cluster", 0,
                      {obs::u64("steps_lost", step)});
    for (std::uint32_t r = 0; r < n; ++r) ranks[r] = make_rank(r);
    result.steps_rerun += step;
    step = 0;
  };

  auto handle_failure = [&] {
    ++result.failures;
    next_failure = now + rng.exponential(system_mttf);
    const bool transient = rng.next_double() < cfg_.p_local_recovery;
    tracer.instant_at(now, "failure", "cluster", 0,
                      {obs::u64("step", step),
                       obs::u64("transient", transient ? 1 : 0)});

    if (transient) {
      // NVM (and pipelines) survive; roll back to the newest committed
      // generation, which every rank still holds locally unless its
      // buffer cycled past it (then its IO copy, if it made it there).
      if (ckpt_id == 0) {
        scratch_restart();
        return;
      }
      now += cfg_.local_restore_time;
      if (const auto gen = fetch_generation(ckpt_id, n)) {
        const std::uint64_t restored_step = restore_all(*gen);
        ++result.local_recoveries;
        tracer.instant_at(now, "local_recovery", "cluster", 0,
                          {obs::u64("id", ckpt_id),
                           obs::u64("to_step", restored_step)});
        return;
      }
      // The generation is gone for some rank: fall through to an IO
      // recovery.
    }

    // Node loss (or failed local recovery): the victim's NVM is gone;
    // everyone rolls back to the newest generation fully on IO, walking
    // the target down past corrupt or unreadable copies.
    const auto victim = static_cast<std::uint32_t>(rng.next_below(n));
    agents[victim]->reset();
    std::uint64_t target = newest_common_on_io();
    std::optional<Generation> gen;
    while (target > 0 && !(gen = fetch_generation(target, victim))) --target;
    if (target == 0) {
      scratch_restart();
      return;
    }
    // Coordinated restore time: the compressed read through the victim's
    // IO share dominates.
    now += std::max(cfg_.local_restore_time,
                    static_cast<double>(gen->victim_packed) /
                        (cfg_.aggregate_io_bw / n));
    const std::uint64_t restored_step = restore_all(*gen);
    ++result.io_recoveries;
    tracer.instant_at(now, "io_recovery", "cluster", 0,
                      {obs::u64("id", target), obs::u64("victim", victim),
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
    ++ckpt_id;
    tracer.instant_at(now, "local_commit", "cluster", 0,
                      {obs::u64("id", ckpt_id), obs::u64("step", step)});
    for (std::uint32_t r = 0; r < n; ++r) {
      // If the agent's buffer is wedged behind a locked drain, let the
      // drain finish first (the host stall the paper describes).
      while (!agents[r]->host_commit(ckpt_id, ranks[r]->checkpoint())) {
        // Only a drain locks NVM entries: with none in flight the image
        // can never fit, and waiting would spin forever.
        if (!agents[r]->busy()) {
          throw std::runtime_error("checkpoint image exceeds the agent NVM");
        }
        agents[r]->sync_clock(now);
        const double drained = agents[r]->pump(cfg_.step_time);
        now += drained > 0 ? drained : cfg_.step_time;
      }
    }
    ++result.checkpoints;
    collect_fallbacks();
  }

  result.io_checkpoints = newest_common_on_io();
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
