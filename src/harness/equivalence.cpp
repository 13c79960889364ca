#include "harness/equivalence.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ckpt/multilevel.hpp"
#include "common/crc32.hpp"
#include "exec/task_pool.hpp"
#include "workloads/proxy_kernels.hpp"

namespace ndpcr::harness {
namespace {

using Kernels = std::vector<std::unique_ptr<workloads::ProxyKernel>>;

std::uint32_t crc_of(ByteSpan data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

faults::CrashSimConfig sim_config(const EquivalenceConfig& config,
                                  const std::string& run_name) {
  faults::CrashSimConfig sc;
  sc.node_count = config.node_count;
  // Generous circular-buffer headroom: old checkpoints may evict, the
  // current one must always fit.
  sc.nvm_capacity_bytes =
      std::max<std::size_t>(1u << 20, config.state_bytes * 16);
  sc.rates = config.rates;
  sc.fault_seed = config.fault_seed;
  if (!config.io_root.empty()) sc.io_root = config.io_root / run_name;
  return sc;
}

ckpt::MultilevelConfig manager_config(const EquivalenceConfig& config) {
  ckpt::MultilevelConfig mc;
  mc.app_id = 7;
  mc.node_count = config.node_count;
  mc.partner_every = config.partner_every;
  mc.io_every = config.io_every;
  mc.io_codec_adaptive = config.io_codec_adaptive;
  mc.io_chunk_bytes = 4096;  // several chunks per rank at smoke scale
  mc.pool = config.pool;
  switch (config.mode) {
    case PayloadMode::kFull:
      break;
    case PayloadMode::kDelta:
      mc.delta.enabled = true;
      mc.delta.chain_length = 3;
      mc.delta.block_bytes = 1024;
      break;
    case PayloadMode::kDedup:
      mc.delta.io_dedup = true;
      break;
  }
  return mc;
}

Kernels make_kernels(const EquivalenceConfig& config) {
  Kernels kernels;
  kernels.reserve(config.node_count);
  for (std::uint32_t r = 0; r < config.node_count; ++r) {
    kernels.push_back(workloads::make_proxy_kernel(
        config.kernel, config.state_bytes,
        exec::sub_seed(config.seed, r)));
  }
  return kernels;
}

struct DriveResult {
  bool crashed = false;
  std::uint64_t crash_commit_id = 0;  // the commit the crash fired in
  std::string error;                  // verify() violation, if any
};

// Advance the kernels from iteration `from` (exclusive) to
// config.iterations, committing every cadence-th iteration through `mgr`.
// Stops right after the commit in which the armed simulator fired. When
// `golden_out` is set, records every committed payload's CRC.
DriveResult drive(const EquivalenceConfig& config,
                  faults::CrashSimulator& sim, ckpt::MultilevelManager& mgr,
                  Kernels& kernels, std::uint64_t from,
                  GoldenRun* golden_out) {
  DriveResult result;
  const std::uint64_t cadence = std::max<std::uint64_t>(1, config.cadence);
  for (std::uint64_t iter = from + 1; iter <= config.iterations; ++iter) {
    for (auto& kernel : kernels) kernel->iterate();
    for (std::uint32_t r = 0; r < config.node_count; ++r) {
      if (!kernels[r]->verify()) {
        result.error = "kernel verify() failed at iteration " +
                       std::to_string(iter) + " rank " + std::to_string(r);
        return result;
      }
    }
    if (iter % cadence != 0) continue;
    std::vector<Bytes> payloads;
    payloads.reserve(config.node_count);
    for (auto& kernel : kernels) {
      payloads.push_back(kernel->registry().capture());
    }
    std::vector<ByteSpan> spans;
    spans.reserve(payloads.size());
    for (const Bytes& p : payloads) spans.emplace_back(p);
    sim.begin_commit(mgr.last_checkpoint_id() + 1);
    const std::uint64_t id = mgr.commit(spans);
    if (golden_out) {
      for (std::uint32_t r = 0; r < config.node_count; ++r) {
        golden_out->payload_crcs[{r, id}] = crc_of(ByteSpan(payloads[r]));
      }
      ++golden_out->commits;
    }
    if (sim.crashed()) {
      // Process death: the caller destroys the manager; whatever the
      // gates let through is the surviving durable state.
      result.crashed = true;
      result.crash_commit_id = id;
      return result;
    }
  }
  return result;
}

std::uint64_t fold_fingerprints(const std::vector<std::uint64_t>& prints) {
  Bytes buf;
  for (const std::uint64_t fp : prints) append_le<std::uint64_t>(buf, fp);
  return crc_of(ByteSpan(buf));
}

}  // namespace

const char* to_string(PayloadMode mode) {
  switch (mode) {
    case PayloadMode::kFull:
      return "full";
    case PayloadMode::kDelta:
      return "delta";
    case PayloadMode::kDedup:
      return "dedup";
  }
  return "?";
}

PayloadMode payload_mode_from(const std::string& name) {
  if (name == "full") return PayloadMode::kFull;
  if (name == "delta") return PayloadMode::kDelta;
  if (name == "dedup") return PayloadMode::kDedup;
  throw std::invalid_argument("unknown payload mode: " + name);
}

GoldenRun run_golden(const EquivalenceConfig& config) {
  faults::CrashSimulator sim(sim_config(config, "golden"));
  Kernels kernels = make_kernels(config);
  GoldenRun golden;
  sim.record();
  {
    ckpt::MultilevelConfig mc = manager_config(config);
    sim.attach(mc);
    ckpt::MultilevelManager mgr(mc);
    const DriveResult dr =
        drive(config, sim, mgr, kernels, 0, &golden);
    if (!dr.error.empty()) {
      throw std::runtime_error("golden run failed: " + dr.error);
    }
  }
  golden.points = sim.canonical_points();
  golden.rank_fingerprints.reserve(config.node_count);
  for (const auto& kernel : kernels) {
    golden.rank_fingerprints.push_back(kernel->fingerprint());
  }
  golden.final_fingerprint = fold_fingerprints(golden.rank_fingerprints);
  return golden;
}

CrashRunResult run_crash_point(const EquivalenceConfig& config,
                               const GoldenRun& golden, std::size_t k) {
  CrashRunResult result;
  result.point = k;
  auto fail = [&](std::string why) {
    result.invariants_ok = false;
    result.failure = std::move(why);
    return result;
  };

  faults::CrashSimulator sim(
      sim_config(config, "point-" + std::to_string(k)));
  sim.arm(golden.points, k, config.torn,
          exec::sub_seed(config.seed ^ 0xC4A54ull, k));

  // Life 1: replay until the crash fires. The manager's destruction at
  // scope exit is the process death; in-memory state (delta references,
  // dedup index, id counter) dies with it.
  DriveResult life1;
  {
    ckpt::MultilevelConfig mc = manager_config(config);
    sim.attach(mc);
    ckpt::MultilevelManager mgr(mc);
    Kernels kernels = make_kernels(config);
    life1 = drive(config, sim, mgr, kernels, 0, nullptr);
  }
  if (!life1.error.empty()) return fail("pre-crash " + life1.error);
  result.crashed = sim.crashed();
  if (!result.crashed) {
    return fail("armed run never reached canonical point " +
                std::to_string(k));
  }
  sim.disarm();

  // Life 2: a fresh manager adopts the surviving bytes and recovers.
  ckpt::MultilevelConfig mc = manager_config(config);
  sim.attach(mc);
  mc.adopt_existing = true;
  ckpt::MultilevelManager mgr(mc);
  const auto recovery = mgr.recover();
  Kernels kernels = make_kernels(config);
  std::uint64_t resume = 0;
  const std::uint64_t cadence = std::max<std::uint64_t>(1, config.cadence);
  if (recovery) {
    result.recovered = true;
    result.recovered_id = recovery->checkpoint_id;
    if (recovery->checkpoint_id > life1.crash_commit_id) {
      return fail("recovered checkpoint " +
                  std::to_string(recovery->checkpoint_id) +
                  " is newer than the crashing commit " +
                  std::to_string(life1.crash_commit_id));
    }
    for (std::uint32_t r = 0; r < config.node_count; ++r) {
      const auto it =
          golden.payload_crcs.find({r, recovery->checkpoint_id});
      if (it == golden.payload_crcs.end()) {
        return fail("recovered an id the golden run never committed");
      }
      if (crc_of(ByteSpan(recovery->payloads[r])) != it->second) {
        return fail("recovered payload for rank " + std::to_string(r) +
                    " id " + std::to_string(recovery->checkpoint_id) +
                    " differs from the committed bytes");
      }
      kernels[r]->registry().restore(ByteSpan(recovery->payloads[r]));
    }
    resume = kernels[0]->iteration();
    for (std::uint32_t r = 1; r < config.node_count; ++r) {
      if (kernels[r]->iteration() != resume) {
        return fail("ranks disagree on the resume iteration");
      }
    }
    if (resume != recovery->checkpoint_id * cadence) {
      return fail("restored iteration " + std::to_string(resume) +
                  " does not match checkpoint id " +
                  std::to_string(recovery->checkpoint_id));
    }
  }
  // No recovery: the crash predates any restorable checkpoint - restart
  // from initial conditions (kernels are freshly constructed already).

  const DriveResult life2 = drive(config, sim, mgr, kernels, resume, nullptr);
  if (life2.crashed) return fail("crash fired after disarm");
  if (!life2.error.empty()) return fail("post-restart " + life2.error);

  result.invariants_ok = true;
  result.equivalent = true;
  for (std::uint32_t r = 0; r < config.node_count; ++r) {
    if (kernels[r]->fingerprint() != golden.rank_fingerprints[r]) {
      result.equivalent = false;
      result.failure = "final state of rank " + std::to_string(r) +
                       " differs from the crash-free run";
      break;
    }
  }
  return result;
}

SweepReport run_sweep(const EquivalenceConfig& config, std::size_t stride) {
  SweepReport report;
  report.golden = run_golden(config);
  report.points_total = report.golden.points.size();
  const std::size_t step = std::max<std::size_t>(1, stride);
  Crc32 fp;
  Bytes buf;
  for (std::size_t k = 0; k < report.points_total; k += step) {
    const CrashRunResult res = run_crash_point(config, report.golden, k);
    ++report.points_run;
    buf.clear();
    append_le<std::uint64_t>(buf, k);
    append_le<std::uint8_t>(buf, res.crashed ? 1 : 0);
    append_le<std::uint64_t>(buf, res.recovered_id);
    append_le<std::uint8_t>(buf, res.ok() ? 1 : 0);
    fp.update(ByteSpan(buf));
    if (!res.ok()) {
      ++report.failures;
      report.failed.push_back(res);
    }
  }
  report.fingerprint = fp.value();
  return report;
}

}  // namespace ndpcr::harness
