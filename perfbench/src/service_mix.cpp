// service_mix: one CheckpointService on the shared pool serving sixteen
// small tenants. Each tenant is two proxy-kernel ranks of a few hundred
// KiB; QoS weights run 1-4, every fourth tenant compresses its IO with
// nlz4 (the rest store raw), and every third tenant writes delta chains
// (the service's partners are copies).
// Every round each tenant steps its kernels, captures, stages and commits
// its checkpoint; every fourth round (staggered by tenant) it also runs a
// restart() probe that must return exactly what it last committed. The
// shared NVM budget is twice what the tenants can ever hold, so nothing is
// throttled or denied.
//
// A work unit is one service lifetime of `rounds` rounds, set up from
// scratch.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "census.hpp"
#include "common/crc32.hpp"
#include "exec/task_pool.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"
#include "workloads/proxy_kernels.hpp"

namespace perfbench {
namespace {

using ndpcr::Bytes;
using ndpcr::ByteSpan;
namespace svc = ndpcr::svc;
using ndpcr::workloads::ProxyKernel;

// Half the tenants compress with nlz4, so the slowest ~half of the
// commits form a plateau (~p55-p95) above the null-codec ones. p90 sits
// inside it; p95 and above sit on its edge or on single host hiccups and
// swung 17% between runs.
constexpr double kTailCap = 90.0;

struct Shape {
  std::uint32_t tenants = 16;
  std::uint32_t ranks = 2;
  std::size_t rank_bytes = 192ull << 10;
  std::uint32_t rounds = 16;
  std::uint32_t steps_per_round = 8;  // kernel iterations per checkpoint
  std::uint32_t restart_every = 4;
};

Shape shape_for(const Options& opt) {
  Shape s;
  if (opt.smoke) {
    s.rank_bytes = 16ull << 10;
    s.rounds = 8;
  }
  return s;
}

struct Tenant {
  svc::Session* session = nullptr;
  std::vector<std::unique_ptr<ProxyKernel>> kernels;
  std::vector<std::uint32_t> committed_crcs;  // of the latest commit
};

svc::TenantSpec spec_for(std::uint32_t t, const Shape& shape) {
  svc::TenantSpec spec;
  spec.ranks = shape.ranks;
  spec.qos.weight = 1 + t % 4;
  // A quarter on nlz4 keeps the median commit among the raw-IO ones; a
  // half/half split put it on the cliff between the two and it swung 20%
  // from run to run.
  spec.io_codec = t % 4 == 3 ? ndpcr::compress::CodecId::kLz4Style
                             : ndpcr::compress::CodecId::kNull;
  if (t % 3 == 0) spec.delta_chain = 4;
  return spec;
}

}  // namespace

Result run_service_mix(const Options& opt, double seconds,
                       ndpcr::obs::Tracer* tracer) {
  const Shape shape = shape_for(opt);
  ndpcr::exec::TaskPool pool(kPoolThreads);
  Probe probe(tracer);
  Result result;
  Samples setup_samples;
  Samples restart;
  double compute = 0.0;
  double capture = 0.0;
  double restore = 0.0;
  std::uint64_t units = 0;
  IoCensus census;

  // The warm-up unit reports to its own untraced probe, so it adds
  // nothing to the per-unit totals or the trace.
  const auto unit = [&](Probe& p) -> double {
    const bool measured = &p == &probe;
    const auto t0 = Clock::now();
    svc::SvcConfig cfg;
    cfg.seed = opt.seed;
    cfg.pool = &pool;
    // Room for eight checkpoints per rank; the shared budget is twice
    // the tenants' total, so usage never reaches the soft watermark.
    cfg.per_rank_nvm_bytes = 8 * (shape.rank_bytes + (16ull << 10));
    cfg.shared_nvm_bytes =
        2ull * shape.tenants * shape.ranks * cfg.per_rank_nvm_bytes;
    cfg.scheduler_quantum = 128ull << 10;
    auto service = std::make_unique<svc::CheckpointService>(cfg);
    const auto& names = ndpcr::workloads::proxy_kernel_names();
    std::vector<Tenant> tenants(shape.tenants);
    for (std::uint32_t t = 0; t < shape.tenants; ++t) {
      tenants[t].session = &service->open_session(spec_for(t, shape));
      for (std::uint32_t r = 0; r < shape.ranks; ++r) {
        tenants[t].kernels.push_back(ndpcr::workloads::make_proxy_kernel(
            names[(t + r) % names.size()], shape.rank_bytes,
            ndpcr::exec::sub_seed(opt.seed, t, r)));
      }
    }
    const double setup = seconds_since(t0);

    Samples stall;
    Samples unit_restart;
    double unit_compute = 0.0;
    double unit_capture = 0.0;
    double unit_restore = 0.0;
    const auto t1 = Clock::now();
    for (std::uint32_t round = 0; round < shape.rounds; ++round) {
      for (std::uint32_t t = 0; t < shape.tenants; ++t) {
        Tenant& tenant = tenants[t];
        {
          Probe::Scope s(p, "workloads.iterate", "workloads");
          for (std::uint32_t i = 0; i < shape.steps_per_round; ++i) {
            for (auto& k : tenant.kernels) k->iterate();
          }
          unit_compute += s.stop();
        }
        std::vector<Bytes> payloads(shape.ranks);
        Probe::Scope cap(p, "workloads.capture", "workloads");
        for (std::uint32_t r = 0; r < shape.ranks; ++r) {
          payloads[r] = tenant.kernels[r]->registry().capture();
        }
        const double cap_s = cap.stop();
        unit_capture += cap_s;
        const std::vector<ByteSpan> spans(payloads.begin(), payloads.end());
        Probe::Scope start(p, "svc.start_checkpoint", "svc");
        const svc::SvcStatus staged = tenant.session->start_checkpoint(spans);
        const double start_s = start.stop();
        Probe::Scope commit(p, "svc.commit", "svc");
        const svc::SvcStatus done = staged == svc::SvcStatus::kQueued
                                        ? tenant.session->commit()
                                        : staged;
        stall.add(cap_s + start_s + commit.stop());
        result.check(done == svc::SvcStatus::kOk,
                     std::string("tenant commit ended ") +
                         svc::to_string(done));
        tenant.committed_crcs.clear();
        for (const auto& p : payloads) {
          tenant.committed_crcs.push_back(
              ndpcr::Crc32::compute(p.data(), p.size()));
        }

        if ((round + t) % shape.restart_every != shape.restart_every - 1) {
          continue;
        }
        Probe::Scope rs(p, "svc.restart", "svc");
        auto back = tenant.session->restart();
        const double restart_s = rs.stop();
        bool ok = back && back->checkpoint_id == tenant.session->latest() &&
                  back->payloads.size() == shape.ranks;
        for (std::uint32_t r = 0; ok && r < shape.ranks; ++r) {
          const Bytes& p = back->payloads[r];
          ok = ndpcr::Crc32::compute(p.data(), p.size()) ==
               tenant.committed_crcs[r];
        }
        result.check(ok, "restart did not return the last committed state");
        if (!ok) continue;
        Probe::Scope rr(p, "workloads.restore", "workloads");
        for (std::uint32_t r = 0; r < shape.ranks; ++r) {
          tenant.kernels[r]->registry().restore(ByteSpan(back->payloads[r]));
        }
        const double restore_s = rr.stop();
        unit_restore += restore_s;
        unit_restart.add(restart_s + restore_s);
      }
    }
    const double wall = seconds_since(t1);
    if (!measured) return 0.0;

    ++units;
    setup_samples.add(setup);
    result.op.append(stall);
    restart.append(unit_restart);
    compute += unit_compute;
    capture += unit_capture;
    restore += unit_restore;

    std::map<std::string, double> exact;
    std::uint64_t payload = 0, local = 0, partner = 0, io_logical = 0,
                  io_written = 0, delta_in = 0, delta_out = 0, retries = 0,
                  verify = 0, throttled = 0, denied = 0;
    double p99 = 0.0;
    for (std::uint32_t t = 0; t < shape.tenants; ++t) {
      const svc::Session& s = service->session(t);
      const auto& d = s.manager().data_path();
      const auto& h = s.manager().health();
      payload += d.payload_bytes_in;
      local += d.local_bytes_written;
      partner += d.partner_bytes_written;
      io_logical += d.io_logical_bytes;
      io_written += d.io_bytes_written;
      delta_in += d.delta_input_bytes;
      delta_out += d.delta_encoded_bytes;
      retries += h.local.put_retries + h.partner.put_retries +
                 h.io.put_retries;
      verify += h.local.verify_failures + h.partner.verify_failures +
                h.io.verify_failures;
      throttled += s.stats().throttled;
      denied += s.stats().denied_backpressure + s.stats().denied_quota;
      p99 = std::max(p99, s.commit_latency().p99());
    }
    exact["ckpt.bytes.payload"] = payload;
    exact["ckpt.bytes.local"] = local;
    exact["ckpt.bytes.partner"] = partner;
    exact["ckpt.bytes.io_logical"] = io_logical;
    exact["ckpt.bytes.io_written"] = io_written;
    exact["ckpt.put_retries"] = retries;
    exact["ckpt.verify_failures"] = verify;
    exact["ckpt.delta_factor"] =
        delta_in == 0 ? 0.0
                      : 1.0 - static_cast<double>(delta_out) /
                                  static_cast<double>(delta_in);
    exact["svc.rounds"] = static_cast<double>(service->rounds());
    exact["svc.throttled"] = throttled;
    exact["svc.denied"] = denied;
    exact["svc.latency_vt_p99"] = p99;
    exact["jain_weighted"] = service->jain_io_weighted();
    if (units == 1) {
      for (std::uint32_t t = 0; t < shape.tenants; ++t) {
        census.merge(census_io(service->session(t).manager().io_store(),
                               shape.ranks,
                               ndpcr::ckpt::MultilevelConfig{}.io_chunk_bytes,
                               probe.tracing(), probe));
      }
    }
    census.record(exact);
    check_exact(result, exact);
    return wall;
  };
  Probe warm_up(nullptr);
  unit(warm_up);
  const std::size_t want = samples_for_tail(kTailCap);
  run_units(
      seconds, [&] { return opt.smoke || result.op.size() >= want; },
      [&] { return unit(probe); });
  result.check(census.ok, "IO entries failed to decode or re-encode");

  const auto n = static_cast<double>(units);
  result.units = units;
  result.tail_cap = kTailCap;
  result.e2e["progress_rate"] = {
      compute / (compute + result.op.sum() + restart.sum()), "ratio"};
  result.e2e["setup_s"] = {setup_samples.median(), "s"};
  auto& L = result.layer;
  L["workloads.iterate_s"] = {compute / n, "s"};
  L["workloads.capture_s"] = {capture / n, "s"};
  L["workloads.restore_s"] = {restore / n, "s"};
  L["svc.commit_s"] = {probe.total("svc.commit") / n, "s"};
  L["svc.restart_s"] = {probe.total("svc.restart") / n, "s"};
  L["restart_ms_p50"] = {restart.median() * 1e3, "ms"};
  L["ckpt_gib_s"] = {result.exact["ckpt.bytes.payload"] * n /
                         result.op.sum() / (1ull << 30),
                     "GiB/s"};
  L["exec.threads"] = {static_cast<double>(pool.thread_count()), "count"};
  if (census.replay_seconds > 0.0) {
    L["compress.replay_mib_s"] = {static_cast<double>(census.replay_bytes) /
                                      census.replay_seconds / (1 << 20),
                                  "MiB/s"};
  }
  return result;
}

}  // namespace perfbench
