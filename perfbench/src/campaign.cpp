// campaign_host and campaign_ndp: eight proxy-kernel ranks step,
// checkpoint, fail and restart through the real library. The two share
// kernels, cadence and failure schedule; only the checkpoint backend
// differs:
//
//   host - one MultilevelManager: local NVM + XOR-group partner on every
//          checkpoint, the IO level (adaptive host compression) on every
//          io_every-th; recover() picks the newest checkpoint every rank
//          can restore.
//   ndp  - one NdpAgent per rank: the host only calls host_commit(); every
//          agent is pumped by a fixed virtual budget after each step and
//          drains to a shared IO store with its default codec. A restart
//          follows the cluster simulator: restore_local(), else IO get +
//          ChunkedCodec::decompress.
//
// A work unit is one whole campaign, set up from scratch: the work done
// is identical in every unit and only its timing varies.
//
// The host manager runs on the calling thread alone: a one-thread pool
// (no workers) and no async IO writer. With a 4-thread pool plus the
// writer thread, five threads shared four vCPUs and every commit waited
// on cross-thread wake-ups, whose latency on a shared host follows the
// neighbours' load rather than this code.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "census.hpp"
#include "ckpt/multilevel.hpp"
#include "common/crc32.hpp"
#include "compress/chunked.hpp"
#include "exec/task_pool.hpp"
#include "ndp/agent.hpp"
#include "workloads.hpp"
#include "workloads/proxy_kernels.hpp"

namespace perfbench {
namespace {

using ndpcr::Bytes;
using ndpcr::ByteSpan;
namespace ckpt = ndpcr::ckpt;
namespace ndp = ndpcr::ndp;
using ndpcr::workloads::ProxyKernel;

// Checkpoints that reach IO are a quarter of the stall samples, so any
// percentile above p75 reads the IO leg; p90 is the highest one a run of
// ~100 checkpoints supports.
constexpr double kTailCap = 90.0;

struct Shape {
  std::uint32_t ranks = 8;
  std::size_t rank_bytes = 1ull << 20;
  std::uint64_t steps = 64;
  std::uint64_t ckpt_every = 8;  // checkpoint after every 8th step
  std::uint32_t io_every = 4;    // host: every 4th checkpoint reaches IO
  std::uint32_t xor_group = 4;
};

Shape shape_for(const Options& opt) {
  Shape s;
  if (opt.smoke) {
    s.rank_bytes = 64ull << 10;
    s.steps = 32;
    s.ckpt_every = 2;
  }
  return s;
}

enum class FailureKind { kTransient, kSingle, kDouble };

struct Failure {
  std::uint64_t iteration = 0;
  FailureKind kind = FailureKind::kTransient;
  std::vector<std::uint32_t> victims;
};

// Three failures per campaign, each at the same odd iteration (between
// two checkpoints) of the second, third and fourth quarter of the run: a
// process crash that leaves every NVM intact, the loss of one node, and
// the loss of two nodes of one XOR group. Only the victims come from the
// seed, so every seed does the same amount of work.
std::vector<Failure> failure_schedule(const Shape& shape, std::uint64_t seed) {
  const FailureKind kinds[] = {FailureKind::kTransient, FailureKind::kSingle,
                               FailureKind::kDouble};
  const std::uint64_t quarter = shape.steps / 4;
  std::vector<Failure> out;
  for (std::uint64_t k = 0; k < 3; ++k) {
    const std::uint64_t h = ndpcr::exec::sub_seed(seed, 0xFA11, k);
    Failure f;
    f.kind = kinds[k];
    f.iteration = (quarter * (k + 1) + quarter / 4) | 1;
    const auto pick = static_cast<std::uint32_t>((h >> 16) % shape.ranks);
    if (f.kind == FailureKind::kSingle) f.victims = {pick};
    if (f.kind == FailureKind::kDouble) {
      const std::uint32_t first = pick - pick % shape.xor_group;
      const auto a = static_cast<std::uint32_t>((h >> 32) % shape.xor_group);
      const auto b = static_cast<std::uint32_t>(
          (a + 1 + (h >> 40) % (shape.xor_group - 1)) % shape.xor_group);
      f.victims = {first + a, first + b};
    }
    out.push_back(std::move(f));
  }
  return out;
}

using Kernels = std::vector<std::unique_ptr<ProxyKernel>>;

Kernels make_kernels(const Shape& shape, std::uint64_t seed) {
  const auto& names = ndpcr::workloads::proxy_kernel_names();
  Kernels kernels;
  for (std::uint32_t r = 0; r < shape.ranks; ++r) {
    kernels.push_back(ndpcr::workloads::make_proxy_kernel(
        names[r % names.size()], shape.rank_bytes,
        ndpcr::exec::sub_seed(seed, r)));
  }
  return kernels;
}

struct Restored {
  std::uint64_t id = 0;
  std::vector<Bytes> payloads;
  double seconds = 0.0;  // the backend's share of the restart
};

class Backend {
 public:
  virtual ~Backend() = default;
  // Host-blocking commit of checkpoint `id`; may consume the payloads.
  // Returns the seconds the host was blocked.
  virtual double commit(std::uint64_t id, std::vector<Bytes>& payloads) = 0;
  // Background work owed after each application step (not host time).
  virtual void after_step() {}
  // Apply the failure, then fetch the newest state every rank can resume.
  virtual std::optional<Restored> fail_and_recover(const Failure& f) = 0;
  // The IO level and the container chunk size its writer uses.
  [[nodiscard]] virtual const ckpt::KvStore& io() const = 0;
  [[nodiscard]] virtual std::size_t io_chunk_bytes() const = 0;
};

// What drive() measured on the host during one campaign.
struct HostTimes {
  Samples stall;    // capture + commit, per checkpoint
  Samples restart;  // backend recovery + registry restore, per failure
  double compute_first = 0.0;
  double compute_rerun = 0.0;
  double capture = 0.0;
  double restore = 0.0;
  std::uint64_t steps_rerun = 0;
  std::uint64_t payload_bytes = 0;

  [[nodiscard]] double host_wall() const {
    return compute_first + compute_rerun + stall.sum() + restart.sum();
  }
};

HostTimes drive(Kernels& kernels, const std::vector<Failure>& schedule,
                const Shape& shape, const std::vector<std::uint64_t>& ref,
                Backend& backend, Probe& probe, Result& result) {
  HostTimes t;
  std::vector<std::vector<std::uint32_t>> crcs(1);  // by checkpoint id
  std::uint64_t high = 0;
  std::size_t next_failure = 0;
  while (kernels[0]->iteration() < shape.steps) {
    {
      Probe::Scope s(probe, "workloads.iterate", "workloads");
      for (auto& k : kernels) k->iterate();
      const double dt = s.stop();
      if (kernels[0]->iteration() > high) {
        t.compute_first += dt;
      } else {
        t.compute_rerun += dt;
        ++t.steps_rerun;
      }
    }
    const std::uint64_t it = kernels[0]->iteration();
    const bool first_time = it > high;
    if (first_time) high = it;
    backend.after_step();

    if (it % shape.ckpt_every == 0) {
      std::vector<Bytes> payloads(kernels.size());
      Probe::Scope s(probe, "workloads.capture", "workloads");
      for (std::size_t r = 0; r < kernels.size(); ++r) {
        payloads[r] = kernels[r]->registry().capture();
      }
      const double cap = s.stop();
      std::vector<std::uint32_t> sums;
      for (const auto& p : payloads) {
        sums.push_back(ndpcr::Crc32::compute(p.data(), p.size()));
        t.payload_bytes += p.size();
      }
      const std::uint64_t id = crcs.size();
      crcs.push_back(std::move(sums));
      const double commit = backend.commit(id, payloads);
      t.capture += cap;
      t.stall.add(cap + commit);
    }

    if (first_time && next_failure < schedule.size() &&
        it == schedule[next_failure].iteration) {
      const Failure& f = schedule[next_failure++];
      auto restored = backend.fail_and_recover(f);
      bool ok = restored && restored->id > 0 && restored->id < crcs.size() &&
                restored->payloads.size() == kernels.size();
      for (std::size_t r = 0; ok && r < kernels.size(); ++r) {
        const Bytes& p = restored->payloads[r];
        ok = ndpcr::Crc32::compute(p.data(), p.size()) ==
             crcs[restored->id][r];
      }
      result.check(ok, "restored payload does not match its committed CRC");
      if (!ok) return t;
      Probe::Scope s(probe, "workloads.restore", "workloads");
      for (std::size_t r = 0; r < kernels.size(); ++r) {
        kernels[r]->registry().restore(ByteSpan(restored->payloads[r]));
      }
      const double rs = s.stop();
      t.restore += rs;
      t.restart.add(restored->seconds + rs);
    }
  }
  for (std::size_t r = 0; r < kernels.size(); ++r) {
    result.check(kernels[r]->verify() && kernels[r]->fingerprint() == ref[r],
                 "rank " + std::to_string(r) +
                     " final fingerprint differs from the reference run");
  }
  return t;
}

class HostBackend final : public Backend {
 public:
  HostBackend(const Shape& shape, ndpcr::exec::TaskPool& pool, Probe& probe,
              Result& result)
      : probe_(probe), result_(result) {
    ckpt::MultilevelConfig mc;
    mc.node_count = shape.ranks;
    mc.partner_every = 1;
    mc.partner_scheme = ckpt::PartnerScheme::kXorGroup;
    mc.xor_group_size = shape.xor_group;
    mc.io_every = shape.io_every;
    mc.io_codec_adaptive = true;
    mc.io_writer_depth = 0;  // IO puts on the committing thread
    mc.pool = &pool;
    manager_ = std::make_unique<ckpt::MultilevelManager>(mc);
  }

  double commit(std::uint64_t id, std::vector<Bytes>& payloads) override {
    const std::vector<ByteSpan> spans(payloads.begin(), payloads.end());
    const double cpu0 = process_cpu_seconds();
    Probe::Scope s(probe_, "ckpt.commit", "ckpt");
    bool ok = false;
    try {
      ok = manager_->commit(spans) == id;
    } catch (const std::exception&) {
      ok = false;
    }
    const double wall = s.stop();
    commit_cpu += process_cpu_seconds() - cpu0;
    result_.check(ok, "commit threw or returned an unexpected id");
    return wall;
  }

  std::optional<Restored> fail_and_recover(const Failure& f) override {
    for (const std::uint32_t v : f.victims) manager_->fail_node(v);
    Probe::Scope s(probe_, "ckpt.recover", "ckpt");
    auto rec = manager_->recover();
    const double secs = s.stop();
    if (!rec) return std::nullopt;
    for (const auto level : rec->levels) {
      recovered_from[static_cast<int>(level)] += 1;
    }
    return Restored{rec->checkpoint_id, std::move(rec->payloads), secs};
  }

  [[nodiscard]] const ckpt::MultilevelManager& manager() const {
    return *manager_;
  }
  [[nodiscard]] const ckpt::KvStore& io() const override {
    return manager_->io_store();
  }
  [[nodiscard]] std::size_t io_chunk_bytes() const override {
    return ckpt::MultilevelConfig{}.io_chunk_bytes;
  }

  double commit_cpu = 0.0;  // process CPU seconds spent inside commit()
  std::uint64_t recovered_from[3] = {0, 0, 0};  // local, partner, io

 private:
  Probe& probe_;
  Result& result_;
  std::unique_ptr<ckpt::MultilevelManager> manager_;
};

class NdpBackend final : public Backend {
 public:
  NdpBackend(const Shape& shape, Probe& probe, Result& result)
      : probe_(probe), result_(result) {
    for (std::uint32_t r = 0; r < shape.ranks; ++r) {
      ndp::AgentConfig ac;
      ac.rank = r;
      agents_.push_back(std::make_unique<ndp::NdpAgent>(ac, io_));
    }
    const ndp::AgentConfig defaults;
    codec_.emplace(defaults.codec, defaults.codec_level, defaults.chunk_bytes,
                   1);
    // A drain of one rank's image spans two checkpoint intervals on the IO
    // wire, so roughly every other checkpoint is superseded undrained.
    budget_ = static_cast<double>(shape.rank_bytes) / defaults.io_bw /
              static_cast<double>(2 * shape.ckpt_every);
  }

  double commit(std::uint64_t id, std::vector<Bytes>& payloads) override {
    Probe::Scope s(probe_, "ndp.host_commit", "ndp");
    bool ok = true;
    for (std::size_t r = 0; r < agents_.size(); ++r) {
      if (!agents_[r]->host_commit(id, std::move(payloads[r]))) {
        ok = false;
        ++refused;
      }
    }
    const double wall = s.stop();
    last_id_ = id;
    result_.check(ok, "host_commit refused a checkpoint");
    return wall;
  }

  void after_step() override {
    Probe::Scope s(probe_, "ndp.pump", "ndp");
    for (auto& agent : agents_) agent->pump(budget_);
  }

  std::optional<Restored> fail_and_recover(const Failure& f) override {
    for (const std::uint32_t v : f.victims) agents_[v]->reset();
    Probe::Scope s(probe_, "ndp.restore", "ndp");
    const std::uint32_t n = static_cast<std::uint32_t>(agents_.size());
    // Newest generation every rank still has in NVM or on IO.
    std::uint64_t target = last_id_;
    for (; target > 0; --target) {
      bool everywhere = true;
      for (std::uint32_t r = 0; everywhere && r < n; ++r) {
        everywhere = agents_[r]->uncompressed_partition().contains(target) ||
                     agents_[r]->compressed_partition().contains(target) ||
                     io_.contains(r, target);
      }
      if (everywhere) break;
    }
    if (target == 0) return std::nullopt;
    Restored out{target, std::vector<Bytes>(n), 0.0};
    for (std::uint32_t r = 0; r < n; ++r) {
      if (auto local = agents_[r]->restore_local(target)) {
        out.payloads[r] = std::move(*local);
        continue;
      }
      const auto packed = io_.get(r, target);
      if (!packed.ok()) return std::nullopt;
      try {
        out.payloads[r] = codec_->decompress(ByteSpan(*packed));
      } catch (const ndpcr::compress::CodecError&) {
        return std::nullopt;
      }
      ++from_io;
    }
    out.seconds = s.stop();
    return out;
  }

  [[nodiscard]] ndp::AgentStats stats() const {
    ndp::AgentStats sum;
    for (const auto& agent : agents_) {
      const auto& st = agent->stats();
      sum.drains_completed += st.drains_completed;
      sum.drains_skipped += st.drains_skipped;
      sum.bytes_compressed += st.bytes_compressed;
      sum.bytes_to_io += st.bytes_to_io;
    }
    return sum;
  }
  [[nodiscard]] const ckpt::KvStore& io() const override { return io_; }
  [[nodiscard]] std::size_t io_chunk_bytes() const override {
    return codec_->chunk_size();
  }

  std::uint64_t refused = 0;
  std::uint64_t from_io = 0;  // rank images a restart read back from IO

 private:
  Probe& probe_;
  Result& result_;
  ckpt::KvStore io_;  // declared before the agents that hold it
  std::vector<std::unique_ptr<ndp::NdpAgent>> agents_;
  std::optional<ndpcr::compress::ChunkedCodec> codec_;
  double budget_ = 0.0;
  std::uint64_t last_id_ = 0;
};

// Everything both campaigns accumulate over their work units.
struct Totals {
  HostTimes host;  // merged samples and sums
  Samples setup;
  std::uint64_t units = 0;
  IoCensus census;
  double commit_cpu = 0.0;
  std::uint64_t enqueue_stalls = 0;
  std::uint64_t queue_peak = 0;

  void add(const HostTimes& t) {
    host.stall.append(t.stall);
    host.restart.append(t.restart);
    host.compute_first += t.compute_first;
    host.compute_rerun += t.compute_rerun;
    host.capture += t.capture;
    host.restore += t.restore;
    ++units;
  }
};

Metric ratio(double v) { return {v, "ratio"}; }
Metric count(double v) { return {v, "count"}; }
Metric secs(double v) { return {v, "s"}; }

template <typename MakeBackend, typename Account>
Result run_campaign(const Options& opt, double seconds,
                    ndpcr::obs::Tracer* tracer, MakeBackend make_backend,
                    Account account) {
  const Shape shape = shape_for(opt);
  const auto schedule = failure_schedule(shape, opt.seed);
  ndpcr::exec::TaskPool pool(1);
  Probe probe(tracer);
  Result result;
  Totals totals;

  // The warm-up unit reports to its own untraced probe, so it adds
  // nothing to the per-unit totals or the trace.
  const auto unit = [&](Probe& p) -> double {
    const bool measured = &p == &probe;
    const auto t0 = Clock::now();
    Kernels reference = make_kernels(shape, opt.seed);
    for (std::uint64_t i = 0; i < shape.steps; ++i) {
      for (auto& k : reference) k->iterate();
    }
    std::vector<std::uint64_t> ref;
    for (const auto& k : reference) ref.push_back(k->fingerprint());
    reference.clear();
    Kernels kernels = make_kernels(shape, opt.seed);
    auto backend = make_backend(shape, pool, p, result);
    const double setup = seconds_since(t0);

    const auto t1 = Clock::now();
    const HostTimes t =
        drive(kernels, schedule, shape, ref, *backend, p, result);
    const double wall = seconds_since(t1);
    if (!measured) return 0.0;
    totals.setup.add(setup);
    totals.add(t);
    std::map<std::string, double> exact;
    exact["workloads.steps_rerun"] = static_cast<double>(t.steps_rerun);
    exact["ckpt.bytes.payload"] = static_cast<double>(t.payload_bytes);
    account(*backend, totals, exact);
    if (totals.units == 1) {
      totals.census = census_io(backend->io(), shape.ranks,
                                backend->io_chunk_bytes(), probe.tracing(),
                                probe);
    }
    totals.census.record(exact);
    check_exact(result, exact);
    return wall;
  };
  Probe warm_up(nullptr);
  unit(warm_up);  // first-touch allocation, pool threads, caches
  const std::size_t want = samples_for_tail(kTailCap);
  run_units(
      seconds,
      [&] { return opt.smoke || totals.host.stall.size() >= want; },
      [&] { return unit(probe); });
  result.check(totals.census.ok,
               "IO entries failed to decode or re-encode identically");

  const HostTimes& h = totals.host;
  const auto n = static_cast<double>(totals.units);
  result.units = totals.units;
  result.tail_cap = kTailCap;
  result.op = h.stall;
  result.e2e["progress_rate"] = ratio(h.compute_first / h.host_wall());
  result.e2e["setup_s"] = secs(totals.setup.median());
  auto& L = result.layer;
  L["workloads.iterate_s"] = secs((h.compute_first + h.compute_rerun) / n);
  L["workloads.capture_s"] = secs(h.capture / n);
  L["workloads.restore_s"] = secs(h.restore / n);
  L["restart_ms_p50"] = {h.restart.median() * 1e3, "ms"};
  L["ckpt_gib_s"] = {static_cast<double>(result.exact["ckpt.bytes.payload"]) *
                         n / h.stall.sum() / (1ull << 30),
                     "GiB/s"};
  L["exec.threads"] = count(pool.thread_count());
  // A backend's calls it never makes total 0 s.
  for (const char* call : {"ckpt.commit", "ckpt.recover", "ndp.host_commit",
                           "ndp.pump", "ndp.restore"}) {
    L[std::string(call) + "_s"] = secs(probe.total(call) / n);
  }
  if (const double wall = probe.total("ckpt.commit"); wall > 0.0) {
    L["ckpt.commit_cpu_per_wall"] = ratio(totals.commit_cpu / wall);
  }
  L["ckpt.writer.enqueue_stalls"] = count(totals.enqueue_stalls / n);
  L["ckpt.writer.queue_peak"] = count(totals.queue_peak);
  if (const double pump = probe.total("ndp.pump"); pump > 0.0) {
    L["drain_mib_s"] = {result.exact["ndp.bytes_compressed"] * n / pump /
                            (1 << 20),
                        "MiB/s"};
  }
  if (totals.census.replay_seconds > 0.0) {
    L["compress.replay_mib_s"] = {static_cast<double>(
                                      totals.census.replay_bytes) /
                                      totals.census.replay_seconds /
                                      (1 << 20),
                                  "MiB/s"};
  }
  return result;
}

}  // namespace

Result run_campaign_host(const Options& opt, double seconds,
                         ndpcr::obs::Tracer* tracer) {
  const auto make = [](const Shape& shape, ndpcr::exec::TaskPool& pool,
                       Probe& probe, Result& result) {
    return std::make_unique<HostBackend>(shape, pool, probe, result);
  };
  const auto account = [](HostBackend& b, Totals& totals,
                          std::map<std::string, double>& exact) {
    const auto& m = b.manager();
    const auto& d = m.data_path();
    const auto& hr = m.health();
    exact["ckpt.recover_from.local"] = b.recovered_from[0];
    exact["ckpt.recover_from.partner"] = b.recovered_from[1];
    exact["ckpt.recover_from.io"] = b.recovered_from[2];
    exact["ckpt.bytes.local"] = d.local_bytes_written;
    exact["ckpt.bytes.partner"] = d.partner_bytes_written;
    exact["ckpt.bytes.io_logical"] = d.io_logical_bytes;
    exact["ckpt.bytes.io_written"] = d.io_bytes_written;
    exact["ckpt.put_retries"] =
        hr.local.put_retries + hr.partner.put_retries + hr.io.put_retries;
    exact["ckpt.verify_failures"] = hr.local.verify_failures +
                                    hr.partner.verify_failures +
                                    hr.io.verify_failures;
    totals.commit_cpu += b.commit_cpu;
    totals.enqueue_stalls += m.pipeline().enqueue_stalls;
    totals.queue_peak = std::max(totals.queue_peak, m.pipeline().queue_peak);
  };
  return run_campaign(opt, seconds, tracer, make, account);
}

Result run_campaign_ndp(const Options& opt, double seconds,
                        ndpcr::obs::Tracer* tracer) {
  const auto make = [](const Shape& shape, ndpcr::exec::TaskPool&,
                       Probe& probe, Result& result) {
    return std::make_unique<NdpBackend>(shape, probe, result);
  };
  const auto account = [](NdpBackend& b, Totals&,
                          std::map<std::string, double>& exact) {
    const ndp::AgentStats st = b.stats();
    exact["ndp.drains_completed"] = st.drains_completed;
    exact["ndp.drains_skipped"] = st.drains_skipped;
    exact["ndp.bytes_compressed"] = st.bytes_compressed;
    exact["ndp.bytes_to_io"] = st.bytes_to_io;
    exact["ndp.host_commit_refused"] = b.refused;
    exact["ndp.restored_from_io"] = b.from_io;
  };
  Result r = run_campaign(opt, seconds, tracer, make, account);
  const double done = r.exact["ndp.drains_completed"];
  r.layer["ndp.drain_useful_frac"] =
      ratio(done / (done + r.exact["ndp.drains_skipped"]));
  return r;
}

}  // namespace perfbench
