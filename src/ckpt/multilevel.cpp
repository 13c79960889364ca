#include "ckpt/multilevel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "exec/task_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ndpcr::ckpt {
namespace {

double backoff_for(const RetryPolicy& policy, std::uint32_t attempt) {
  // Virtual delay charged before retry `attempt` (1-based).
  return policy.backoff_seconds *
         std::pow(policy.backoff_multiplier,
                  static_cast<double>(attempt - 1));
}

// Close out one level's share of a commit: a fully verified level heals a
// degraded state (counted as a repair); any abandoned write degrades it.
void settle_level(LevelHealth& health, bool level_ok) {
  const bool was_degraded = health.degraded();
  if (level_ok) {
    if (was_degraded) {
      health.state = LevelState::kHealthy;
      ++health.repairs;
    }
  } else {
    health.state = LevelState::kDegraded;
  }
  if (health.degraded()) ++health.degraded_commits;
}

// Fold one task's private health delta into the level's counters. Always
// called in index order after the batch barrier, so every counter - the
// floating-point backoff sum included - is reduced in one fixed order and
// the totals are bit-identical at any thread count.
void merge_level(LevelHealth& into, const LevelHealth& delta) {
  into.puts += delta.puts;
  into.put_retries += delta.put_retries;
  into.put_failures += delta.put_failures;
  into.verify_failures += delta.verify_failures;
  into.quarantined += delta.quarantined;
  into.read_retries += delta.read_retries;
  into.backoff_seconds += delta.backoff_seconds;
}

// Parse + CRC-check raw image bytes; the image iff they are rank/id's
// checkpoint. Pure - safe from any task.
std::optional<CheckpointImage> parse_image(std::uint32_t rank,
                                           std::uint64_t id, ByteSpan raw) {
  try {
    CheckpointImage image = CheckpointImage::parse(raw);
    if (image.meta().rank != rank || image.meta().checkpoint_id != id) {
      return std::nullopt;
    }
    return image;
  } catch (const ImageError&) {
    return std::nullopt;
  }
}

// Recovery walks levels fastest to slowest; a chain is charged the
// deepest level any of its links came from.
RecoveryLevel deeper(RecoveryLevel a, RecoveryLevel b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

// Bound on delta links walked before recovery declares a chain cyclic or
// corrupt (base_id must strictly decrease, so this only trips on damage).
constexpr std::size_t kMaxChainLinks = 4096;

}  // namespace

const char* to_string(RecoveryLevel level) {
  switch (level) {
    case RecoveryLevel::kLocal:
      return "local";
    case RecoveryLevel::kPartner:
      return "partner";
    case RecoveryLevel::kIo:
      return "io";
  }
  return "?";
}

const char* to_string(LevelState state) {
  switch (state) {
    case LevelState::kHealthy:
      return "healthy";
    case LevelState::kDegraded:
      return "degraded";
  }
  return "?";
}

void record_health(obs::MetricsRegistry& metrics, const HealthReport& report,
                   std::string_view prefix) {
  const auto level = [&](const char* name, const LevelHealth& h) {
    const std::string base = std::string(prefix) + "." + name + ".";
    metrics.counter(base + "puts").add(h.puts);
    metrics.counter(base + "put_retries").add(h.put_retries);
    metrics.counter(base + "put_failures").add(h.put_failures);
    metrics.counter(base + "verify_failures").add(h.verify_failures);
    metrics.counter(base + "quarantined").add(h.quarantined);
    metrics.counter(base + "read_retries").add(h.read_retries);
    metrics.counter(base + "degraded_commits").add(h.degraded_commits);
    metrics.counter(base + "repairs").add(h.repairs);
    metrics.gauge(base + "backoff_seconds").set(h.backoff_seconds);
    metrics.gauge(base + "degraded").set(h.degraded() ? 1.0 : 0.0);
  };
  level("local", report.local);
  level("partner", report.partner);
  level("io", report.io);
  const std::string base = std::string(prefix) + ".";
  metrics.counter(base + "commits").add(report.commits);
  metrics.counter(base + "degraded_commits").add(report.degraded_commits);
}

void record_data_path(obs::MetricsRegistry& metrics,
                      const DataPathStats& stats, std::string_view prefix) {
  const std::string base = std::string(prefix) + ".";
  metrics.counter(base + "commits_full").add(stats.commits_full);
  metrics.counter(base + "commits_delta").add(stats.commits_delta);
  metrics.counter(base + "payload_bytes_in").add(stats.payload_bytes_in);
  metrics.counter(base + "delta_input_bytes").add(stats.delta_input_bytes);
  metrics.counter(base + "delta_encoded_bytes")
      .add(stats.delta_encoded_bytes);
  metrics.counter(base + "local_bytes_written")
      .add(stats.local_bytes_written);
  metrics.counter(base + "partner_bytes_written")
      .add(stats.partner_bytes_written);
  metrics.counter(base + "io_logical_bytes").add(stats.io_logical_bytes);
  metrics.counter(base + "io_bytes_written").add(stats.io_bytes_written);
  metrics.counter(base + "dedup_new_bytes").add(stats.dedup_new_bytes);
  metrics.counter(base + "dedup_dup_bytes").add(stats.dedup_dup_bytes);
  metrics.counter(base + "chain_links").add(stats.chain_links);
  metrics.counter(base + "chain_replays").add(stats.chain_replays);
  metrics.gauge(base + "delta_factor").set(stats.delta_factor());
  metrics.gauge(base + "dedup_hit_rate").set(stats.dedup_hit_rate());
  const auto ledger = [&](const char* stage, const ByteLedger& l) {
    const std::string at = base + "ledger." + stage + ".";
    metrics.counter(at + "copied").add(l.copied);
    metrics.counter(at + "crc").add(l.crc);
    metrics.counter(at + "hashed").add(l.hashed);
    metrics.counter(at + "xored").add(l.xored);
    metrics.counter(at + "compared").add(l.compared);
  };
  ledger("image", stats.image);
  ledger("local", stats.local);
  ledger("partner", stats.partner);
  ledger("io", stats.io);
  metrics.gauge(base + "ledger.touches_per_payload_byte")
      .set(stats.touches_per_payload_byte());
}

void record_pipeline(obs::MetricsRegistry& metrics,
                     const PipelineStats& stats, std::string_view prefix) {
  const std::string base = std::string(prefix) + ".";
  metrics.counter(base + "jobs").add(stats.jobs);
  metrics.counter(base + "inline_jobs").add(stats.inline_jobs);
  metrics.counter(base + "flushes").add(stats.flushes);
  // Wall-clock observations (scheduling-dependent): gauges, and excluded
  // from fingerprints the way wall-time trace events are.
  metrics.gauge(base + "queue_peak")
      .set(static_cast<double>(stats.queue_peak));
  metrics.gauge(base + "enqueue_stalls")
      .set(static_cast<double>(stats.enqueue_stalls));
}

MultilevelManager::MultilevelManager(const MultilevelConfig& config)
    : config_(config),
      trace_(config.trace ? config.trace : &obs::Tracer::null()) {
  if (config.node_count == 0) {
    throw std::invalid_argument("node_count must be positive");
  }
  if (config.retry.max_attempts == 0) {
    throw std::invalid_argument("retry.max_attempts must be positive");
  }
  if (config.partner_scheme == PartnerScheme::kXorGroup) {
    if (config.xor_group_size == 0 ||
        (config.node_count > 1 &&
         config.xor_group_size >= config.node_count)) {
      // The parity host is the node after the group; a group spanning the
      // whole machine would host its own parity and tolerate nothing.
      throw std::invalid_argument(
          "xor_group_size must be in [1, node_count)");
    }
  }
  unsigned codec_threads = config.io_threads;
  if (codec_threads == 0) {
    codec_threads = config.pool ? config.pool->thread_count()
                                : exec::default_thread_count();
  }
  if (config.io_codec != compress::CodecId::kNull) {
    io_codec_.emplace(config.io_codec, config.io_codec_level,
                      config.io_chunk_bytes, codec_threads);
    io_codec_->warm(codec_threads);
  } else if (config.io_codec_adaptive) {
    // Online selection (docs/PERF.md): one pre-built codec per candidate,
    // so the per-commit probe choice costs a table lookup, never a codec
    // allocation. A static io_codec overrides adaptive entirely.
    adaptive_codecs_.reserve(compress::kCodecCandidates);
    for (std::size_t c = 0; c < compress::kCodecCandidates; ++c) {
      const compress::CodecChoice choice = compress::codec_candidate(c);
      adaptive_codecs_.push_back(std::make_unique<compress::ChunkedCodec>(
          choice.id, choice.level, config.io_chunk_bytes, codec_threads,
          choice.accelerate));
      adaptive_codecs_.back()->warm(codec_threads);
    }
  }
  if (config.delta.enabled) {
    if (config.delta.block_bytes == 0) {
      throw std::invalid_argument("delta.block_bytes must be positive");
    }
    delta_codec_.emplace(config.delta.block_bytes);
    prev_payload_.resize(config.node_count);
    delta_scratch_.warm(config.node_count);
  }
  if (config.delta.io_dedup) {
    io_dedup_.emplace(config.delta.cdc);  // throws on bad CDC parameters
  }
  local_.reserve(config.node_count);
  for (std::uint32_t n = 0; n < config.node_count; ++n) {
    if (config_.nvm_factory) {
      local_.push_back(config_.nvm_factory(n));
      if (!local_.back()) {
        throw std::invalid_argument("nvm_factory returned null");
      }
    } else {
      local_.push_back(std::make_shared<NvmStore>(
          config.nvm_capacity_bytes, config.delta.nvm_dedup_block_bytes));
    }
  }
  local_write_ops_.assign(config.node_count, 0);
  auto make_store = [&](StoreLevel level,
                        std::uint32_t host) -> std::unique_ptr<KvStore> {
    if (config_.store_factory) return config_.store_factory(level, host);
    return std::make_unique<KvStore>();
  };
  partner_space_.reserve(config.node_count);
  for (std::uint32_t n = 0; n < config.node_count; ++n) {
    partner_space_.push_back(make_store(StoreLevel::kPartner, n));
  }
  io_ = make_store(StoreLevel::kIo, 0);
  if (config.adopt_existing) adopt_existing_state();
  if (trace_->enabled()) {
    trace_->set_track_name(0, "ckpt.manager");
    for (std::uint32_t n = 0; n < config.node_count; ++n) {
      trace_->set_track_name(1 + n, "rank " + std::to_string(n));
    }
  }
}

void MultilevelManager::adopt_existing_state() {
  // Restart over surviving stores (docs/EQUIVALENCE.md): find the newest
  // checkpoint id any level still holds for any rank, so new commits
  // continue the id sequence instead of colliding with a previous life's
  // entries. Every key space the commit path writes under is scanned:
  // local NVM per rank, partner spaces (keyed by rank for copies, by the
  // group's first rank for parity - both in [0, node_count)), and the IO
  // store.
  std::uint64_t newest = 0;
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    if (const auto id = local_[rank]->newest_id()) {
      newest = std::max(newest, *id);
    }
    for (std::uint32_t host = 0; host < config_.node_count; ++host) {
      if (const auto id = partner_space_[host]->newest_id(rank)) {
        newest = std::max(newest, *id);
      }
    }
    if (const auto id = io_->newest_id(rank)) {
      newest = std::max(newest, *id);
    }
  }
  next_id_ = newest + 1;
  // Rebuild the dedup bookkeeping from the recipes that survived: without
  // this, the first post-restart commit would re-plan every block as new
  // (wasted IO) and a later release could never free shared blocks. The
  // block space itself (kDedupBlockRank) needs no scan - blocks a
  // surviving recipe does not reference are garbage, not state.
  if (!io_dedup_) return;
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    for (const std::uint64_t id : io_->list(rank)) {
      const StoreResult<Bytes> raw = io_->get(rank, id);
      if (!raw.ok()) continue;
      const auto parsed = DedupIndex::parse_recipe(ByteSpan(*raw));
      if (!parsed) continue;  // plain framed image, or torn: not a recipe
      io_dedup_->restore(parsed->refs, parsed->image_size, rank, id);
    }
  }
}

std::uint32_t MultilevelManager::group_first(std::uint32_t rank) const {
  return rank - rank % config_.xor_group_size;
}

std::uint32_t MultilevelManager::parity_host(std::uint32_t rank) const {
  const std::uint32_t last = std::min(
      group_first(rank) + config_.xor_group_size - 1,
      config_.node_count - 1);
  return (last + 1) % config_.node_count;
}

namespace {

// Minimum bytes of estimated work one pool task should amortize. Below
// this, the fix for the committed-bench regressions applies: claims are
// batched (TaskPool grain) and tiny batches run inline - waking a pool
// for a few hundred KiB of memcpy/CRC costs more than the work
// (BENCH_datapath.json's null-codec 2-thread dip and the 8-thread
// recover collapse were exactly this overhead).
constexpr std::size_t kMinTaskBytes = 2ull << 20;

std::size_t grain_for(std::size_t n, std::size_t work_bytes) {
  if (n == 0 || work_bytes == 0) return 1;
  const std::size_t per_index = work_bytes / n;
  if (per_index >= kMinTaskBytes) return 1;
  if (per_index == 0) return n;
  return std::min(n, (kMinTaskBytes + per_index - 1) / per_index);
}

// The local NVM level behind the KvStore seam, so local writes run the
// same put/verify/quarantine primitive (checked_put) as the partner and
// IO levels. Built per rank per commit over the rank's device: put runs
// the configured fault hook on the staged bytes, then hands them to the
// NvmStore; digest reads the entry in place. Node memory cannot fail a
// read, so an entry the device dropped digests as empty - the verify
// then quarantines it, as a missed readback always did. Only the three
// operations verified_put_once issues are forwarded; recovery reads the
// NvmStore directly.
class LocalNvmLevel final : public KvStore {
 public:
  using Hook = std::function<void(std::uint32_t, std::uint64_t, Bytes&)>;

  LocalNvmLevel(NvmStore& nvm, const Hook& hook, std::uint64_t& write_ops)
      : nvm_(nvm), hook_(hook), write_ops_(write_ops) {}

  StoreStatus put(std::uint32_t rank, std::uint64_t id, Bytes data) override {
    if (hook_) hook_(rank, write_ops_++, data);
    if (!nvm_.put(id, std::move(data))) {
      // Capacity exhaustion is a configuration error, not a device fault.
      throw std::logic_error("local NVM cannot accept checkpoint " +
                             std::to_string(id));
    }
    return StoreStatus::success();
  }
  [[nodiscard]] StoreResult<EntryDigest> digest(
      std::uint32_t /*rank*/, std::uint64_t id) const override {
    const auto span = nvm_.get(id);
    return span ? digest_of(*span) : EntryDigest{};
  }
  void erase(std::uint32_t /*rank*/, std::uint64_t id) override {
    nvm_.erase(id);
  }

 private:
  NvmStore& nvm_;
  const Hook& hook_;
  std::uint64_t& write_ops_;
};

// Put source for bytes other levels still read (a rank's image): every
// attempt hands the store its own copy.
auto copy_of(const Bytes& source, ByteLedger& ledger) {
  return [&source, &ledger](std::uint32_t /*attempt*/) {
    ledger.copied += source.size();
    return source;
  };
}

// XOR parity of images [first, last), as wide as the longest member: the
// first member is copied, the rest fold in word-wide, each acting as if
// zero-padded past its end - bit-identical to XORing padded copies.
Bytes group_parity(const std::vector<Bytes>& images, std::uint32_t first,
                   std::uint32_t last, ByteLedger& ledger) {
  std::size_t width = 0;
  for (std::uint32_t r = first; r < last; ++r) {
    width = std::max(width, images[r].size());
  }
  Bytes parity;
  parity.reserve(width);
  parity.assign(images[first].begin(), images[first].end());
  parity.resize(width, std::byte{0});
  ledger.copied += images[first].size();
  for (std::uint32_t r = first + 1; r < last; ++r) {
    xor_into(MutableByteSpan(parity), ByteSpan(images[r]));
    ledger.xored += images[r].size();
  }
  return parity;
}

// Put source for a group's parity: attempt 0 hands over the buffer
// already built, a retry folds the group again.
auto parity_source(Bytes& parity, const std::vector<Bytes>& images,
                   std::uint32_t first, std::uint32_t last,
                   ByteLedger& ledger) {
  return [&parity, &images, first, last, &ledger](std::uint32_t attempt) {
    return attempt == 0 ? std::move(parity)
                        : group_parity(images, first, last, ledger);
  };
}

// Digest of a buffer the manager built itself (parity, a compressed
// stream), charged to the ledger.
EntryDigest digest_counted(const Bytes& data, ByteLedger& ledger) {
  ledger.crc += data.size();
  return digest_of(ByteSpan(data));
}

}  // namespace

void MultilevelManager::for_tasks(
    std::size_t n, const std::function<void(std::size_t)>& body,
    std::size_t work_bytes) const {
  if (exec::TaskPool::in_worker()) {
    // Already running as someone's task (the chaos suite executes whole
    // replicates on the pool): nested parallel_for is rejected, and the
    // per-index-slot structure makes inline execution bit-identical.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  exec::TaskPool& pool =
      config_.pool ? *config_.pool : exec::global_pool();
  pool.parallel_for(n, body, grain_for(n, work_bytes));
}

bool MultilevelManager::checked_put(KvStore& store, LevelHealth& health,
                                    ByteLedger& ledger, std::uint32_t rank,
                                    std::uint64_t id, const PutBytes& bytes,
                                    const EntryDigest& expected, bool probe,
                                    TraceCtx tc) {
  const RetryPolicy& policy = config_.retry;
  const std::uint32_t attempts = probe ? 1 : policy.max_attempts;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    ++health.puts;
    if (attempt > 0) {
      ++health.put_retries;
      health.backoff_seconds += backoff_for(policy, attempt);
      if (tc.buf) {
        tc.buf->instant("put_retry", tc.level, tc.track,
                        {obs::u64("rank", rank), obs::u64("id", id),
                         obs::u64("attempt", attempt)});
      }
    }
    // One attempt of the shared write-verify-quarantine primitive (the
    // same stage the NDP agent's drain runs; docs/PERF.md).
    const PutOutcome out = verified_put_once(store, rank, id, bytes(attempt),
                                             expected, config_.verify_writes);
    if (out.accepted && config_.verify_writes) ledger.crc += expected.size;
    if (out.ok) return true;
    if (!out.accepted) {
      if (out.put_permanent) break;  // outage: retries are futile
      continue;                      // transient: back off, retry
    }
    ++health.verify_failures;
    if (tc.buf) {
      tc.buf->instant("verify_fail", tc.level, tc.track,
                      {obs::u64("rank", rank), obs::u64("id", id)});
    }
    if (out.quarantined) {
      ++health.quarantined;
      if (tc.buf) {
        tc.buf->instant("quarantine", tc.level, tc.track,
                        {obs::u64("rank", rank), obs::u64("id", id)});
      }
    }
    // A transient readback *error* leaves the entry in place - it may be
    // intact - but unverified counts as failed, so the loop rewrites it.
  }
  ++health.put_failures;
  if (tc.buf) {
    tc.buf->instant("put_failed", tc.level, tc.track,
                    {obs::u64("rank", rank), obs::u64("id", id)});
  }
  return false;
}

std::optional<Bytes> MultilevelManager::checked_get(const KvStore& store,
                                                    LevelHealth& health,
                                                    std::uint32_t rank,
                                                    std::uint64_t id,
                                                    TraceCtx tc) const {
  const RetryPolicy& policy = config_.retry;
  for (std::uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    StoreResult<Bytes> got = store.get(rank, id);
    if (got.ok()) return std::move(*got);
    if (!got.error().transient()) return std::nullopt;
    if (attempt + 1 < policy.max_attempts) {
      ++health.read_retries;
      health.backoff_seconds += backoff_for(policy, attempt + 1);
      if (tc.buf) {
        tc.buf->instant("read_retry", tc.level, tc.track,
                        {obs::u64("rank", rank), obs::u64("id", id),
                         obs::u64("attempt", attempt + 1)});
      }
    }
  }
  return std::nullopt;
}

void MultilevelManager::commit_local(std::uint64_t id,
                                     const std::vector<Bytes>& images,
                                     const std::vector<EntryDigest>& digests) {
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span phase;
  if (rb) phase = rb->span("local", "ckpt.local", 0, {obs::u64("id", id)});
  const bool was_degraded = health_.local.degraded();
  // Each rank owns its NVM device, its write-op counter and private
  // health/ledger deltas, so the write + verify fan-out is embarrassingly
  // parallel; deltas merge in rank order after the barrier.
  std::vector<LevelHealth> deltas(config_.node_count);
  std::vector<ByteLedger> ledgers(config_.node_count);
  std::vector<char> ok(config_.node_count, 1);
  std::vector<obs::TraceBuffer> tbs = trace_->task_buffers(config_.node_count);
  std::size_t image_bytes = 0;
  for (const Bytes& image : images) image_bytes += image.size();
  for_tasks(config_.node_count, [&](std::size_t rank) {
    TraceCtx tc;
    if (!tbs.empty()) {
      tc = {&tbs[rank], 1 + static_cast<std::uint32_t>(rank), "ckpt.local"};
    }
    obs::TraceBuffer::Span write;
    if (tc.buf) {
      write = tc.buf->span("nvm_write", "ckpt.local", tc.track,
                           {obs::u64("rank", rank),
                            obs::u64("bytes", images[rank].size())});
    }
    LocalNvmLevel level(*local_[rank], config_.local_write_hook,
                        local_write_ops_[rank]);
    // A local write that never verifies leaves the rank without a local
    // copy of this id; partner/io still cover it.
    ok[rank] = checked_put(level, deltas[rank], ledgers[rank],
                           static_cast<std::uint32_t>(rank), id,
                           copy_of(images[rank], ledgers[rank]),
                           digests[rank], false, tc)
                   ? 1
                   : 0;
  }, image_bytes);
  trace_->splice(tbs);
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    merge_level(health_.local, deltas[rank]);
    data_stats_.local += ledgers[rank];
    if (ok[rank]) {
      data_stats_.local_bytes_written += images[rank].size();
    } else {
      health_.local.state = LevelState::kDegraded;
    }
  }
  if (rb && !was_degraded && health_.local.degraded()) {
    rb->instant("level_degraded", "ckpt.local", 0, {obs::u64("id", id)});
  }
}

void MultilevelManager::commit_partner(
    std::uint64_t id, const std::vector<Bytes>& images,
    const std::vector<EntryDigest>& digests) {
  LevelHealth& health = health_.partner;
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span phase;
  if (rb) {
    phase = rb->span("partner", "ckpt.partner", 0,
                     {obs::u64("id", id),
                      obs::str("scheme",
                               config_.partner_scheme == PartnerScheme::kCopy
                                   ? "copy"
                                   : "xor")});
  }
  const bool was_degraded = health.degraded();
  bool level_ok = true;
  if (health.degraded()) {
    if (rb) rb->instant("probe", "ckpt.partner", 0, {obs::u64("id", id)});
    // Probe mode: single-attempt writes that stop at the first failure.
    // Stays serial - the early break has no parallel equivalent, and a
    // down level is not worth fanning out for.
    ByteLedger& ledger = data_stats_.partner;
    if (config_.partner_scheme == PartnerScheme::kCopy) {
      for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
        if (!checked_put(*partner_space_[partner_of(rank)], health, ledger,
                         rank, id, copy_of(images[rank], ledger),
                         digests[rank], true, {rb, 0, "ckpt.partner"})) {
          level_ok = false;
          break;  // still down: one failed probe is proof enough
        }
        data_stats_.partner_bytes_written += images[rank].size();
      }
    } else {
      for (std::uint32_t first = 0; first < config_.node_count;
           first += config_.xor_group_size) {
        const std::uint32_t last = std::min(
            first + config_.xor_group_size, config_.node_count);
        Bytes parity = group_parity(images, first, last, ledger);
        const std::size_t parity_size = parity.size();
        const EntryDigest expected = digest_counted(parity, ledger);
        if (!checked_put(*partner_space_[parity_host(first)], health, ledger,
                         first, id,
                         parity_source(parity, images, first, last, ledger),
                         expected, true, {rb, 0, "ckpt.partner"})) {
          level_ok = false;
          break;
        }
        data_stats_.partner_bytes_written += parity_size;
      }
    }
  } else if (config_.partner_scheme == PartnerScheme::kCopy) {
    // partner_of is a bijection, so every task writes a distinct store:
    // the whole exchange fans out, health deltas merged after the barrier.
    std::vector<LevelHealth> deltas(config_.node_count);
    std::vector<ByteLedger> ledgers(config_.node_count);
    std::vector<char> ok(config_.node_count, 1);
    std::vector<obs::TraceBuffer> tbs =
        trace_->task_buffers(config_.node_count);
    std::size_t image_bytes = 0;
    for (const Bytes& image : images) image_bytes += image.size();
    for_tasks(config_.node_count, [&](std::size_t rank) {
      TraceCtx tc;
      if (!tbs.empty()) {
        tc = {&tbs[rank], 1 + static_cast<std::uint32_t>(rank),
              "ckpt.partner"};
      }
      obs::TraceBuffer::Span put;
      if (tc.buf) {
        put = tc.buf->span("partner_put", "ckpt.partner", tc.track,
                           {obs::u64("rank", rank),
                            obs::u64("bytes", images[rank].size())});
      }
      const auto r = static_cast<std::uint32_t>(rank);
      ok[rank] = checked_put(*partner_space_[partner_of(r)], deltas[rank],
                             ledgers[rank], r, id,
                             copy_of(images[rank], ledgers[rank]),
                             digests[rank], false, tc)
                     ? 1
                     : 0;
    }, image_bytes);
    trace_->splice(tbs);
    for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
      merge_level(health, deltas[rank]);
      data_stats_.partner += ledgers[rank];
      if (ok[rank]) {
        data_stats_.partner_bytes_written += images[rank].size();
      } else {
        level_ok = false;
      }
    }
  } else {
    // XOR groups: one parity buffer per group, as wide as the group's
    // longest image, hosted off-group. Parity hosts are distinct across
    // groups, so groups encode and write concurrently.
    const std::size_t groups =
        (config_.node_count + config_.xor_group_size - 1) /
        config_.xor_group_size;
    std::vector<LevelHealth> deltas(groups);
    std::vector<ByteLedger> ledgers(groups);
    std::vector<char> ok(groups, 1);
    std::vector<std::size_t> parity_bytes(groups, 0);
    std::vector<obs::TraceBuffer> tbs = trace_->task_buffers(groups);
    std::size_t image_bytes = 0;
    for (const Bytes& image : images) image_bytes += image.size();
    for_tasks(groups, [&](std::size_t g) {
      const auto first =
          static_cast<std::uint32_t>(g * config_.xor_group_size);
      const std::uint32_t last = std::min(
          first + config_.xor_group_size, config_.node_count);
      TraceCtx tc;
      if (!tbs.empty()) tc = {&tbs[g], 1 + first, "ckpt.partner"};
      obs::TraceBuffer::Span encode;
      if (tc.buf) {
        std::size_t width = 0;
        for (std::uint32_t r = first; r < last; ++r) {
          width = std::max(width, images[r].size());
        }
        encode = tc.buf->span("xor_encode", "ckpt.partner", tc.track,
                              {obs::u64("group", g),
                               obs::u64("width", width)});
      }
      Bytes parity = group_parity(images, first, last, ledgers[g]);
      parity_bytes[g] = parity.size();
      const EntryDigest expected = digest_counted(parity, ledgers[g]);
      encode.close();
      obs::TraceBuffer::Span put;
      if (tc.buf) {
        put = tc.buf->span("parity_put", "ckpt.partner", tc.track,
                           {obs::u64("group", g),
                            obs::u64("bytes", parity_bytes[g])});
      }
      ok[g] = checked_put(*partner_space_[parity_host(first)], deltas[g],
                          ledgers[g], first, id,
                          parity_source(parity, images, first, last,
                                        ledgers[g]),
                          expected, false, tc)
                  ? 1
                  : 0;
    }, image_bytes);
    trace_->splice(tbs);
    for (std::size_t g = 0; g < groups; ++g) {
      merge_level(health, deltas[g]);
      data_stats_.partner += ledgers[g];
      if (ok[g]) {
        data_stats_.partner_bytes_written += parity_bytes[g];
      } else {
        level_ok = false;
      }
    }
  }
  settle_level(health, level_ok);
  if (rb) {
    if (!was_degraded && health.degraded()) {
      rb->instant("level_degraded", "ckpt.partner", 0, {obs::u64("id", id)});
    } else if (was_degraded && !health.degraded()) {
      rb->instant("level_healed", "ckpt.partner", 0, {obs::u64("id", id)});
    }
  }
}

const compress::ChunkedCodec* MultilevelManager::codec_for(
    const compress::CodecChoice& choice) const {
  if (io_codec_) return &*io_codec_;  // static codec overrides adaptive
  for (const auto& codec : adaptive_codecs_) {
    if (codec->id() == choice.id && codec->level() == choice.level &&
        codec->accelerate() == choice.accelerate) {
      return codec.get();
    }
  }
  return nullptr;  // adaptive off: store raw
}

std::optional<Bytes> MultilevelManager::decode_io_stream(Bytes stored) const {
  const auto header = compress::ChunkedCodec::peek(ByteSpan(stored));
  if (!header) return stored;  // raw (null-codec) image bytes
  // Streams are self-describing: the container header names the codec
  // the writer chose (adaptive selection, or another life's static
  // config), so recovery never needs this manager's codec to match.
  try {
    if (io_codec_ && io_codec_->id() == header->id &&
        io_codec_->level() == header->level) {
      return io_codec_->decompress(ByteSpan(stored));
    }
    for (const auto& codec : adaptive_codecs_) {
      if (codec->id() == header->id && codec->level() == header->level) {
        return codec->decompress(ByteSpan(stored));
      }
    }
    // Unfamiliar (older-config) stream: a transient decoder with the
    // manager's chunk geometry. make_codec validates id/level.
    const compress::ChunkedCodec codec(header->id, header->level,
                                       config_.io_chunk_bytes, 1);
    return codec.decompress(ByteSpan(stored));
  } catch (const compress::CodecError&) {
    return std::nullopt;
  }
}

void MultilevelManager::commit_io(std::uint64_t id,
                                  const std::vector<Bytes>& images,
                                  const std::vector<EntryDigest>& digests,
                                  AsyncStageWriter* writer,
                                  IoPending& pending) {
  LevelHealth& health = health_.io;
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span phase;
  if (rb) phase = rb->span("io", "ckpt.io", 0, {obs::u64("id", id)});
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    data_stats_.io_logical_bytes += images[rank].size();
  }
  const bool was_degraded = health.degraded();
  bool level_ok = true;
  if (io_dedup_) {
    // Dedup path: each image becomes a recipe plus the content-addressed
    // blocks no prior image already stored. Serial in rank order (one
    // shared fault-scheduled device), and the index is only updated after
    // every block and the recipe are durably in place - a failed put
    // leaves the index describing exactly what the store holds.
    const bool probe = health.degraded();
    if (probe && rb) rb->instant("probe", "ckpt.io", 0, {obs::u64("id", id)});
    ByteLedger& ledger = data_stats_.io;
    for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
      const DedupIndex::Plan plan = io_dedup_->plan(images[rank]);
      bool rank_ok = true;
      std::size_t rank_bytes = 0;
      for (const auto& [key, block] : plan.new_blocks) {
        const auto encode = [&, &block = block]() {
          if (io_codec_) return io_codec_->compress(block);
          ledger.copied += block.size();
          return block;
        };
        Bytes stored = encode();
        const std::size_t stored_size = stored.size();
        const EntryDigest expected = digest_counted(stored, ledger);
        const auto bytes = [&](std::uint32_t attempt) {
          return attempt == 0 ? std::move(stored) : encode();
        };
        if (!checked_put(*io_, health, ledger, kDedupBlockRank, key, bytes,
                         expected, probe, {rb, 0, "ckpt.io"})) {
          rank_ok = false;
          break;
        }
        rank_bytes += stored_size;
      }
      if (rank_ok) {
        // Recipes stay uncompressed: they are tiny and must be readable
        // before any codec state is known.
        rank_ok = checked_put(*io_, health, ledger, rank, id,
                              copy_of(plan.recipe, ledger),
                              digest_counted(plan.recipe, ledger), probe,
                              {rb, 0, "ckpt.io"});
      }
      if (rank_ok) {
        io_dedup_->admit(plan, rank, id);
        data_stats_.io_bytes_written += rank_bytes + plan.recipe.size();
        data_stats_.dedup_new_bytes += plan.new_bytes;
        data_stats_.dedup_dup_bytes += plan.dup_bytes;
        if (rb) {
          rb->instant("io_dedup_put", "ckpt.io", 0,
                      {obs::u64("rank", rank),
                       obs::u64("new_bytes", plan.new_bytes),
                       obs::u64("dup_bytes", plan.dup_bytes)});
        }
      } else {
        level_ok = false;
        if (probe) break;
      }
    }
    settle_level(health, level_ok);
    if (rb) {
      if (!was_degraded && health.degraded()) {
        rb->instant("level_degraded", "ckpt.io", 0, {obs::u64("id", id)});
      } else if (was_degraded && !health.degraded()) {
        rb->instant("level_healed", "ckpt.io", 0, {obs::u64("id", id)});
      }
    }
    return;
  }
  if (health.degraded()) {
    // Probe mode: serial, compress-as-you-go, stop at the first failure.
    if (rb) rb->instant("probe", "ckpt.io", 0, {obs::u64("id", id)});
    ByteLedger& ledger = data_stats_.io;
    for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
      const compress::ChunkedCodec* codec =
          io_codec_ ? &*io_codec_
                    : (config_.io_codec_adaptive
                           ? codec_for(compress::choose_codec(
                                 ByteSpan(images[rank])))
                           : nullptr);
      bool put_ok = false;
      std::size_t stored_size = images[rank].size();
      if (codec) {
        Bytes packed = codec->compress(images[rank]);
        stored_size = packed.size();
        const EntryDigest expected = digest_counted(packed, ledger);
        const auto bytes = [&](std::uint32_t attempt) {
          return attempt == 0 ? std::move(packed)
                              : codec->compress(images[rank]);
        };
        put_ok = checked_put(*io_, health, ledger, rank, id, bytes, expected,
                             true, {rb, 0, "ckpt.io"});
      } else {
        put_ok = checked_put(*io_, health, ledger, rank, id,
                             copy_of(images[rank], ledger), digests[rank],
                             true, {rb, 0, "ckpt.io"});
      }
      if (!put_ok) {
        level_ok = false;
        break;
      }
      data_stats_.io_bytes_written += stored_size;
    }
    settle_level(health, level_ok);
    if (rb) {
      if (!was_degraded && health.degraded()) {
        rb->instant("level_degraded", "ckpt.io", 0, {obs::u64("id", id)});
      } else if (was_degraded && !health.degraded()) {
        rb->instant("level_healed", "ckpt.io", 0, {obs::u64("id", id)});
      }
    }
    return;
  }
  // Healthy path: rank-granular pipeline. Rank r's chunks compress on the
  // task pool (intra-image parallelism: one big rank no longer serializes
  // the batch behind a flat (rank, chunk) fan-out), then its put is handed
  // to the async writer, so rank r's level write overlaps rank r+1's
  // compression - and, because finish_commit_io runs after commit_local,
  // the whole IO write train overlaps the local-NVM fan-out. The writer
  // runs jobs strictly in submission (rank) order on one thread, so the
  // shared fault-scheduled IO device sees the exact op sequence the serial
  // path issued. Each job fills only its rank's IoPending slots; health
  // deltas and trace buffers merge in rank order in finish_commit_io.
  pending.active = true;
  pending.was_degraded = was_degraded;
  pending.deltas.assign(config_.node_count, LevelHealth{});
  pending.ledgers.assign(config_.node_count, ByteLedger{});
  pending.ok.assign(config_.node_count, 0);
  pending.bytes.assign(config_.node_count, 0);
  pending.tbs = trace_->task_buffers(config_.node_count);
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    const compress::ChunkedCodec* codec = io_codec_ ? &*io_codec_ : nullptr;
    if (!codec && config_.io_codec_adaptive) {
      // Online selection: probe this rank's bytes and pick the candidate
      // codec. The stream records the choice in its container header, so
      // recovery is self-describing (decode_io_stream).
      compress::ProbeStats ps;
      const compress::CodecChoice choice =
          compress::choose_codec(ByteSpan(images[rank]), &ps);
      codec = codec_for(choice);
      if (rb) {
        rb->instant("codec_choice", "ckpt.io", 0,
                    {obs::u64("rank", rank),
                     obs::u64("codec", static_cast<std::uint64_t>(choice.id)),
                     obs::u64("accel", choice.accelerate ? 1 : 0),
                     obs::u64("entropy_millibits",
                              static_cast<std::uint64_t>(
                                  ps.entropy_bits * 1000.0)),
                     obs::u64("match_permille",
                              static_cast<std::uint64_t>(
                                  ps.match_fraction * 1000.0))});
      }
    }
    Bytes packed;
    if (codec) {
      const std::size_t n = codec->chunk_count(images[rank].size());
      std::vector<Bytes> chunks(n);
      obs::TraceBuffer::Span cspan;
      if (rb) {
        cspan = rb->span("io_compress", "ckpt.io", 0,
                         {obs::u64("id", id), obs::u64("rank", rank),
                          obs::u64("chunks", n)});
      }
      std::vector<obs::TraceBuffer> ctbs = trace_->task_buffers(n);
      for_tasks(
          n,
          [&](std::size_t c) {
            chunks[c] = codec->compress_chunk(images[rank], c);
            if (!ctbs.empty()) {
              ctbs[c].instant("compress_chunk", "ckpt.io", 1 + rank,
                              {obs::u64("rank", rank), obs::u64("chunk", c),
                               obs::u64("out_bytes", chunks[c].size())});
            }
          },
          images[rank].size());
      trace_->splice(ctbs);
      packed = codec->assemble(images[rank].size(), chunks, 0, n);
    }
    // The job reads the caller's image - `images` outlives the flush
    // barrier in commit() - for the null codec's copy and for a retry's
    // recompression; a compressed stream is handed to the store as is.
    auto job = [this, &pending, rank, id, codec, image = &images[rank],
                digest = digests[rank], owned = std::move(packed)]() mutable {
      ByteLedger& ledger = pending.ledgers[rank];
      const std::size_t size = codec ? owned.size() : image->size();
      const EntryDigest expected =
          codec ? digest_counted(owned, ledger) : digest;
      TraceCtx tc;
      if (!pending.tbs.empty()) tc = {&pending.tbs[rank], 1 + rank, "ckpt.io"};
      if (tc.buf) {
        tc.buf->instant("io_put", "ckpt.io", tc.track,
                        {obs::u64("rank", rank), obs::u64("bytes", size)});
      }
      const auto bytes = [&](std::uint32_t attempt) -> Bytes {
        if (!codec) {
          ledger.copied += image->size();
          return *image;
        }
        return attempt == 0 ? std::move(owned) : codec->compress(*image);
      };
      if (checked_put(*io_, pending.deltas[rank], ledger, rank, id, bytes,
                      expected, false, tc)) {
        pending.ok[rank] = 1;
        pending.bytes[rank] = size;
      }
    };
    if (writer) {
      writer->submit(std::move(job));
    } else {
      ++pipeline_stats_.jobs;
      ++pipeline_stats_.inline_jobs;
      job();
    }
  }
}

void MultilevelManager::finish_commit_io(std::uint64_t id, IoPending& pending) {
  if (!pending.active) return;
  pending.active = false;
  LevelHealth& health = health_.io;
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span phase;
  if (rb) phase = rb->span("io_settle", "ckpt.io", 0, {obs::u64("id", id)});
  trace_->splice(pending.tbs);
  bool level_ok = true;
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    merge_level(health, pending.deltas[rank]);
    data_stats_.io += pending.ledgers[rank];
    if (pending.ok[rank]) {
      data_stats_.io_bytes_written += pending.bytes[rank];
    } else {
      level_ok = false;
    }
  }
  settle_level(health, level_ok);
  if (rb) {
    if (!pending.was_degraded && health.degraded()) {
      rb->instant("level_degraded", "ckpt.io", 0, {obs::u64("id", id)});
    } else if (pending.was_degraded && !health.degraded()) {
      rb->instant("level_healed", "ckpt.io", 0, {obs::u64("id", id)});
    }
  }
}

std::uint64_t MultilevelManager::commit(
    const std::vector<ByteSpan>& payloads) {
  if (payloads.size() != config_.node_count) {
    throw std::invalid_argument("one payload per rank required");
  }
  const std::uint64_t id = next_id_++;
  const bool to_partner =
      config_.partner_every > 0 && id % config_.partner_every == 0;
  const bool to_io = config_.io_every > 0 && id % config_.io_every == 0;
  // Delta commits encode against the previous committed checkpoint; a
  // full anchor is forced for the first commit and whenever the chain
  // reaches its configured length.
  const bool as_delta = delta_codec_.has_value() &&
                        config_.delta.chain_length > 0 && have_prev_ &&
                        links_since_full_ < config_.delta.chain_length;

  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span commit_span;
  if (rb) {
    commit_span = rb->span("commit", "ckpt", 0,
                           {obs::u64("id", id),
                            obs::u64("partner", to_partner ? 1 : 0),
                            obs::u64("io", to_io ? 1 : 0),
                            obs::str("kind", as_delta ? "delta" : "full")});
  }

  // Serialize + CRC every rank's image in parallel (pure per-rank work:
  // each task owns its index's image slot, delta stats slot and a pooled
  // encoder scratch, so the fan-out is allocation-light and the stats
  // fold below runs serially in rank order).
  std::vector<Bytes> images(config_.node_count);
  // The digest every level's write verify compares against: computed
  // once here, never re-derived from a readback copy.
  std::vector<EntryDigest> digests(config_.node_count);
  std::vector<ByteLedger> build_ledgers(config_.node_count);
  std::vector<delta::DeltaStats> dstats(
      as_delta ? config_.node_count : 0);
  std::size_t payload_bytes = 0;
  for (const ByteSpan& p : payloads) payload_bytes += p.size();
  {
    obs::TraceBuffer::Span build;
    if (rb) {
      build = rb->span("image_build", "ckpt", 0,
                       {obs::u64("id", id),
                        obs::str("kind", as_delta ? "delta" : "full")});
    }
    std::vector<obs::TraceBuffer> tbs =
        trace_->task_buffers(config_.node_count);
    for_tasks(config_.node_count, [&](std::size_t rank) {
      CheckpointMeta meta;
      meta.app_id = config_.app_id;
      meta.rank = static_cast<std::uint32_t>(rank);
      meta.checkpoint_id = id;
      ByteLedger& ledger = build_ledgers[rank];
      std::size_t body = payloads[rank].size();
      if (as_delta) {
        meta.kind = PayloadKind::kDelta;
        meta.base_id = id - 1;
        auto scratch = delta_scratch_.acquire();
        const Bytes stream = delta_codec_->encode(
            ByteSpan(prev_payload_[rank]), payloads[rank], *scratch,
            &dstats[rank]);
        ledger.hashed += dstats[rank].hashed_bytes;
        ledger.compared += dstats[rank].compared_bytes;
        ledger.copied += stream.size();  // literals into the stream
        body = stream.size();
        images[rank] = CheckpointImage::build(meta, stream);
      } else {
        images[rank] = CheckpointImage::build(meta, payloads[rank]);
      }
      // build(): the body is copied once and CRC'd once for the header.
      ledger.copied += body;
      ledger.crc += body;
      digests[rank] = digest_counted(images[rank], ledger);
      if (!tbs.empty()) {
        tbs[rank].instant("image", "ckpt",
                          1 + static_cast<std::uint32_t>(rank),
                          {obs::u64("rank", rank),
                           obs::u64("bytes", images[rank].size())});
      }
    }, payload_bytes);
    trace_->splice(tbs);
  }

  // Data-path accounting, serial in rank order.
  if (as_delta) {
    ++data_stats_.commits_delta;
  } else {
    ++data_stats_.commits_full;
  }
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    data_stats_.payload_bytes_in += payloads[rank].size();
    data_stats_.image += build_ledgers[rank];
    if (as_delta) {
      data_stats_.delta_input_bytes += dstats[rank].input_bytes;
      data_stats_.delta_encoded_bytes += dstats[rank].encoded_bytes;
    }
  }

  ++health_.commits;
  if (to_partner && config_.node_count > 1) {
    commit_partner(id, images, digests);
  }
  // Pipelined IO (docs/PERF.md): the healthy compressed path submits its
  // per-rank puts to a double-buffered writer thread, so level writes
  // overlap both the next rank's compression (inside commit_io) and the
  // whole local-NVM fan-out (finish_commit_io runs after commit_local).
  // The writer is skipped - puts run inline, bit-identically - for the
  // dedup/degraded serial paths, when the config disables it, and inside
  // pool workers (the chaos suite runs replicates as tasks; no nested
  // thread churn).
  IoPending io_pending;
  std::optional<AsyncStageWriter> io_writer;
  if (to_io) {
    const bool pipelined = !io_dedup_ && !health_.io.degraded() &&
                           config_.io_writer_depth > 0 &&
                           !exec::TaskPool::in_worker();
    if (pipelined) io_writer.emplace(config_.io_writer_depth);
    commit_io(id, images, digests, io_writer ? &*io_writer : nullptr,
              io_pending);
  }
  commit_local(id, images, digests);
  if (io_pending.active) {
    // Commit point: no health settle, no trace splice, and no return to
    // the caller until every submitted IO write has landed.
    if (io_writer) io_writer->flush();
    finish_commit_io(id, io_pending);
  }
  if (io_writer) pipeline_stats_.merge(io_writer->stats());
  if (health_.any_degraded()) {
    ++health_.degraded_commits;
    if (rb) rb->instant("commit_degraded", "ckpt", 0, {obs::u64("id", id)});
  }

  // This commit's payloads become the next delta's reference (a copy: the
  // caller's spans die with the call). Per-rank copies are independent,
  // so the refresh fans out too.
  if (delta_codec_) {
    for_tasks(config_.node_count, [&](std::size_t rank) {
      prev_payload_[rank].assign(payloads[rank].begin(),
                                 payloads[rank].end());
    }, payload_bytes);
    have_prev_ = true;
    links_since_full_ = as_delta ? links_since_full_ + 1 : 0;
    if (rb) {
      rb->instant("chain_state", "ckpt", 0,
                  {obs::u64("id", id),
                   obs::u64("links_since_full", links_since_full_)});
    }
  }
  return id;
}

std::optional<Bytes> MultilevelManager::try_xor_rebuild(
    std::uint32_t rank, std::uint64_t id) const {
  const std::uint32_t first = group_first(rank);
  const std::uint32_t last =
      std::min(first + config_.xor_group_size, config_.node_count);
  const auto parity = checked_get(*partner_space_[parity_host(rank)],
                                  health_.partner, first, id,
                                  {trace_->root(), 0, "ckpt.partner"});
  if (!parity) return std::nullopt;

  // Fold the survivors' local images straight out of NVM into the
  // parity, each acting as if zero-padded to the parity width.
  Bytes rebuilt = std::move(*parity);
  for (std::uint32_t r = first; r < last; ++r) {
    if (r == rank) continue;
    const auto span = local_[r]->get(id);
    if (!span || span->size() > rebuilt.size()) return std::nullopt;
    xor_into(MutableByteSpan(rebuilt), *span);
  }
  // Trim the padding back to the image's true framed size.
  try {
    const std::size_t size = CheckpointImage::framed_size(rebuilt);
    if (size > rebuilt.size()) return std::nullopt;
    rebuilt.resize(size);
  } catch (const ImageError&) {
    return std::nullopt;
  }
  return rebuilt;
}

void MultilevelManager::fail_node(std::uint32_t rank) {
  local_.at(rank)->clear();
  partner_space_.at(rank)->clear();
}

bool MultilevelManager::corrupt_local(std::uint32_t rank) {
  auto& store = *local_.at(rank);
  const auto id = store.newest_id();
  if (!id) return false;
  return store.corrupt_entry(*id, *id * 131 + rank);
}

bool MultilevelManager::corrupt_partner(std::uint32_t rank) {
  if (config_.node_count < 2) return false;
  // Copy scheme: the rank's full copy on its partner node. XOR scheme:
  // the group parity on the parity host (keyed by the group's first
  // rank).
  KvStore* store = nullptr;
  std::uint32_t key = rank;
  if (config_.partner_scheme == PartnerScheme::kCopy) {
    store = partner_space_.at(partner_of(rank)).get();
  } else {
    store = partner_space_.at(parity_host(rank)).get();
    key = group_first(rank);
  }
  const auto id = store->newest_id(key);
  if (!id) return false;
  return store->corrupt_entry(key, *id, *id * 137 + rank);
}

bool MultilevelManager::corrupt_io(std::uint32_t rank) {
  const auto id = io_->newest_id(rank);
  if (!id) return false;
  return io_->corrupt_entry(rank, *id, *id * 139 + rank);
}

std::optional<CheckpointImage> MultilevelManager::fetch_local(
    std::uint32_t rank, std::uint64_t id) const {
  const auto span = local_[rank]->get(id);
  if (!span) return std::nullopt;
  return parse_image(rank, id, *span);
}

std::optional<Bytes> MultilevelManager::fetch_io_raw(
    std::uint32_t rank, std::uint64_t id) const {
  obs::TraceBuffer* rb = trace_->root();
  const auto stored =
      checked_get(*io_, health_.io, rank, id, {rb, 0, "ckpt.io"});
  if (!stored) return std::nullopt;
  if (DedupIndex::is_recipe(*stored)) {
    // Recipe: reassemble from the content-addressed block space. Checked
    // even when dedup is off in this manager's config - the store may
    // hold recipes written before a restart reconfigured it.
    return DedupIndex::assemble(
        *stored, [&](const DedupIndex::BlockRef& ref) -> std::optional<Bytes> {
          auto block = checked_get(*io_, health_.io, kDedupBlockRank,
                                   ref.key, {rb, 0, "ckpt.io"});
          if (!block) return std::nullopt;
          // Raw blocks are arbitrary app bytes, so no container sniffing
          // with a null codec; with one set, peek also tolerates blocks a
          // previous life compressed differently.
          if (!io_codec_) return block;
          return decode_io_stream(std::move(*block));
        });
  }
  // Whole streams are self-describing (container header, or raw NDCI
  // image bytes); decode_io_stream dispatches on the recorded codec.
  return decode_io_stream(std::move(*stored));
}

std::optional<CheckpointImage> MultilevelManager::try_remote_rank(
    std::uint32_t rank, std::uint64_t id, RecoveryLevel& level_out) const {
  obs::TraceBuffer* rb = trace_->root();
  if (config_.node_count > 1) {
    if (config_.partner_scheme == PartnerScheme::kCopy) {
      if (const auto copy = checked_get(*partner_space_[partner_of(rank)],
                                        health_.partner, rank, id,
                                        {rb, 0, "ckpt.partner"})) {
        if (auto image = parse_image(rank, id, *copy)) {
          level_out = RecoveryLevel::kPartner;
          return image;
        }
      }
    } else if (const auto rebuilt = try_xor_rebuild(rank, id)) {
      if (auto image = parse_image(rank, id, *rebuilt)) {
        level_out = RecoveryLevel::kPartner;
        return image;
      }
    }
  }
  if (const auto raw = fetch_io_raw(rank, id)) {
    if (auto image = parse_image(rank, id, *raw)) {
      level_out = RecoveryLevel::kIo;
      return image;
    }
  }
  return std::nullopt;
}

std::optional<Bytes> MultilevelManager::resolve_payload(
    std::uint32_t rank, std::uint64_t id, bool local_only,
    RecoveryLevel& level_out, std::size_t& links_out) const {
  level_out = RecoveryLevel::kLocal;
  links_out = 0;
  // Walk base_id links back to the full anchor, collecting delta streams
  // newest-first. Every link is fetched independently (local first, then
  // partner/io unless `local_only`), so a single damaged link only fails
  // this id - the caller then tries an older checkpoint.
  std::vector<Bytes> links;
  Bytes base;
  RecoveryLevel deepest = RecoveryLevel::kLocal;
  std::uint64_t cur = id;
  for (;;) {
    if (links.size() >= kMaxChainLinks) return std::nullopt;
    RecoveryLevel level = RecoveryLevel::kLocal;
    std::optional<CheckpointImage> image = fetch_local(rank, cur);
    if (!image && !local_only) image = try_remote_rank(rank, cur, level);
    if (!image) return std::nullopt;
    deepest = deeper(deepest, level);
    if (image->meta().kind == PayloadKind::kFull) {
      base.assign(image->payload().begin(), image->payload().end());
      break;
    }
    // A delta must reference a strictly earlier checkpoint; anything else
    // is damage (peek'd headers are CRC-covered, but stay defensive).
    const std::uint64_t base_id = image->meta().base_id;
    if (base_id == 0 || base_id >= cur) return std::nullopt;
    links.emplace_back(image->payload().begin(), image->payload().end());
    cur = base_id;
  }
  // Replay forward, oldest link first. Each stream carries its block size
  // and its reference digest, so a chain spliced against the wrong base
  // throws instead of reconstructing garbage.
  try {
    for (std::size_t i = links.size(); i-- > 0;) {
      const delta::DeltaCodec codec(
          delta::DeltaCodec::stream_block_size(links[i]));
      base = codec.decode(ByteSpan(base), ByteSpan(links[i]));
    }
  } catch (const delta::DeltaError&) {
    return std::nullopt;
  }
  level_out = deepest;
  links_out = links.size();
  return base;
}

std::optional<MultilevelManager::Recovery> MultilevelManager::recover()
    const {
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span recover_span;
  if (rb) recover_span = rb->span("recover", "ckpt", 0);
  for (std::uint64_t id = next_id_; id-- > 1;) {
    Recovery result;
    result.checkpoint_id = id;
    result.payloads.resize(config_.node_count);
    result.levels.resize(config_.node_count, RecoveryLevel::kLocal);

    obs::TraceBuffer::Span try_span;
    if (rb) {
      try_span = rb->span("try_checkpoint", "ckpt", 0, {obs::u64("id", id)});
    }

    // Phase 1: every rank resolves its payload - full image or whole
    // delta chain - from its own NVM in parallel. Pure local reads, no
    // fault-scheduled store operations, so the fan-out cannot perturb a
    // replay; chain stats come back through per-rank slots and fold
    // serially below.
    std::vector<std::optional<Bytes>> payload(config_.node_count);
    std::vector<std::size_t> links(config_.node_count, 0);
    std::vector<RecoveryLevel> levels(config_.node_count,
                                      RecoveryLevel::kLocal);
    std::size_t local_bytes = 0;
    for (std::uint32_t r = 0; r < config_.node_count; ++r) {
      if (const auto span = local_[r]->get(id)) local_bytes += span->size();
    }
    {
      std::vector<obs::TraceBuffer> tbs =
          trace_->task_buffers(config_.node_count);
      for_tasks(config_.node_count, [&](std::size_t rank) {
        RecoveryLevel level = RecoveryLevel::kLocal;
        payload[rank] =
            resolve_payload(static_cast<std::uint32_t>(rank), id,
                            /*local_only=*/true, level, links[rank]);
        if (!tbs.empty()) {
          tbs[rank].instant("local_probe", "ckpt.local",
                            1 + static_cast<std::uint32_t>(rank),
                            {obs::u64("rank", rank),
                             obs::u64("hit", payload[rank] ? 1 : 0),
                             obs::u64("links", links[rank])});
        }
      }, local_bytes);
      trace_->splice(tbs);
    }

    // Phase 2: ranks that missed locally fall back remote. Store reads
    // stay serial in rank order - partner/IO are shared fault-scheduled
    // devices whose op sequence is part of the deterministic replay - but
    // a directly-usable IO stream's decompress + parse (pure CPU work) is
    // handed to a decode stage, so rank r's decode overlaps rank r+1's
    // reads (the committed 8-thread recover collapse was this serialized;
    // docs/PERF.md). Delta heads, recipes and any damage fall back to the
    // fully-serial chain walk after the stage drains.
    bool ok = true;
    enum class Pend : unsigned char { kDone, kStaged, kFallback };
    std::vector<Pend> pend(config_.node_count, Pend::kDone);
    std::vector<Bytes> staged_raw(config_.node_count);
    std::vector<std::optional<Bytes>> staged_out(config_.node_count);
    std::vector<obs::TraceBuffer> dtbs =
        trace_->task_buffers(config_.node_count);
    {
      AsyncStageWriter decode_stage(
          (exec::TaskPool::in_worker() || config_.io_writer_depth == 0)
              ? 0
              : config_.io_writer_depth);
      for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
        if (payload[rank]) continue;
        // Serial remote head fetch: partner copy / XOR rebuild first.
        std::optional<CheckpointImage> head;
        if (config_.node_count > 1) {
          if (config_.partner_scheme == PartnerScheme::kCopy) {
            if (const auto copy =
                    checked_get(*partner_space_[partner_of(rank)],
                                health_.partner, rank, id,
                                {rb, 0, "ckpt.partner"})) {
              head = parse_image(rank, id, *copy);
            }
          } else if (const auto rebuilt = try_xor_rebuild(rank, id)) {
            head = parse_image(rank, id, *rebuilt);
          }
        }
        if (head) {
          if (head->meta().kind == PayloadKind::kFull) {
            payload[rank] = Bytes(head->payload().begin(),
                                  head->payload().end());
            levels[rank] = RecoveryLevel::kPartner;
          } else {
            pend[rank] = Pend::kFallback;  // delta head: chain walk
          }
          continue;
        }
        const auto raw =
            checked_get(*io_, health_.io, rank, id, {rb, 0, "ckpt.io"});
        if (!raw) {
          // Nothing remote. A local delta head could still anchor a
          // mixed-level chain; otherwise this id is unrecoverable and -
          // exactly like the serial path - the sweep stops here.
          if (fetch_local(rank, id)) {
            pend[rank] = Pend::kFallback;
            continue;
          }
          if (rb) {
            rb->instant("rank_unrecoverable", "ckpt", 0,
                        {obs::u64("rank", rank), obs::u64("id", id)});
          }
          ok = false;
          break;
        }
        if (DedupIndex::is_recipe(*raw)) {
          pend[rank] = Pend::kFallback;  // block fetches must stay serial
          continue;
        }
        pend[rank] = Pend::kStaged;
        staged_raw[rank] = std::move(*raw);
        decode_stage.submit([this, rank, id, &staged_raw, &staged_out,
                             &dtbs]() {
          std::optional<Bytes> decoded =
              decode_io_stream(std::move(staged_raw[rank]));
          if (!dtbs.empty()) {
            dtbs[rank].instant(
                "io_decode", "ckpt.io", 1 + rank,
                {obs::u64("rank", rank),
                 obs::u64("bytes", decoded ? decoded->size() : 0)});
          }
          if (!decoded) return;
          if (const auto image = parse_image(rank, id, ByteSpan(*decoded))) {
            if (image->meta().kind == PayloadKind::kFull) {
              staged_out[rank] = Bytes(image->payload().begin(),
                                       image->payload().end());
            }
          }
        });
      }
      decode_stage.flush();
      pipeline_stats_.merge(decode_stage.stats());
    }
    trace_->splice(dtbs);
    if (ok) {
      for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
        if (pend[rank] == Pend::kStaged) {
          if (staged_out[rank]) {
            payload[rank] = std::move(staged_out[rank]);
            levels[rank] = RecoveryLevel::kIo;
          } else {
            pend[rank] = Pend::kFallback;  // delta head or damage
          }
        }
      }
      // Whatever the fast paths could not settle walks the full serial
      // chain resolution, rank order, exactly as before.
      for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
        if (payload[rank]) continue;
        payload[rank] = resolve_payload(rank, id, /*local_only=*/false,
                                        levels[rank], links[rank]);
        if (!payload[rank]) {
          if (rb) {
            rb->instant("rank_unrecoverable", "ckpt", 0,
                        {obs::u64("rank", rank), obs::u64("id", id)});
          }
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
        data_stats_.chain_links += links[rank];
        if (links[rank] > 0) ++data_stats_.chain_replays;
        if (rb && levels[rank] != RecoveryLevel::kLocal) {
          rb->instant("rank_recovered", "ckpt", 0,
                      {obs::u64("rank", rank), obs::u64("id", id),
                       obs::str("level", to_string(levels[rank]))});
        }
        result.payloads[rank] = std::move(*payload[rank]);
        result.levels[rank] = levels[rank];
      }
    }
    if (ok) {
      if (rb) {
        rb->instant("recovered", "ckpt", 0, {obs::u64("id", id)});
      }
      return result;
    }
  }
  if (rb) rb->instant("recovery_exhausted", "ckpt", 0);
  return std::nullopt;
}

const NvmStore& MultilevelManager::local_store(std::uint32_t rank) const {
  return *local_.at(rank);
}

NvmStore& MultilevelManager::local_store(std::uint32_t rank) {
  return *local_.at(rank);
}

}  // namespace ndpcr::ckpt
