#include "ckpt/multilevel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/store_writer.hpp"
#include "common/buffer_pool.hpp"
#include "exec/task_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ndpcr::ckpt {
namespace {

// Bounded retry for store operations: total tries per operation, and the
// exponential backoff charged before each retry. Backoff is virtual time:
// accounted in the HealthReport, never slept, so fault schedules replay
// bit-identically at any speed.
constexpr std::uint32_t kStoreAttempts = 4;
constexpr double kFirstBackoffSeconds = 0.01;
constexpr double kBackoffGrowth = 2.0;

double backoff_for(std::uint32_t attempt) {
  // Virtual delay charged before retry `attempt` (1-based).
  return kFirstBackoffSeconds *
         std::pow(kBackoffGrowth, static_cast<double>(attempt - 1));
}

// Close out one level's share of a commit: a fully verified level heals a
// degraded state (counted as a repair); any abandoned write degrades it.
// A state change becomes a level_degraded / level_healed instant under
// `category` on the root buffer `rb` (null when tracing is off).
void settle_level(LevelHealth& health, bool level_ok, obs::TraceBuffer* rb,
                  const char* category, std::uint64_t id) {
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
  if (rb && was_degraded != health.degraded()) {
    rb->instant(was_degraded ? "level_healed" : "level_degraded", category, 0,
                {obs::u64("id", id)});
  }
}


// Parse + CRC-check raw image bytes; the image iff they are rank/id's
// checkpoint. A ByteSpan is borrowed, Bytes&& owned (CheckpointImage::parse).
// Pure - safe from any task.
template <typename Raw>
std::optional<CheckpointImage> parse_image(std::uint32_t rank,
                                           std::uint64_t id, Raw&& raw) {
  try {
    CheckpointImage image = CheckpointImage::parse(std::forward<Raw>(raw));
    if (image.meta().rank != rank || image.meta().checkpoint_id != id) {
      return std::nullopt;
    }
    return image;
  } catch (const ImageError&) {
    return std::nullopt;
  }
}

// Slot of a level in per-level arrays (Generation::complete).
constexpr std::size_t slot(RecoveryLevel level) {
  return static_cast<std::size_t>(level);
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

// The manager folds each task's private delta in index order after the
// batch barrier, so every counter - the floating-point backoff sum
// included - is reduced in one fixed order and the totals are
// bit-identical at any thread count.
LevelHealth& LevelHealth::operator+=(const LevelHealth& other) {
  if (other.degraded()) state = LevelState::kDegraded;
  puts += other.puts;
  put_retries += other.put_retries;
  put_failures += other.put_failures;
  verify_failures += other.verify_failures;
  quarantined += other.quarantined;
  read_retries += other.read_retries;
  degraded_commits += other.degraded_commits;
  repairs += other.repairs;
  backoff_seconds += other.backoff_seconds;
  return *this;
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

MultilevelManager::MultilevelManager(const MultilevelConfig& config)
    : config_(config),
      // A copy partner is an XOR group of one: every partner operation
      // runs the group path with this width.
      group_(config.partner_scheme == PartnerScheme::kCopy
                 ? 1
                 : config.xor_group_size),
      trace_(config.trace ? config.trace : &obs::Tracer::null()) {
  if (config.node_count == 0) {
    throw std::invalid_argument("node_count must be positive");
  }
  if (group_ == 0 || (config.node_count > 1 && group_ >= config.node_count)) {
    // The parity host is the node after the group; a group spanning the
    // whole machine would host its own parity and tolerate nothing.
    throw std::invalid_argument("xor_group_size must be in [1, node_count)");
  }
  if (config.io_codec != compress::CodecId::kNull) {
    io_codec_.emplace(config.io_codec, config.io_codec_level,
                      config.io_chunk_bytes);
  } else if (config.io_codec_adaptive) {
    // Online selection (docs/PERF.md): one pre-built codec per candidate,
    // so the per-commit probe choice costs a table lookup, never a codec
    // allocation. A static io_codec overrides adaptive entirely.
    adaptive_codecs_.reserve(compress::kCodecCandidates);
    for (std::size_t c = 0; c < compress::kCodecCandidates; ++c) {
      const compress::CodecChoice choice = compress::codec_candidate(c);
      adaptive_codecs_.push_back(std::make_unique<compress::ChunkedCodec>(
          choice.id, choice.level, config.io_chunk_bytes, /*ignored=*/1,
          choice.accelerate));
    }
  }
  if (config.delta.enabled) {
    if (config.delta.block_bytes == 0) {
      throw std::invalid_argument("delta.block_bytes must be positive");
    }
    delta_codec_.emplace(config.delta.block_bytes);
    prev_payload_.resize(config.node_count);
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
      local_.push_back(std::make_shared<NvmStore>(config.nvm_capacity_bytes));
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
  // local NVM per rank, partner spaces (keyed by each group's first rank,
  // in [0, node_count)), and the IO store.
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
  // Retention records for what survived. Their delta chains are unknown
  // (a dead life's links are not re-parsed), so retire_generations keeps
  // every older adopted generation while one of them is still a restore
  // point; a level counts as complete where every rank or group holds an
  // entry.
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    for (const std::uint64_t id : local_[rank]->ids()) {
      generations_[id].adopted = true;
    }
    for (const std::uint64_t id : io_->list(rank)) {
      generations_[id].adopted = true;
    }
    if (config_.node_count > 1 && rank == group_first(rank)) {
      for (const std::uint64_t id :
           partner_space_[parity_host(rank)]->list(rank)) {
        generations_[id].adopted = true;
      }
    }
  }
  for (auto& [id, gen] : generations_) {
    bool local = true;
    bool partner = config_.node_count > 1;
    bool io = true;
    for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
      local = local && local_[rank]->contains(id);
      io = io && io_->contains(rank, id);
      if (partner && rank == group_first(rank)) {
        partner = partner_space_[parity_host(rank)]->contains(rank, id);
      }
    }
    gen.complete = {local, partner, io};  // RecoveryLevel order
  }
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
  return rank - rank % group_;
}

std::uint32_t MultilevelManager::parity_host(std::uint32_t rank) const {
  const std::uint32_t last =
      std::min(group_first(rank) + group_ - 1, config_.node_count - 1);
  return (last + 1) % config_.node_count;
}

std::uint64_t MultilevelManager::chain_anchor(std::uint64_t id) const {
  std::uint64_t cur = id;
  for (;;) {
    const auto it = generations_.find(cur);
    if (it == generations_.end()) return cur;
    if (it->second.adopted) return generations_.begin()->first;
    if (it->second.base_id == 0) return cur;
    cur = it->second.base_id;
  }
}

std::size_t MultilevelManager::erase_generation(RecoveryLevel level,
                                                std::uint64_t id) {
  std::size_t erased = 0;
  switch (level) {
    case RecoveryLevel::kLocal:
      for (const auto& nvm : local_) {
        // A pinned entry belongs to whoever locked it.
        if (nvm->contains(id) && !nvm->is_locked(id)) {
          nvm->erase(id);
          ++erased;
        }
      }
      break;
    case RecoveryLevel::kPartner:
      if (config_.node_count < 2) break;
      for (std::uint32_t first = 0; first < config_.node_count;
           first += group_) {
        KvStore& store = *partner_space_[parity_host(first)];
        if (store.contains(first, id)) {
          store.erase(first, id);
          ++erased;
        }
      }
      break;
    case RecoveryLevel::kIo:
      for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
        if (io_->contains(rank, id)) {
          io_->erase(rank, id);
          ++erased;
        }
        if (!io_dedup_) continue;
        // The recipe goes first: a crash between the two erases leaves
        // unreferenced blocks, never a recipe missing its blocks.
        for (const std::uint64_t key : io_dedup_->release(rank, id)) {
          if (io_->contains(kDedupBlockRank, key)) {
            io_->erase(kDedupBlockRank, key);
            ++erased;
          }
        }
      }
      break;
  }
  return erased;
}

void MultilevelManager::retire_generations() {
  // The retention rule (DESIGN.md section 5): generation g stays on level L
  // only while it is L's newest complete generation, L's fallback (the
  // newest complete one older than that generation's chain anchor), the
  // newest complete generation of another level (where a multi-node
  // loss rolls back to), or a delta link one of those needs.
  constexpr std::size_t kLevels = 3;
  constexpr std::size_t kIoSlot = slot(RecoveryLevel::kIo);
  const std::array<std::uint32_t, kLevels> writes_every = {
      1, config_.partner_every, config_.io_every};
  // An IO level the manager does not write but finds entries on is the
  // one NDP agents drain: its completeness comes from the store, as on a
  // restart, and every drained id gets a record - one whose record was
  // dropped while a drain lock pinned its NVM entry included.
  bool drained_io = false;
  if (config_.io_every == 0) {
    std::map<std::uint64_t, std::uint32_t> holders;  // id -> ranks
    for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
      for (const std::uint64_t id : io_->list(rank)) ++holders[id];
    }
    for (const auto& [id, ranks] : holders) {
      generations_[id].complete[kIoSlot] = ranks == config_.node_count;
    }
    drained_io = !holders.empty();
  }
  std::array<std::uint64_t, kLevels> newest{};  // 0 = none
  for (auto it = generations_.rbegin(); it != generations_.rend(); ++it) {
    for (std::size_t l = 0; l < kLevels; ++l) {
      if (newest[l] == 0 && it->second.complete[l]) newest[l] = it->first;
    }
  }
  // Until some level holds a complete generation, nothing is provably
  // superseded.
  if (newest == std::array<std::uint64_t, kLevels>{}) return;
  // Kept ids per level, as [anchor, id] chain ranges.
  std::array<std::vector<std::pair<std::uint64_t, std::uint64_t>>, kLevels>
      keep;
  for (std::size_t l = 0; l < kLevels; ++l) {
    const auto keep_chain = [&](std::uint64_t id) {
      if (id != 0) keep[l].emplace_back(chain_anchor(id), id);
    };
    for (std::size_t m = 0; m < kLevels; ++m) keep_chain(newest[m]);
    if (newest[l] == 0) continue;
    const std::uint64_t anchor = chain_anchor(newest[l]);
    for (auto it = generations_.lower_bound(anchor);
         it != generations_.begin();) {
      --it;
      if (it->second.complete[l]) {
        keep_chain(it->first);
        break;
      }
    }
  }
  const auto kept = [&](std::size_t l, std::uint64_t id) {
    // A drain newer than the newest complete one is still in flight on
    // other ranks.
    if (l == kIoSlot && drained_io && id > newest[l]) return true;
    for (const auto& [lo, hi] : keep[l]) {
      if (lo <= id && id <= hi) return true;
    }
    return false;
  };
  obs::TraceBuffer* rb = trace_->root();
  for (std::size_t l = 0; l < kLevels; ++l) {
    // A level nobody writes holds nothing to retire.
    if (writes_every[l] == 0 && !(l == kIoSlot && drained_io)) continue;
    const auto level = static_cast<RecoveryLevel>(l);
    for (auto& [id, gen] : generations_) {
      if (kept(l, id)) continue;
      gen.complete[l] = false;
      const std::size_t erased = erase_generation(level, id);
      if (rb && erased > 0) {
        rb->instant("retire", "ckpt", 0,
                    {obs::u64("id", id), obs::str("level", to_string(level)),
                     obs::u64("entries", erased)});
      }
    }
  }
  std::erase_if(generations_, [&](const auto& entry) {
    for (std::size_t l = 0; l < kLevels; ++l) {
      if (kept(l, entry.first)) return false;
    }
    return true;
  });
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

// Put source for bytes the caller still reads after the put (a dedup
// recipe the index admits): every attempt hands the store its own copy.
auto copy_of(const Bytes& source, ByteLedger& ledger) {
  return [&source, &ledger](std::uint32_t /*attempt*/) {
    ledger.copied += source.size();
    return source;
  };
}

// XOR parity of images [first, last), as wide as the longest member: the
// first member is copied, the rest fold in word-wide, each acting as if
// zero-padded past its end - bit-identical to XORing padded copies. The
// copy is drawn from the buffer pool when the width is a pooled image
// capacity (full images); a delta group's width follows the content.
Bytes group_parity(const std::vector<Bytes>& images, std::uint32_t first,
                   std::uint32_t last, ByteLedger& ledger) {
  std::size_t width = 0;
  for (std::uint32_t r = first; r < last; ++r) {
    width = std::max(width, images[r].size());
  }
  Bytes parity = BufferPool::global().copy(images[first], width);
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

exec::TaskPool& MultilevelManager::pool() const {
  return config_.pool ? *config_.pool : exec::global_pool();
}

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
  pool().parallel_for(n, body, grain_for(n, work_bytes));
}

bool MultilevelManager::checked_put(KvStore& store, LevelHealth& health,
                                    ByteLedger& ledger, std::uint32_t rank,
                                    std::uint64_t id, const PutBytes& bytes,
                                    const EntryDigest& expected, bool probe,
                                    TraceCtx tc) {
  const std::uint32_t attempts = probe ? 1 : kStoreAttempts;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    ++health.puts;
    if (attempt > 0) {
      ++health.put_retries;
      health.backoff_seconds += backoff_for(attempt);
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
  for (std::uint32_t attempt = 0; attempt < kStoreAttempts; ++attempt) {
    StoreResult<Bytes> got = store.get(rank, id);
    if (got.ok()) return std::move(*got);
    if (!got.error().transient()) return std::nullopt;
    if (attempt + 1 < kStoreAttempts) {
      ++health.read_retries;
      health.backoff_seconds += backoff_for(attempt + 1);
      if (tc.buf) {
        tc.buf->instant("read_retry", tc.level, tc.track,
                        {obs::u64("rank", rank), obs::u64("id", id),
                         obs::u64("attempt", attempt + 1)});
      }
    }
  }
  return std::nullopt;
}

bool MultilevelManager::commit_local(std::uint64_t id, bool as_delta,
                                     const std::vector<ByteSpan>& payloads,
                                     std::vector<Bytes>& images,
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
  // Sizes come from the digests: the images move into the NVM below.
  std::size_t image_bytes = 0;
  for (const EntryDigest& d : digests) image_bytes += d.size;
  for_tasks(config_.node_count, [&](std::size_t rank) {
    const auto r = static_cast<std::uint32_t>(rank);
    TraceCtx tc;
    if (!tbs.empty()) tc = {&tbs[rank], 1 + r, "ckpt.local"};
    obs::TraceBuffer::Span write;
    if (tc.buf) {
      write = tc.buf->span("nvm_write", "ckpt.local", tc.track,
                           {obs::u64("rank", rank),
                            obs::u64("bytes", digests[rank].size)});
    }
    LocalNvmLevel level(*local_[rank], config_.local_write_hook,
                        local_write_ops_[rank]);
    // The local level is the image's last reader, so attempt 0 hands the
    // built image over; a retry (torn or failed write) rebuilds the same
    // bytes from the caller's payload - prev_payload_ is still this
    // delta's reference until commit() refreshes it.
    const auto bytes = [&](std::uint32_t attempt) -> Bytes {
      if (attempt == 0) return std::move(images[rank]);
      std::uint32_t framed_crc = 0;
      return build_image(r, id, as_delta, payloads[rank], ledgers[rank],
                         framed_crc, nullptr);
    };
    // A local write that never verifies leaves the rank without a local
    // copy of this id; partner/io still cover it.
    ok[rank] = checked_put(level, deltas[rank], ledgers[rank], r, id, bytes,
                           digests[rank], false, tc)
                   ? 1
                   : 0;
  }, image_bytes);
  trace_->splice(tbs);
  bool complete = true;
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    health_.local += deltas[rank];
    data_stats_.local += ledgers[rank];
    if (ok[rank]) {
      data_stats_.local_bytes_written += digests[rank].size;
    } else {
      health_.local.state = LevelState::kDegraded;
      complete = false;
    }
  }
  if (rb && !was_degraded && health_.local.degraded()) {
    rb->instant("level_degraded", "ckpt.local", 0, {obs::u64("id", id)});
  }
  return complete;
}

bool MultilevelManager::commit_partner(
    std::uint64_t id, const std::vector<Bytes>& images,
    const std::vector<EntryDigest>& digests) {
  LevelHealth& health = health_.partner;
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span phase;
  if (rb) {
    phase = rb->span("partner", "ckpt.partner", 0,
                     {obs::u64("id", id), obs::u64("group_size", group_)});
  }
  // One body per group: fold the members' images into a parity as wide as
  // the longest, digest it, write + verify it on the parity host. A copy
  // partner is a group of one, whose parity is the image itself - so its
  // digest is the image's, already computed at build.
  const bool probe = health.degraded();
  const auto put_group = [&](std::size_t g, LevelHealth& delta,
                             ByteLedger& ledger, std::size_t& bytes,
                             TraceCtx tc) {
    const auto first = static_cast<std::uint32_t>(g * group_);
    const std::uint32_t last = std::min(first + group_, config_.node_count);
    obs::TraceBuffer::Span encode;
    if (tc.buf) {
      std::size_t width = 0;
      for (std::uint32_t r = first; r < last; ++r) {
        width = std::max(width, images[r].size());
      }
      encode = tc.buf->span("partner_encode", "ckpt.partner", tc.track,
                            {obs::u64("group", g), obs::u64("width", width)});
    }
    Bytes parity = group_parity(images, first, last, ledger);
    bytes = parity.size();
    const EntryDigest expected = last - first == 1
                                     ? digests[first]
                                     : digest_counted(parity, ledger);
    encode.close();
    obs::TraceBuffer::Span put;
    if (tc.buf) {
      put = tc.buf->span("partner_put", "ckpt.partner", tc.track,
                         {obs::u64("group", g), obs::u64("bytes", bytes)});
    }
    return checked_put(*partner_space_[parity_host(first)], delta, ledger,
                       first, id,
                       parity_source(parity, images, first, last, ledger),
                       expected, probe, tc);
  };
  const std::size_t groups = (config_.node_count + group_ - 1) / group_;
  bool level_ok = true;
  if (probe) {
    if (rb) rb->instant("probe", "ckpt.partner", 0, {obs::u64("id", id)});
    // Probe mode: single-attempt writes that stop at the first failure.
    // Stays serial - the early break has no parallel equivalent, and a
    // down level is not worth fanning out for.
    for (std::size_t g = 0; g < groups; ++g) {
      std::size_t bytes = 0;
      if (!put_group(g, health, data_stats_.partner, bytes,
                     {rb, 0, "ckpt.partner"})) {
        level_ok = false;
        break;  // still down: one failed probe is proof enough
      }
      data_stats_.partner_bytes_written += bytes;
    }
  } else {
    // Parity hosts are distinct across groups, so every task writes a
    // distinct store: groups encode and write concurrently, health deltas
    // merged in group order after the barrier.
    std::vector<LevelHealth> deltas(groups);
    std::vector<ByteLedger> ledgers(groups);
    std::vector<std::size_t> bytes(groups, 0);
    std::vector<char> ok(groups, 1);
    std::vector<obs::TraceBuffer> tbs = trace_->task_buffers(groups);
    std::size_t image_bytes = 0;
    for (const Bytes& image : images) image_bytes += image.size();
    for_tasks(groups, [&](std::size_t g) {
      TraceCtx tc;
      if (!tbs.empty()) {
        tc = {&tbs[g], 1 + static_cast<std::uint32_t>(g * group_),
              "ckpt.partner"};
      }
      ok[g] = put_group(g, deltas[g], ledgers[g], bytes[g], tc) ? 1 : 0;
    }, image_bytes);
    trace_->splice(tbs);
    for (std::size_t g = 0; g < groups; ++g) {
      health += deltas[g];
      data_stats_.partner += ledgers[g];
      if (ok[g]) {
        data_stats_.partner_bytes_written += bytes[g];
      } else {
        level_ok = false;
      }
    }
  }
  settle_level(health, level_ok, rb, "ckpt.partner", id);
  return level_ok;
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
  if (!compress::ChunkedCodec::peek(ByteSpan(stored))) {
    return stored;  // raw (null-codec) image bytes
  }
  // Containers describe themselves, whoever wrote them (adaptive choice,
  // another life's config, an NDP drain). Chunks decode on the pool.
  try {
    return compress::ChunkedCodec::decode(ByteSpan(stored), &pool());
  } catch (const compress::CodecError&) {
    return std::nullopt;
  }
}

bool MultilevelManager::commit_io(std::uint64_t id,
                                  const std::vector<Bytes>& images,
                                  const std::vector<EntryDigest>& digests) {
  LevelHealth& health = health_.io;
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span phase;
  if (rb) phase = rb->span("io", "ckpt.io", 0, {obs::u64("id", id)});
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    data_stats_.io_logical_bytes += images[rank].size();
  }
  // A degraded level is probed: single-attempt puts that stop at the
  // first rank that fails - one failed probe is proof enough.
  const bool probe = health.degraded();
  if (probe && rb) rb->instant("probe", "ckpt.io", 0, {obs::u64("id", id)});
  if (io_dedup_) {
    // Dedup path: each image becomes a recipe plus the content-addressed
    // blocks no prior image already stored. Serial in rank order (one
    // shared fault-scheduled device), and the index is only updated after
    // every block and the recipe are durably in place - a failed put
    // leaves the index describing exactly what the store holds.
    bool level_ok = true;
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
    settle_level(health, level_ok, rb, "ckpt.io", id);
    return level_ok;
  }
  // Stream build: one task per rank runs the adaptive probe, writes the
  // chunked container in place and digests it, into per-rank slots. The
  // puts below then run in rank order on the committing thread, so the
  // shared fault-scheduled IO device sees one fixed op sequence. A probe
  // stops at its first failed put, so it builds each rank's container
  // in the put loop instead: a still-down level costs one container, not
  // node_count of them.
  const std::uint32_t n = config_.node_count;
  std::vector<const compress::ChunkedCodec*> codecs(
      n, io_codec_ ? &*io_codec_ : nullptr);
  std::vector<Bytes> packed(n);
  std::vector<EntryDigest> expected(digests);
  std::vector<ByteLedger> ledgers(n);
  const auto build = [&](std::size_t rank, obs::TraceBuffer* tb) {
    const auto track = 1 + static_cast<std::uint32_t>(rank);
    if (!codecs[rank] && config_.io_codec_adaptive) {
      // Online selection: probe this rank's bytes and pick the candidate
      // codec. The stream records the choice in its container header, so
      // recovery is self-describing (decode_io_stream).
      compress::ProbeStats ps;
      const compress::CodecChoice choice =
          compress::choose_codec(ByteSpan(images[rank]), &ps);
      codecs[rank] = codec_for(choice);
      if (tb) {
        tb->instant("codec_choice", "ckpt.io", track,
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
    const compress::ChunkedCodec* codec = codecs[rank];
    if (!codec) return;  // stored raw: the image's own digest applies
    obs::TraceBuffer::Span cspan;
    if (tb) {
      cspan = tb->span("io_compress", "ckpt.io", track,
                       {obs::u64("id", id), obs::u64("rank", rank),
                        obs::u64("chunks",
                                 codec->chunk_count(images[rank].size()))});
    }
    packed[rank] = codec->compress(images[rank]);
    expected[rank] = digest_counted(packed[rank], ledgers[rank]);
  };
  if (!probe) {
    std::vector<obs::TraceBuffer> tbs = trace_->task_buffers(n);
    std::size_t image_bytes = 0;
    for (const Bytes& image : images) image_bytes += image.size();
    for_tasks(n, [&](std::size_t rank) {
      build(rank, tbs.empty() ? nullptr : &tbs[rank]);
    }, image_bytes);
    trace_->splice(tbs);
  }
  bool level_ok = true;
  ByteLedger& ledger = data_stats_.io;
  for (std::uint32_t rank = 0; rank < n; ++rank) {
    if (probe) build(rank, rb);
    ledger += ledgers[rank];
    const compress::ChunkedCodec* codec = codecs[rank];
    const std::size_t size = expected[rank].size;
    const TraceCtx tc{rb, 1 + rank, "ckpt.io"};
    if (rb) {
      rb->instant("io_put", "ckpt.io", tc.track,
                  {obs::u64("rank", rank), obs::u64("bytes", size)});
    }
    // Attempt 0 hands the compressed stream over as is; a retry
    // recompresses from the caller's image. A raw image is still read by
    // the local level, so every attempt gets its own copy, in the image's
    // capacity class (BufferPool::copy).
    const auto bytes = [&](std::uint32_t attempt) -> Bytes {
      if (!codec) {
        ledger.copied += images[rank].size();
        return BufferPool::global().copy(images[rank],
                                         images[rank].capacity());
      }
      return attempt == 0 ? std::move(packed[rank])
                          : codec->compress(images[rank]);
    };
    // A per-rank delta keeps the backoff sum's floating-point reduction
    // order: rank by rank, as every other level merges its deltas.
    LevelHealth delta;
    const bool ok = checked_put(*io_, delta, ledger, rank, id, bytes,
                                expected[rank], probe, tc);
    health += delta;
    if (ok) {
      data_stats_.io_bytes_written += size;
    } else {
      level_ok = false;
      if (probe) break;
    }
  }
  obs::TraceBuffer::Span settle;
  if (rb) settle = rb->span("io_settle", "ckpt.io", 0, {obs::u64("id", id)});
  settle_level(health, level_ok, rb, "ckpt.io", id);
  return level_ok;
}

Bytes MultilevelManager::build_image(std::uint32_t rank, std::uint64_t id,
                                     bool as_delta, ByteSpan payload,
                                     ByteLedger& ledger,
                                     std::uint32_t& framed_crc,
                                     delta::DeltaStats* dstats) const {
  CheckpointMeta meta;
  meta.app_id = config_.app_id;
  meta.rank = rank;
  meta.checkpoint_id = id;
  Bytes image;
  std::size_t body = payload.size();
  if (as_delta) {
    meta.kind = PayloadKind::kDelta;
    meta.base_id = id - 1;
    delta::DeltaStats stats;
    const Bytes stream =
        delta_codec_->encode(ByteSpan(prev_payload_[rank]), payload, &stats);
    ledger.hashed += stats.hashed_bytes;
    ledger.compared += stats.compared_bytes;
    ledger.copied += stream.size();  // literals into the stream
    body = stream.size();
    image = CheckpointImage::build(meta, stream, &framed_crc);
    if (dstats) *dstats = stats;
  } else {
    image = CheckpointImage::build(meta, payload, &framed_crc);
  }
  // build(): the body is copied once and CRC'd once; the NDCI header CRC
  // and the write digest both derive from that one pass.
  ledger.copied += body;
  ledger.crc += body;
  return image;
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
      std::uint32_t framed_crc = 0;
      images[rank] = build_image(static_cast<std::uint32_t>(rank), id,
                                 as_delta, payloads[rank],
                                 build_ledgers[rank], framed_crc,
                                 as_delta ? &dstats[rank] : nullptr);
      digests[rank] = EntryDigest{framed_crc, images[rank].size()};
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
  Generation gen;
  if (as_delta) gen.base_id = id - 1;
  if (to_partner && config_.node_count > 1) {
    gen.complete[slot(RecoveryLevel::kPartner)] =
        commit_partner(id, images, digests);
  }
  // The IO write blocks the committing thread (the paper's host
  // configuration, section 3.5); it settles before the local fan-out.
  if (to_io) {
    gen.complete[slot(RecoveryLevel::kIo)] = commit_io(id, images, digests);
  }
  gen.complete[slot(RecoveryLevel::kLocal)] =
      commit_local(id, as_delta, payloads, images, digests);
  if (health_.any_degraded()) {
    ++health_.degraded_commits;
    if (rb) rb->instant("commit_degraded", "ckpt", 0, {obs::u64("id", id)});
  }
  generations_[id] = gen;
  retire_generations();

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

std::optional<CheckpointImage> MultilevelManager::fetch_partner(
    std::uint32_t rank, std::uint64_t id) const {
  if (config_.node_count < 2) return std::nullopt;
  const std::uint32_t first = group_first(rank);
  const std::uint32_t last = std::min(first + group_, config_.node_count);
  const auto parity = checked_get(*partner_space_[parity_host(rank)],
                                  health_.partner, first, id,
                                  {trace_->root(), 0, "ckpt.partner"});
  if (!parity) return std::nullopt;

  // Fold the survivors' local images straight out of NVM into the
  // parity, each acting as if zero-padded to the parity width (none for a
  // group of one: its parity is the image).
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
  return parse_image(rank, id, std::move(rebuilt));
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
  // The group's parity on its parity host, keyed by the group's first
  // rank (for a copy partner: the rank's own image on the next node).
  KvStore* store = partner_space_.at(parity_host(rank)).get();
  const std::uint32_t key = group_first(rank);
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
  return parse_image(rank, id, ByteSpan(*span));
}

std::optional<Bytes> MultilevelManager::decode_io_entry(Bytes stored) const {
  obs::TraceBuffer* rb = trace_->root();
  if (DedupIndex::is_recipe(stored)) {
    // Recipe: reassemble from the content-addressed block space. Checked
    // even when dedup is off in this manager's config - the store may
    // hold recipes written before a restart reconfigured it.
    return DedupIndex::assemble(
        stored, [&](const DedupIndex::BlockRef& ref) -> std::optional<Bytes> {
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
  return decode_io_stream(std::move(stored));
}

std::optional<CheckpointImage> MultilevelManager::try_remote_rank(
    std::uint32_t rank, std::uint64_t id, RecoveryLevel& level_out) const {
  if (auto image = fetch_partner(rank, id)) {
    level_out = RecoveryLevel::kPartner;
    return image;
  }
  // An IO entry whose bytes fail to decode or parse is read once more: a
  // bit flip in flight leaves the stored entry intact, so the second read
  // usually comes back clean. Damage at rest fails both reads and the
  // caller moves on to an older checkpoint. An absent entry is read once.
  for (int read = 0; read < 2; ++read) {
    auto stored = checked_get(*io_, health_.io, rank, id,
                              {trace_->root(), 0, "ckpt.io"});
    if (!stored) break;
    if (auto raw = decode_io_entry(std::move(*stored))) {
      if (auto image = parse_image(rank, id, std::move(*raw))) {
        level_out = RecoveryLevel::kIo;
        return image;
      }
    }
  }
  return std::nullopt;
}

std::optional<Bytes> MultilevelManager::resolve_payload(
    std::uint32_t rank, std::uint64_t id, bool local_only,
    RecoveryLevel& level_out, std::size_t& links_out,
    std::optional<CheckpointImage> head) const {
  level_out = RecoveryLevel::kLocal;
  links_out = 0;
  // Walk base_id links back to the full anchor, keeping the delta images
  // newest-first. Every link is fetched independently (local first, then
  // partner/io unless `local_only`), so a single damaged link only fails
  // this id - the caller then tries an older checkpoint. Local images
  // borrow their NVM entries and remote ones own their bytes, so the
  // anchor's payload is the one copy made: into `base`.
  std::vector<CheckpointImage> links;
  Bytes base;
  RecoveryLevel deepest = RecoveryLevel::kLocal;
  std::uint64_t cur = id;
  for (;;) {
    if (links.size() >= kMaxChainLinks) return std::nullopt;
    RecoveryLevel level = RecoveryLevel::kLocal;
    std::optional<CheckpointImage> image =
        head ? std::exchange(head, std::nullopt) : fetch_local(rank, cur);
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
    links.push_back(std::move(*image));
    cur = base_id;
  }
  // Replay forward, oldest link first. Each stream carries its block size
  // and its reference digest, so a chain spliced against the wrong base
  // throws instead of reconstructing garbage.
  try {
    for (std::size_t i = links.size(); i-- > 0;) {
      const ByteSpan stream = links[i].payload();
      const delta::DeltaCodec codec(
          delta::DeltaCodec::stream_block_size(stream));
      base = codec.decode(ByteSpan(base), stream);
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
    // serially below. When some rank has no local copy, the try reads the
    // remote levels and may still fail: a full image is then only checked
    // here, in place, and its payload copied once every rank has resolved,
    // so a failed try costs no copies. Otherwise the copies ride in this
    // fan-out.
    std::vector<std::optional<Bytes>> payload(config_.node_count);
    std::vector<std::optional<CheckpointImage>> local_full(config_.node_count);
    std::vector<std::size_t> links(config_.node_count, 0);
    std::vector<RecoveryLevel> levels(config_.node_count,
                                      RecoveryLevel::kLocal);
    std::size_t local_bytes = 0;
    bool all_local = true;
    for (std::uint32_t r = 0; r < config_.node_count; ++r) {
      if (const auto span = local_[r]->get(id)) {
        local_bytes += span->size();
      } else {
        all_local = false;
      }
    }
    {
      std::vector<obs::TraceBuffer> tbs =
          trace_->task_buffers(config_.node_count);
      for_tasks(config_.node_count, [&](std::size_t rank) {
        const auto r = static_cast<std::uint32_t>(rank);
        std::optional<CheckpointImage> head = fetch_local(r, id);
        if (head && !all_local && head->meta().kind == PayloadKind::kFull) {
          local_full[rank] = std::move(head);
        } else if (head) {
          RecoveryLevel level = RecoveryLevel::kLocal;
          payload[rank] = resolve_payload(r, id, /*local_only=*/true, level,
                                          links[rank], std::move(head));
        }
        if (!tbs.empty()) {
          tbs[rank].instant("local_probe", "ckpt.local", 1 + r,
                            {obs::u64("rank", rank),
                             obs::u64("hit",
                                      payload[rank] || local_full[rank] ? 1
                                                                        : 0),
                             obs::u64("links", links[rank])});
        }
      }, local_bytes);
      trace_->splice(tbs);
    }

    // Phase 2: ranks that missed locally resolve again, each link falling
    // back local -> partner -> io. Serial in rank order: partner and IO are
    // shared fault-scheduled devices whose op sequence is part of the
    // deterministic replay. An IO stream's chunks still decode on the pool
    // (decode_io_stream).
    bool ok = true;
    for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
      if (payload[rank] || local_full[rank]) continue;
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
    if (!ok) continue;
    if (!all_local) {
      for_tasks(config_.node_count, [&](std::size_t rank) {
        if (!local_full[rank]) return;
        const ByteSpan bytes = local_full[rank]->payload();
        payload[rank].emplace(bytes.begin(), bytes.end());
      }, local_bytes);
    }
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
    if (rb) rb->instant("recovered", "ckpt", 0, {obs::u64("id", id)});
    return result;
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
