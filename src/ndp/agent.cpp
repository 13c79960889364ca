#include "ndp/agent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/store_writer.hpp"
#include "common/buffer_pool.hpp"
#include "obs/trace.hpp"

namespace ndpcr::ndp {
namespace {

// IO-store write failures: total put attempts per drain before the agent
// gives up and hands the bytes back to the host path, and the virtual
// backoff before the first retry (doubles per retry).
constexpr std::uint32_t kDrainPutAttempts = 4;
constexpr double kDrainRetryBackoff = 0.05;

// Written so that NaN fails it: `!(x > 0)` rejects NaN where `x <= 0`
// would let it through.
bool positive(double x) { return std::isfinite(x) && x > 0; }

}  // namespace

NdpAgent::NdpAgent(const AgentConfig& config, ckpt::KvStore& io_store)
    : NdpAgent(config, io_store,
               std::make_shared<ckpt::NvmStore>(config.uncompressed_capacity)) {
}

NdpAgent::NdpAgent(const AgentConfig& config, ckpt::KvStore& io_store,
                   std::shared_ptr<ckpt::NvmStore> nvm)
    : cfg_(config),
      io_(io_store),
      uncompressed_(std::move(nvm)),
      compressed_(config.compressed_capacity),
      trace_(config.trace ? config.trace : &obs::Tracer::null()) {
  if (!uncompressed_) throw std::invalid_argument("agent NVM is null");
  if (!positive(cfg_.compress_bw) || !positive(cfg_.io_bw)) {
    throw std::invalid_argument(
        "agent bandwidths must be positive and finite");
  }
  if (cfg_.chunk_bytes == 0) {
    throw std::invalid_argument("agent chunk_bytes must be positive");
  }
  if (cfg_.codec != compress::CodecId::kNull) {
    codec_.emplace(cfg_.codec, cfg_.codec_level, cfg_.chunk_bytes);
  }
  if (trace_->enabled()) {
    const std::string base = "ndp r" + std::to_string(cfg_.rank);
    trace_->set_track_name(cfg_.trace_track, base);
    trace_->set_track_name(cfg_.trace_track + 1, base + " compress");
    trace_->set_track_name(cfg_.trace_track + 2, base + " wire");
  }
}

bool NdpAgent::host_commit(std::uint64_t checkpoint_id, Bytes image) {
  if (!uncompressed_->put(checkpoint_id, std::move(image))) return false;
  local_committed(checkpoint_id);
  return true;
}

void NdpAgent::local_committed(std::uint64_t checkpoint_id) {
  ++stats_.commits_seen;
  if (obs::TraceBuffer* rb = trace_->root()) {
    const auto image = uncompressed_->get(checkpoint_id);
    rb->instant_at(vclock_, "host_commit", "ndp", cfg_.trace_track,
                   {obs::u64("id", checkpoint_id),
                    obs::u64("bytes", image ? image->size() : 0)});
  }
  if (pending_) {
    // The previously queued checkpoint is superseded before its drain
    // ever started: the NDP always ships the newest.
    ++stats_.drains_skipped;
    if (obs::TraceBuffer* rb = trace_->root()) {
      rb->instant_at(vclock_, "drain_skipped", "ndp", cfg_.trace_track,
                     {obs::u64("id", *pending_)});
    }
  }
  pending_ = checkpoint_id;
  start_drain_if_ready();
}

void NdpAgent::start_drain_if_ready() {
  if (drain_ || !pending_) return;
  const auto id = *pending_;
  pending_.reset();
  const auto image = uncompressed_->get(id);
  if (!image) return;  // evicted before we got to it

  Drain drain;
  drain.checkpoint_id = id;
  drain.image_size = image->size();
  drain.start_v = vclock_;
  // Lock the source so the circular buffer cannot reclaim it while the
  // chunk pipeline reads it (section 4.2.2).
  uncompressed_->lock(id);
  drain.locked = true;
  if (obs::TraceBuffer* rb = trace_->root()) {
    rb->instant_at(vclock_, "drain_start", "ndp", cfg_.trace_track,
                   {obs::u64("id", id),
                    obs::u64("bytes", drain.image_size)});
  }

  if (codec_) {
    drain.chunk_count = codec_->chunk_count(drain.image_size);
    codec_->begin(drain.compressed, drain.image_size);
    if (drain.chunk_count == 0) {
      // Empty image: nothing to pipeline, just the container header on
      // the wire.
      drain.assembled = true;
      drain.remaining_seconds =
          static_cast<double>(drain.compressed.size()) / cfg_.io_bw;
    }
  } else {
    // Uncompressed mode: a single raw "chunk", write stage only.
    drain.chunk_count = 1;
    drain.compressed.assign(image->begin(), image->end());
    drain.compressed_done = 1;
  }
  drain_ = std::move(drain);
}

std::size_t NdpAgent::chunk_stream_bytes(std::size_t j) const {
  const Bytes& container = drain_->compressed;
  return codec_ ? compress::ChunkedCodec::chunk_stream_size(container, j)
                : container.size();
}

double NdpAgent::step_pipeline(double budget) {
  auto& d = *drain_;
  double used = 0.0;
  while (budget > 0.0 && !d.assembled) {
    // Arm the compress stage: the next chunk's bytes are produced now,
    // when its stage begins - the drain's lock keeps the source span
    // valid - and its virtual duration is the chunk's input size over the
    // compression bandwidth.
    if (!d.compress_active && codec_ && d.compressed_done < d.chunk_count) {
      const auto image = uncompressed_->get(d.checkpoint_id);
      codec_->append_chunk(d.compressed, *image, d.compressed_done);
      const auto extent =
          codec_->chunk_extent(d.image_size, d.compressed_done);
      stats_.bytes_compressed += extent.second;
      d.compress_remaining =
          static_cast<double>(extent.second) / cfg_.compress_bw;
      d.compress_active = true;
      d.compress_start_v = vclock_;
    }
    // Arm the write stage: overlap mode ships chunk j as soon as it left
    // the compressor; serial mode waits for the whole image. The
    // container's header + size table ride on the first write, so the
    // bytes charged to the wire equal the container's size.
    const std::size_t writable =
        cfg_.overlap || d.compressed_done == d.chunk_count
            ? d.compressed_done
            : 0;
    if (!d.write_active && d.write_front < writable) {
      double bytes = static_cast<double>(chunk_stream_bytes(d.write_front));
      if (d.write_front == 0 && codec_) {
        bytes += static_cast<double>(
            compress::ChunkedCodec::header_bytes(d.chunk_count));
      }
      d.write_remaining = bytes / cfg_.io_bw;
      d.write_active = true;
      d.write_start_v = vclock_;
    }
    if (!d.compress_active && !d.write_active) {
      // Every chunk compressed and written: the pipeline is dry and the
      // container complete.
      d.assembled = true;
      break;
    }
    // Advance both active stages together to the nearest completion (or
    // the budget's edge).
    double step = budget;
    if (d.compress_active) step = std::min(step, d.compress_remaining);
    if (d.write_active) step = std::min(step, d.write_remaining);
    vclock_ += step;
    obs::TraceBuffer* rb = trace_->root();
    if (d.compress_active) {
      d.compress_remaining -= step;
      if (d.compress_remaining <= 0.0) {
        d.compress_active = false;
        if (rb) {
          rb->span_at(d.compress_start_v, vclock_, "compress_chunk",
                      "ndp.compress", cfg_.trace_track + 1,
                      {obs::u64("chunk", d.compressed_done),
                       obs::u64("out_bytes",
                                chunk_stream_bytes(d.compressed_done))});
        }
        ++d.compressed_done;
      }
    }
    if (d.write_active) {
      d.write_remaining -= step;
      if (d.write_remaining <= 0.0) {
        d.write_active = false;
        if (rb) {
          rb->span_at(d.write_start_v, vclock_, "write_chunk", "ndp.wire",
                      cfg_.trace_track + 2,
                      {obs::u64("chunk", d.write_front),
                       obs::u64("bytes", chunk_stream_bytes(d.write_front))});
        }
        ++d.write_front;
      }
    }
    budget -= step;
    used += step;
  }
  return used;
}

void NdpAgent::finish_drain() {
  auto& d = *drain_;
  const std::uint64_t id = d.checkpoint_id;
  if (d.put_attempts == 0) {
    // Every attempt ships the same container: digest it once.
    d.digest = ckpt::digest_of(ByteSpan(d.compressed));
    d.capacity = d.compressed.capacity();
    // Stage the compressed image in the compressed partition (section
    // 4.3's second circular buffer) - best effort: a full partition only
    // costs the fast-restore staging. Done once, before the IO write can
    // fail; a refused container stays with the drain.
    d.staged = codec_ && !compressed_.contains(id) &&
               compressed_.put(id, std::move(d.compressed));
  }
  ++d.put_attempts;
  ++stats_.io_put_attempts;
  obs::TraceBuffer* rb = trace_->root();
  // One attempt of the shared write-verify-quarantine primitive - the
  // same stage the host commit path's IO puts run (docs/PERF.md), so
  // a drained checkpoint hits the IO device with the identical op
  // sequence a host-side commit would. Each attempt hands the store its
  // own copy of the container, in a buffer of the container's capacity
  // drawn from the pool: when the IO store drops it, it serves a later
  // container or copy instead of leaving a content-sized hole in the heap
  // (common/buffer_pool.hpp). A staged entry outlives the drain's
  // retries: the drain is the partition's only writer, and reset() drops
  // both together.
  const ByteSpan container =
      d.staged ? *compressed_.get(id) : ByteSpan(d.compressed);
  const ckpt::PutOutcome out = ckpt::verified_put_once(
      io_, cfg_.rank, id, BufferPool::global().copy(container, d.capacity),
      d.digest, /*verify=*/true);
  const bool ok = out.ok;
  const bool permanent = out.put_permanent || out.read_error_permanent;
  if (out.verify_failed) {
    ++stats_.io_verify_failures;
    if (out.quarantined) {
      ++stats_.io_quarantined;
      if (rb) {
        rb->instant_at(vclock_, "io_quarantine", "ndp", cfg_.trace_track,
                       {obs::u64("id", id)});
      }
    } else if (rb) {
      rb->instant_at(vclock_, "io_verify_fail", "ndp", cfg_.trace_track,
                     {obs::u64("id", id)});
    }
  }

  if (ok) {
    stats_.bytes_to_io += d.digest.size;
    newest_on_io_ = id;
    ++stats_.drains_completed;
    if (io_degraded_) {
      // The IO path works again: the drain "level" heals, exactly like a
      // multilevel level's probe succeeding.
      io_degraded_ = false;
      ++stats_.io_repairs;
      if (rb) {
        rb->instant_at(vclock_, "io_healed", "ndp", cfg_.trace_track,
                       {obs::u64("id", id)});
      }
    }
    if (rb) {
      rb->span_at(d.start_v, vclock_, "drain", "ndp", cfg_.trace_track,
                  {obs::u64("id", id), obs::u64("chunks", d.chunk_count),
                   obs::u64("in_bytes", d.image_size),
                   obs::u64("out_bytes", d.digest.size)});
    }
    if (d.locked) uncompressed_->unlock(id);
    drain_.reset();
    start_drain_if_ready();
    return;
  }
  if (!permanent && d.put_attempts < kDrainPutAttempts) {
    // Transient failure: back off (virtual time - the pump re-drives the
    // retry once it has elapsed) and keep the drain alive.
    ++stats_.drain_put_retries;
    const double backoff =
        kDrainRetryBackoff * std::pow(2.0, static_cast<double>(d.put_attempts - 1));
    stats_.retry_backoff_seconds += backoff;
    d.remaining_seconds = backoff;
    if (rb) {
      rb->instant_at(vclock_, "io_put_retry", "ndp", cfg_.trace_track,
                     {obs::u64("id", id),
                      obs::u64("attempt", d.put_attempts),
                      obs::f64("backoff_s", backoff)});
    }
    return;
  }
  // Permanent outage or retries exhausted: hand the compressed image back
  // to the host write path and move on to the next checkpoint.
  ++stats_.drain_put_failures;
  ++stats_.host_fallbacks;
  io_degraded_ = true;
  if (rb) {
    rb->span_at(d.start_v, vclock_, "drain_failed", "ndp", cfg_.trace_track,
                {obs::u64("id", id),
                 obs::u64("attempts", d.put_attempts)});
    rb->instant_at(vclock_, "host_fallback", "ndp", cfg_.trace_track,
                   {obs::u64("id", id),
                    obs::u64("bytes", d.digest.size)});
  }
  // A staged container stays in the partition for fast restore; the
  // host gets a copy.
  if (d.staged) d.compressed.assign(container.begin(), container.end());
  fallback_ = HostFallback{id, std::move(d.compressed)};
  if (d.locked) uncompressed_->unlock(id);
  drain_.reset();
  start_drain_if_ready();
}

double NdpAgent::pump(double seconds) {
  double consumed = 0.0;
  while (drain_) {
    if (!drain_->assembled) {
      if (seconds <= 0.0) break;
      const double used = step_pipeline(seconds);
      seconds -= used;
      consumed += used;
      if (!drain_->assembled) break;  // budget ran out mid-pipeline
      if (drain_->remaining_seconds <= 0.0) {
        // The last chunk landed exactly now: issue the IO put (retries,
        // if any, consume further virtual time below).
        finish_drain();
      }
    } else {
      if (seconds <= 0.0) break;
      const double step = std::min(seconds, drain_->remaining_seconds);
      drain_->remaining_seconds -= step;
      seconds -= step;
      consumed += step;
      vclock_ += step;
      if (drain_->remaining_seconds <= 0.0) finish_drain();
    }
  }
  stats_.busy_seconds += consumed;
  return consumed;
}

void NdpAgent::reset() {
  obs::TraceBuffer* rb = trace_->root();
  if (drain_) {
    ++stats_.drains_aborted;
    if (rb) {
      rb->span_at(drain_->start_v, vclock_, "drain_aborted", "ndp",
                  cfg_.trace_track,
                  {obs::u64("id", drain_->checkpoint_id)});
    }
    drain_.reset();  // locks die with the store contents
  }
  if (rb) rb->instant_at(vclock_, "agent_reset", "ndp", cfg_.trace_track);
  pending_.reset();
  fallback_.reset();
  uncompressed_->clear();
  compressed_.clear();
}

std::optional<NdpAgent::HostFallback> NdpAgent::take_host_fallback() {
  return std::exchange(fallback_, std::nullopt);
}

void NdpAgent::sync_clock(double now_seconds) {
  vclock_ = std::max(vclock_, now_seconds);
}

ckpt::LevelHealth NdpAgent::drain_health() const {
  ckpt::LevelHealth health;
  health.state = io_degraded_ ? ckpt::LevelState::kDegraded
                              : ckpt::LevelState::kHealthy;
  health.puts = stats_.io_put_attempts;
  health.put_retries = stats_.drain_put_retries;
  health.put_failures = stats_.drain_put_failures;
  health.verify_failures = stats_.io_verify_failures;
  health.quarantined = stats_.io_quarantined;
  health.repairs = stats_.io_repairs;
  health.backoff_seconds = stats_.retry_backoff_seconds;
  return health;
}

std::optional<std::uint64_t> NdpAgent::newest_on_io() const {
  return newest_on_io_;
}

std::optional<Bytes> NdpAgent::restore_local(
    std::uint64_t checkpoint_id) const {
  if (const auto raw = uncompressed_->get(checkpoint_id)) {
    return Bytes(raw->begin(), raw->end());
  }
  // Only a compressing drain stages here; a corrupt staging copy decodes
  // to nullopt and the caller falls to IO.
  if (const auto packed = compressed_.get(checkpoint_id)) {
    return decode_io(*packed);
  }
  return std::nullopt;
}

std::optional<Bytes> NdpAgent::decode_io(ByteSpan stored) const {
  if (!codec_) return Bytes(stored.begin(), stored.end());
  try {
    return compress::ChunkedCodec::decode(stored);
  } catch (const compress::CodecError&) {
    return std::nullopt;
  }
}

}  // namespace ndpcr::ndp
