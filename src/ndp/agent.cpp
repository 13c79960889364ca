#include "ndp/agent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/store_writer.hpp"
#include "obs/trace.hpp"

namespace ndpcr::ndp {
namespace {

// Delta drain wire frame: magic(4) kind(1) base_id(8) payload.
constexpr std::uint32_t kFrameMagic = 0x4E444652;  // "NDFR"
constexpr std::size_t kFrameHeader = 4 + 1 + 8;

}  // namespace

Bytes NdpAgent::build_frame(ckpt::PayloadKind kind, std::uint64_t base_id,
                            ByteSpan payload) {
  Bytes out;
  out.reserve(kFrameHeader + payload.size());
  append_le<std::uint32_t>(out, kFrameMagic);
  append_le<std::uint8_t>(out, static_cast<std::uint8_t>(kind));
  append_le<std::uint64_t>(out, base_id);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<NdpAgent::Frame> NdpAgent::parse_frame(ByteSpan raw) {
  if (raw.size() < kFrameHeader ||
      read_le<std::uint32_t>(raw, 0) != kFrameMagic) {
    return std::nullopt;
  }
  const auto kind = read_le<std::uint8_t>(raw, 4);
  if (kind > static_cast<std::uint8_t>(ckpt::PayloadKind::kDelta)) {
    return std::nullopt;
  }
  Frame frame;
  frame.kind = static_cast<ckpt::PayloadKind>(kind);
  frame.base_id = read_le<std::uint64_t>(raw, 5);
  const ByteSpan payload = raw.subspan(kFrameHeader);
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

NdpAgent::NdpAgent(const AgentConfig& config, ckpt::KvStore& io_store)
    : cfg_(config),
      io_(io_store),
      uncompressed_(config.uncompressed_capacity),
      compressed_(config.compressed_capacity),
      trace_(config.trace ? config.trace : &obs::Tracer::null()) {
  if (cfg_.compress_bw <= 0 || cfg_.io_bw <= 0) {
    throw std::invalid_argument("agent bandwidths must be positive");
  }
  if (cfg_.chunk_bytes == 0) {
    throw std::invalid_argument("agent chunk_bytes must be positive");
  }
  if (cfg_.codec != compress::CodecId::kNull) {
    codec_.emplace(cfg_.codec, cfg_.codec_level, cfg_.chunk_bytes,
                   std::max(1u, cfg_.codec_threads));
    codec_->warm(std::max(1u, cfg_.codec_threads));
  }
  if (cfg_.delta_chain > 0) {
    if (cfg_.delta_block_bytes == 0) {
      throw std::invalid_argument("agent delta_block_bytes must be positive");
    }
    if (cfg_.delta_bw <= 0) {
      throw std::invalid_argument("agent delta_bw must be positive");
    }
    delta_codec_.emplace(cfg_.delta_block_bytes);
  }
  if (trace_->enabled()) {
    const std::string base = "ndp r" + std::to_string(cfg_.rank);
    trace_->set_track_name(cfg_.trace_track, base);
    trace_->set_track_name(cfg_.trace_track + 1, base + " compress");
    trace_->set_track_name(cfg_.trace_track + 2, base + " wire");
  }
}

bool NdpAgent::host_commit(std::uint64_t checkpoint_id, Bytes image) {
  const std::size_t bytes = image.size();
  if (!uncompressed_.put(checkpoint_id, std::move(image))) {
    return false;
  }
  ++stats_.commits_seen;
  if (obs::TraceBuffer* rb = trace_->root()) {
    rb->instant_at(vclock_, "host_commit", "ndp", cfg_.trace_track,
                   {obs::u64("id", checkpoint_id),
                    obs::u64("bytes", bytes)});
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
  return true;
}

void NdpAgent::start_drain_if_ready() {
  if (drain_ || !pending_) return;
  const auto id = *pending_;
  pending_.reset();
  const auto image = uncompressed_.get(id);
  if (!image) return;  // evicted before we got to it

  Drain drain;
  drain.checkpoint_id = id;
  drain.image_size = image->size();
  drain.raw_bytes = image->size();
  drain.start_v = vclock_;
  // Lock the source so the circular buffer cannot reclaim it while the
  // chunk pipeline reads it (section 4.2.2).
  uncompressed_.lock(id);
  drain.locked = true;
  if (obs::TraceBuffer* rb = trace_->root()) {
    rb->instant_at(vclock_, "drain_start", "ndp", cfg_.trace_track,
                   {obs::u64("id", id),
                    obs::u64("bytes", drain.image_size)});
  }

  if (delta_codec_) {
    // Delta drain mode: the pipeline ships a frame, delta-encoded against
    // the last image that landed on IO when the chain allows it. The
    // encode happens here (the bytes are needed to size the chunk
    // pipeline); its virtual cost is the preprocess stage consumed before
    // the first chunk compresses.
    const bool as_delta = last_shipped_ && last_shipped_->id < id &&
                          links_since_full_ < cfg_.delta_chain;
    if (as_delta) {
      const Bytes stream = delta_codec_->encode(
          ByteSpan(last_shipped_->image), *image, delta_scratch_);
      drain.frame =
          build_frame(ckpt::PayloadKind::kDelta, last_shipped_->id, stream);
      drain.is_delta = true;
      ++stats_.delta_frames;
      stats_.delta_input_bytes += image->size();
      stats_.delta_frame_bytes += stream.size();
    } else {
      drain.frame = build_frame(ckpt::PayloadKind::kFull, 0, *image);
      ++stats_.full_frames;
    }
    drain.framed = true;
    drain.image_size = drain.frame.size();
    drain.preprocess_remaining =
        static_cast<double>(drain.raw_bytes) / cfg_.delta_bw;
    drain.preprocess_start_v = vclock_;
  }

  if (codec_) {
    drain.chunk_count = codec_->chunk_count(drain.image_size);
    drain.chunks.resize(drain.chunk_count);
    if (drain.chunk_count == 0) {
      // Empty image: nothing to pipeline, just the container header on
      // the wire.
      drain.compressed = codec_->compress(*image);
      drain.assembled = true;
      drain.remaining_seconds =
          static_cast<double>(drain.compressed.size()) / cfg_.io_bw;
    }
  } else {
    // Uncompressed mode: a single raw "chunk", write stage only.
    drain.chunk_count = 1;
    drain.chunks.assign(
        1, drain.framed ? drain.frame : Bytes(image->begin(), image->end()));
    drain.compressed_done = 1;
  }
  drain_ = std::move(drain);
}

double NdpAgent::step_pipeline(double budget) {
  auto& d = *drain_;
  double used = 0.0;
  // Delta preprocess stage: the hash-and-compare pass over the raw image
  // runs to completion before the first chunk enters the codec - the
  // frame's bytes are what the chunk pipeline consumes.
  while (budget > 0.0 && d.preprocess_remaining > 0.0) {
    const double step = std::min(budget, d.preprocess_remaining);
    d.preprocess_remaining -= step;
    vclock_ += step;
    budget -= step;
    used += step;
    if (d.preprocess_remaining <= 0.0) {
      if (obs::TraceBuffer* rb = trace_->root()) {
        rb->span_at(d.preprocess_start_v, vclock_, "delta_encode",
                    "ndp.delta", cfg_.trace_track + 1,
                    {obs::u64("id", d.checkpoint_id),
                     obs::u64("in_bytes", d.raw_bytes),
                     obs::u64("frame_bytes", d.frame.size()),
                     obs::u64("delta", d.is_delta ? 1 : 0)});
      }
    }
  }
  if (d.preprocess_remaining > 0.0) return used;
  while (budget > 0.0 && !d.assembled) {
    // Arm the compress stage: the next chunk's bytes are produced now,
    // when its stage begins - the drain's lock keeps the source span
    // valid (delta mode compresses the frame instead) - and its virtual
    // duration is the chunk's input size over the compression bandwidth.
    if (!d.compress_active && codec_ && d.compressed_done < d.chunk_count) {
      if (d.framed) {
        d.chunks[d.compressed_done] =
            codec_->compress_chunk(ByteSpan(d.frame), d.compressed_done);
      } else {
        const auto image = uncompressed_.get(d.checkpoint_id);
        d.chunks[d.compressed_done] =
            codec_->compress_chunk(*image, d.compressed_done);
      }
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
      double bytes = static_cast<double>(d.chunks[d.write_front].size());
      if (d.write_front == 0 && codec_) {
        bytes += static_cast<double>(
            compress::ChunkedCodec::header_bytes(d.chunk_count));
      }
      d.write_remaining = bytes / cfg_.io_bw;
      d.write_active = true;
      d.write_start_v = vclock_;
    }
    if (!d.compress_active && !d.write_active) {
      // Every chunk compressed and written: the pipeline is dry.
      d.compressed = codec_ ? codec_->assemble(d.image_size, d.chunks)
                            : std::move(d.chunks[0]);
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
                                d.chunks[d.compressed_done].size())});
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
                       obs::u64("bytes", d.chunks[d.write_front].size())});
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
  // Stage the compressed image in the compressed partition (section 4.3's
  // second circular buffer) - best effort: a full partition only costs the
  // fast-restore staging. Done once, before the IO write can fail. Delta
  // frames are not staged: they are useless without their chain, and the
  // partition exists for fast self-contained restores.
  if (d.put_attempts == 0 && codec_ && !compressed_.contains(id) &&
      !d.is_delta) {
    compressed_.put(id, d.compressed);
  }
  ++d.put_attempts;
  ++stats_.io_put_attempts;
  obs::TraceBuffer* rb = trace_->root();
  // One attempt of the shared write-verify-quarantine primitive - the
  // same stage the host commit path's writer jobs run (docs/PERF.md), so
  // a drained checkpoint hits the IO device with the identical op
  // sequence a host-side commit would.
  // The drain keeps its container for retries, so each attempt hands the
  // store a copy.
  const ckpt::PutOutcome out = ckpt::verified_put_once(
      io_, cfg_.rank, id, Bytes(d.compressed),
      ckpt::digest_of(ByteSpan(d.compressed)), /*verify=*/true);
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
    stats_.bytes_to_io += d.compressed.size();
    newest_on_io_ = id;
    ++stats_.drains_completed;
    if (delta_codec_) {
      // This image is now the chain's reference (captured before the
      // unlock below; the entry is still resident).
      if (const auto image = uncompressed_.get(id)) {
        last_shipped_ = Shipped{id, Bytes(image->begin(), image->end())};
      } else {
        last_shipped_.reset();
      }
      links_since_full_ = d.is_delta ? links_since_full_ + 1 : 0;
    }
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
                   obs::u64("out_bytes", d.compressed.size())});
    }
    if (d.locked) uncompressed_.unlock(id);
    drain_.reset();
    start_drain_if_ready();
    return;
  }
  if (!permanent && d.put_attempts < cfg_.drain_put_attempts) {
    // Transient failure: back off (virtual time - the pump re-drives the
    // retry once it has elapsed) and keep the drain alive.
    ++stats_.drain_put_retries;
    const double backoff =
        cfg_.drain_retry_backoff *
        std::pow(2.0, static_cast<double>(d.put_attempts - 1));
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
  // to the host write path and move on to the next checkpoint. The delta
  // chain cannot continue over a frame IO never saw: restart at a full.
  ++stats_.drain_put_failures;
  ++stats_.host_fallbacks;
  io_degraded_ = true;
  last_shipped_.reset();
  links_since_full_ = 0;
  if (rb) {
    rb->span_at(d.start_v, vclock_, "drain_failed", "ndp", cfg_.trace_track,
                {obs::u64("id", id),
                 obs::u64("attempts", d.put_attempts)});
    rb->instant_at(vclock_, "host_fallback", "ndp", cfg_.trace_track,
                   {obs::u64("id", id),
                    obs::u64("bytes", d.compressed.size())});
  }
  fallback_ = HostFallback{id, std::move(d.compressed)};
  if (d.locked) uncompressed_.unlock(id);
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
  uncompressed_.clear();
  compressed_.clear();
  // Node loss drops the delta reference with the NVM: the next drain
  // ships a full frame.
  last_shipped_.reset();
  links_since_full_ = 0;
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
  if (const auto raw = uncompressed_.get(checkpoint_id)) {
    return Bytes(raw->begin(), raw->end());
  }
  if (codec_) {
    if (const auto packed = compressed_.get(checkpoint_id)) {
      try {
        Bytes raw = codec_->decompress(*packed);
        if (cfg_.delta_chain == 0) return raw;
        // Delta mode stages full frames only: unwrap to the image.
        auto frame = parse_frame(ByteSpan(raw));
        if (frame && frame->kind == ckpt::PayloadKind::kFull) {
          return std::move(frame->payload);
        }
        return std::nullopt;
      } catch (const compress::CodecError&) {
        return std::nullopt;  // corrupt staging copy: caller falls to IO
      }
    }
  }
  return std::nullopt;
}

}  // namespace ndpcr::ndp
