#pragma once

// Functional model of the NDP device of sections 4.2-4.3: it owns the
// node-local NVM (two circular-buffer partitions: uncompressed and
// compressed checkpoints), compresses checkpoints with a real codec, and
// streams them to a global-IO store - all in virtual time, off the host's
// critical path.
//
// The host calls host_commit() when a local checkpoint lands in NVM (the
// notification of section 4.2.2), or local_committed() when the NVM is a
// MultilevelManager's local level; pump(seconds) advances the background
// pipeline. The agent:
//   * locks the checkpoint it is draining (so the circular buffer cannot
//     evict it under the compressor),
//   * always drains the newest committed checkpoint, skipping
//     intermediates it cannot keep up with,
//   * runs a true two-stage chunk pipeline: the image is compressed
//     chunk-at-a-time (lazily, as each compress stage begins) while the
//     previously compressed chunk is on the IO wire, so virtual time
//     follows the per-chunk recurrence C_j = C_{j-1} + c_j,
//     W_j = max(C_j, W_{j-1}) + w_j instead of a single max(C, W)
//     (overlap = false serializes the stages: total = sum c + sum w),
//   * ships the IO copy as a ChunkedCodec container (the same
//     thread-count-invariant format the multilevel IO path uses), which
//     any reader decodes (ChunkedCodec::decode),
//   * pauses while the host owns the NVM (the host_write_pause() window
//     of section 4.2.1) and during recovery (section 4.2.3),
//   * retries failed IO writes with virtual exponential backoff and, when
//     the store is permanently down, hands the compressed image back to
//     the host write path (take_host_fallback()),
//   * on node loss (reset()) drops all NVM contents and transfer state.
//
// Real bytes move through the real codec; only *durations* are modeled,
// using the configured compression and IO bandwidths. This is the bridge
// between the statistical timeline model (sim/) and the byte-level
// checkpoint library (ckpt/).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "ckpt/nvm_store.hpp"
#include "ckpt/stores.hpp"
#include "compress/chunked.hpp"
#include "compress/codec.hpp"

namespace ndpcr::obs {
class Tracer;
}  // namespace ndpcr::obs

namespace ndpcr::ndp {

struct AgentConfig {
  // The two-argument constructor's own NVM size; an agent handed a
  // shared NvmStore never reads it.
  std::size_t uncompressed_capacity = 64ull << 20;
  std::size_t compressed_capacity = 16ull << 20;
  // Codec for the IO stream; kNull disables compression (the drain then
  // bypasses the compressed partition and streams the raw image).
  compress::CodecId codec = compress::CodecId::kDeflateStyle;
  int codec_level = 1;
  double compress_bw = 440.4e6;  // uncompressed bytes/s through the codec
  double io_bw = 100e6;          // bytes/s onto the IO store
  bool overlap = true;           // section 4.2.2 pipelining
  std::uint32_t rank = 0;        // key for the IO store
  // Drain pipeline granularity (section 4.2.2): input bytes per chunk.
  // It fixes the stored bytes; readers need not know it.
  std::size_t chunk_bytes = 256ull << 10;
  // Optional tracer (docs/OBSERVABILITY.md). The agent emits on the
  // virtual clock: a span per drain and per pipeline stage (compress vs
  // wire, so the overlap is visible in Perfetto), plus retry/fallback
  // instants. Three tracks are used starting at `trace_track`: +0 drain,
  // +1 compress stage, +2 wire stage. The agent's virtual clock advances
  // only while the pipeline consumes time; a simulator that knows the
  // global virtual time should call sync_clock() before each pump.
  obs::Tracer* trace = nullptr;
  std::uint32_t trace_track = 0;
};

struct AgentStats {
  std::uint64_t commits_seen = 0;
  std::uint64_t drains_completed = 0;
  std::uint64_t drains_skipped = 0;  // superseded by a newer checkpoint
  std::uint64_t drains_aborted = 0;  // reset() during a drain
  double busy_seconds = 0.0;         // pipeline time actually consumed
  std::uint64_t bytes_compressed = 0;
  std::uint64_t bytes_to_io = 0;
  std::uint64_t drain_put_retries = 0;   // IO writes retried after failure
  std::uint64_t drain_put_failures = 0;  // HostFallback handoffs staged
  double retry_backoff_seconds = 0.0;    // virtual backoff accumulated
  // Health-style counters for the drain's IO write path, so chaos runs
  // can assert on fallback/retry behaviour the way they do on the
  // multilevel HealthReport (see drain_health()).
  std::uint64_t io_put_attempts = 0;     // IO puts issued (incl. retries)
  std::uint64_t io_verify_failures = 0;  // readback mismatched the drain
  std::uint64_t io_quarantined = 0;      // torn IO entries erased
  std::uint64_t io_repairs = 0;          // degraded -> healthy transitions
};

class NdpAgent {
 public:
  // The IO store outlives the agent (it models the parallel file system).
  // The second form drains `nvm` as its uncompressed partition, shared
  // with the host; whoever clears it (node loss) must reset() the agent.
  NdpAgent(const AgentConfig& config, ckpt::KvStore& io_store);
  NdpAgent(const AgentConfig& config, ckpt::KvStore& io_store,
           std::shared_ptr<ckpt::NvmStore> nvm);

  // Host-side local commit: the image enters the uncompressed partition
  // (then local_committed). Returns false if the partition cannot take it
  // (everything evictable is pinned by an in-flight drain) - the host must
  // stall, the back-pressure case discussed in section 4.2.1.
  bool host_commit(std::uint64_t checkpoint_id, Bytes image);
  // Checkpoint `checkpoint_id` is in the uncompressed partition: queue it
  // as the next drain, superseding one still queued.
  void local_committed(std::uint64_t checkpoint_id);

  // Advance the background pipeline by `seconds` of virtual time. Returns
  // the seconds actually consumed (less than `seconds` when the pipeline
  // goes idle).
  double pump(double seconds);

  // Node loss: NVM partitions and transfer state are gone. The IO store
  // is unaffected.
  void reset();

  // Newest checkpoint id fully landed on the IO store for this rank.
  [[nodiscard]] std::optional<std::uint64_t> newest_on_io() const;

  // Restore path: newest checkpoint available locally (uncompressed
  // partition first, then the compressed partition through decode_io).
  [[nodiscard]] std::optional<Bytes> restore_local(
      std::uint64_t checkpoint_id) const;

  // The image a drained entry holds (a kNull drain's bytes as they are).
  // Nullopt when the bytes do not decode (a corrupt copy).
  [[nodiscard]] std::optional<Bytes> decode_io(ByteSpan stored) const;

  // A drain whose IO writes failed permanently (or exhausted their
  // retries): the compressed image the host should write through its own
  // path. The host collects it with take_host_fallback(); a newer
  // fallback replaces an uncollected older one.
  struct HostFallback {
    std::uint64_t checkpoint_id = 0;
    Bytes compressed;
  };
  [[nodiscard]] std::optional<HostFallback> take_host_fallback();

  // Align the agent's virtual clock with the caller's simulation time
  // (monotone: never moves backwards). Only affects trace timestamps.
  void sync_clock(double now_seconds);

  // The drain's IO write path viewed as a ckpt::LevelHealth, so chaos
  // harnesses can fold it into the same reporting as the multilevel
  // levels: degraded while the last drain fell back to the host.
  [[nodiscard]] ckpt::LevelHealth drain_health() const;

  [[nodiscard]] const AgentStats& stats() const { return stats_; }
  [[nodiscard]] const ckpt::NvmStore& uncompressed_partition() const {
    return *uncompressed_;
  }
  [[nodiscard]] const ckpt::NvmStore& compressed_partition() const {
    return compressed_;
  }
  [[nodiscard]] bool busy() const { return drain_.has_value(); }

 private:
  struct Drain {
    std::uint64_t checkpoint_id = 0;
    std::size_t image_size = 0;
    // Two-stage chunk pipeline. Chunk j's stream is appended to
    // `compressed` when its compress stage begins (the source NVM entry
    // is locked for the whole drain, so the span stays valid); the wire
    // stage reads its size from the container's size table.
    std::size_t chunk_count = 0;
    std::size_t compressed_done = 0;  // chunks out of the compress stage
    std::size_t write_front = 0;      // chunks off the IO wire
    double compress_remaining = 0.0;
    double write_remaining = 0.0;
    bool compress_active = false;
    bool write_active = false;
    bool assembled = false;  // pipeline drained; `compressed` is final
    // The container the IO store receives (the raw image when kNull).
    // The first put attempt moves it into the compressed partition when
    // that takes it (`staged`); each attempt then copies it from there.
    Bytes compressed;
    bool staged = false;
    ckpt::EntryDigest digest;  // of the container, taken once per drain
    std::size_t capacity = 0;  // of the container, for the IO copies
    double remaining_seconds = 0.0;  // put retry backoff countdown
    bool locked = false;
    std::uint32_t put_attempts = 0;  // IO writes tried for this drain
    // Virtual-clock stamps for the trace spans.
    double start_v = 0.0;
    double compress_start_v = 0.0;
    double write_start_v = 0.0;
  };

  void start_drain_if_ready();
  // Size of the drain's chunk j stream: its container size-table entry
  // (the raw image when uncompressed).
  [[nodiscard]] std::size_t chunk_stream_bytes(std::size_t j) const;
  // Advance the chunk pipeline by up to `budget` seconds; returns the
  // time consumed. Sets drain_->assembled when the last write lands.
  double step_pipeline(double budget);
  void finish_drain();

  AgentConfig cfg_;
  ckpt::KvStore& io_;
  // Chunked container codec; empty when cfg_.codec == kNull.
  std::optional<compress::ChunkedCodec> codec_;
  std::shared_ptr<ckpt::NvmStore> uncompressed_;  // never null
  ckpt::NvmStore compressed_;
  std::optional<Drain> drain_;
  std::optional<std::uint64_t> pending_;  // newest committed, not drained
  std::optional<std::uint64_t> newest_on_io_;
  std::optional<HostFallback> fallback_;
  AgentStats stats_;
  // Never null: cfg.trace or the shared disabled Tracer::null().
  obs::Tracer* trace_;
  double vclock_ = 0.0;       // virtual time consumed by this agent
  bool io_degraded_ = false;  // last drain fell back to the host path
};

}  // namespace ndpcr::ndp
