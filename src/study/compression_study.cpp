#include "study/compression_study.hpp"

#include <chrono>
#include <stdexcept>

#include "exec/task_pool.hpp"
#include "workloads/miniapp.hpp"

namespace ndpcr::study {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const Measurement* StudyResults::find(const std::string& app,
                                      const std::string& codec) const {
  for (const auto& m : rows) {
    if (m.app == app && m.codec == codec) return &m;
  }
  return nullptr;
}

double StudyResults::average_factor(const std::string& codec) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& m : rows) {
    if (m.codec == codec) {
      sum += m.factor;
      ++n;
    }
  }
  if (n == 0) throw std::out_of_range("unknown codec: " + codec);
  return sum / n;
}

double StudyResults::average_compress_bw(const std::string& codec) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& m : rows) {
    if (m.codec == codec) {
      sum += m.compress_bw;
      ++n;
    }
  }
  if (n == 0) throw std::out_of_range("unknown codec: " + codec);
  return sum / n;
}

namespace {

// One (app, codec) cell of the study grid: compress and round-trip every
// image of the app through the codec, timing both directions.
Measurement measure_cell(const std::string& app_name,
                         const compress::CodecSpec& spec,
                         const std::vector<Bytes>& images) {
  const auto codec = compress::make_codec(spec.id, spec.level);
  Measurement m;
  m.app = app_name;
  m.codec = spec.display_name;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;
  for (const auto& image : images) {
    m.input_bytes += image.size();
    const auto t0 = std::chrono::steady_clock::now();
    const Bytes packed = codec->compress(image);
    compress_seconds += seconds_since(t0);
    m.compressed_bytes += packed.size();
    const auto t1 = std::chrono::steady_clock::now();
    const Bytes restored = codec->decompress(packed);
    decompress_seconds += seconds_since(t1);
    if (restored != image) {
      throw std::runtime_error("codec round-trip failure in study");
    }
  }
  m.factor = compress::Codec::compression_factor(m.input_bytes,
                                                 m.compressed_bytes);
  m.compress_bw =
      compress_seconds > 0.0
          ? static_cast<double>(m.input_bytes) / compress_seconds
          : 0.0;
  m.decompress_bw =
      decompress_seconds > 0.0
          ? static_cast<double>(m.input_bytes) / decompress_seconds
          : 0.0;
  return m;
}

}  // namespace

StudyResults run_compression_study(const StudyConfig& config) {
  const auto& apps =
      config.apps.empty() ? workloads::miniapp_names() : config.apps;
  exec::TaskPool& pool = exec::global_pool();

  // Stage 1: capture each app's checkpoints at several points of a short
  // run (the paper takes three, at 25/50/75% of execution). Each app is
  // seeded independently, so apps generate concurrently; image content is
  // a function of (app, bytes, seed) alone.
  auto generate = [&](std::size_t a) {
    auto app = workloads::make_miniapp(apps[a], config.bytes_per_app,
                                       config.seed);
    std::vector<Bytes> images;
    for (int c = 0; c < config.checkpoints_per_app; ++c) {
      for (int s = 0; s < config.steps_between_checkpoints; ++s) {
        app->step();
      }
      images.push_back(app->checkpoint());
    }
    return images;
  };
  const std::vector<std::vector<Bytes>> per_app_images =
      pool.parallel_map(apps.size(), generate);

  // Stage 2: the app x codec grid, one cell per task. Rows land at
  // app-major / codec-minor indices regardless of schedule; compression
  // factors are deterministic, while the measured bandwidths reflect
  // wall time and (like any timing) vary with machine load.
  const std::size_t n_codecs = config.codecs.size();
  StudyResults results;
  results.rows.resize(apps.size() * n_codecs);
  auto fill_cell = [&](std::size_t i) {
    const std::size_t a = i / n_codecs;
    const std::size_t c = i % n_codecs;
    results.rows[i] =
        measure_cell(apps[a], config.codecs[c], per_app_images[a]);
  };
  pool.parallel_for(results.rows.size(), fill_cell);
  return results;
}

// ---------------------------------------------------------------------------

const std::vector<PaperTable2Row>& paper_table2() {
  // Transcribed from Table 2 of the paper. Codec order:
  // gzip(1), gzip(6), bzip2(1), bzip2(9), xz(1), xz(6), lz4(1).
  static const std::vector<PaperTable2Row> rows = {
      {"comd", 25.07,
       {0.842, 0.844, 0.851, 0.850, 0.860, 0.862, 0.828},
       {153.7, 92.3, 32.5, 30.4, 23.5, 8.2, 658.3}},
      {"hpccg", 45.92,
       {0.884, 0.923, 0.924, 0.936, 0.969, 0.987, 0.816},
       {150.7, 61.6, 5.9, 4.6, 47.5, 7.4, 447.8}},
      {"minife", 52.31,
       {0.715, 0.776, 0.807, 0.823, 0.876, 0.911, 0.548},
       {84.5, 24.1, 10.7, 10.1, 18.3, 1.6, 253.9}},
      {"minimd", 23.94,
       {0.570, 0.584, 0.591, 0.595, 0.634, 0.679, 0.470},
       {52.2, 27.7, 10.0, 9.2, 8.0, 2.5, 345.3}},
      {"minismac", 28.11,
       {0.350, 0.355, 0.314, 0.324, 0.475, 0.488, 0.241},
       {37.3, 24.4, 6.9, 6.0, 5.1, 2.6, 342.7}},
      {"miniaero", 0.78,
       {0.843, 0.857, 0.866, 0.871, 0.881, 0.928, 0.805},
       {138.5, 61.2, 12.0, 8.2, 28.4, 4.3, 567.9}},
      {"phpccg", 46.18,
       {0.891, 0.891, 0.931, 0.940, 0.947, 0.973, 0.824},
       {154.0, 63.2, 6.8, 4.8, 45.9, 7.0, 477.7}},
  };
  return rows;
}

double paper_average_factor(std::size_t codec_index) {
  if (codec_index >= 7) throw std::out_of_range("codec index");
  double sum = 0.0;
  for (const auto& row : paper_table2()) sum += row.factor[codec_index];
  return sum / static_cast<double>(paper_table2().size());
}

double paper_average_speed_mbps(std::size_t codec_index) {
  if (codec_index >= 7) throw std::out_of_range("codec index");
  double sum = 0.0;
  for (const auto& row : paper_table2()) sum += row.speed_mbps[codec_index];
  return sum / static_cast<double>(paper_table2().size());
}

double paper_gzip1_factor(const std::string& app) {
  for (const auto& row : paper_table2()) {
    if (app == row.app) return row.factor[0];
  }
  throw std::out_of_range("unknown mini-app: " + app);
}

}  // namespace ndpcr::study
