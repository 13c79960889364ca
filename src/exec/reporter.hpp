#pragma once

// Reporter: structured experiment output for the figure/table harnesses.
//
// Every bench table used to exist only as fixed-width ASCII on stdout;
// the Reporter keeps that rendering and additionally serializes the same
// sections as CSV or JSON rows, stamped with the run metadata that makes
// a figure reproducible: seed, trial count, thread count, a hash of the
// configuration string, and the wall time of the run. Downstream tooling
// (plot scripts, regression diffing) consumes the structured form; humans
// keep reading the ASCII tables.

#include <cstdint>
#include <string>
#include <vector>

namespace ndpcr::exec {

struct RunMeta {
  std::string bench;          // harness name, e.g. "fig4_ratio_sweep"
  std::uint64_t seed = 0;
  int trials = 0;
  unsigned threads = 1;
  std::string config;         // free-form config summary; hashed into the id
};

class Reporter {
 public:
  struct Section {
    std::string name;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
  };

  explicit Reporter(RunMeta meta);

  // Start a named table section; subsequent add_row calls append to it.
  void add_section(std::string name, std::vector<std::string> header);
  void add_row(std::vector<std::string> cells);

  void set_wall_seconds(double seconds);
  // The host the run measured on, a JSON object (bench::BenchReport's
  // stamp_host): meta "host" in JSON, a `# host=` line in CSV.
  void set_host(std::string json_object);

  [[nodiscard]] const RunMeta& meta() const { return meta_; }
  [[nodiscard]] const std::vector<Section>& sections() const {
    return sections_;
  }

  // CRC32 of meta.config, eight hex digits: a compact fingerprint that
  // changes whenever a harness runs with different parameters.
  [[nodiscard]] std::string config_hash() const;

  // The classic fixed-width tables, one per section, titled by name.
  [[nodiscard]] std::string ascii() const;

  // All sections in one CSV stream: `# key=value` metadata comments, then
  // per section a `# section: <name>` comment, the header row, and the
  // data rows. Cells containing separators are quoted per RFC 4180.
  [[nodiscard]] std::string csv() const;

  // {"meta": {...}, "sections": [{"name", "header", "rows"}, ...]}
  [[nodiscard]] std::string json() const;

  // Write the structured form to `path`: "-" means stdout, a ".json"
  // suffix selects JSON, anything else CSV. Throws std::runtime_error on
  // IO failure.
  void write(const std::string& path) const;

 private:
  RunMeta meta_;
  double wall_seconds_ = 0.0;
  std::string host_;
  std::vector<Section> sections_;
};

}  // namespace ndpcr::exec
