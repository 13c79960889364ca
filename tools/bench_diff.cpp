// bench_diff: compare two BENCH_*.json reports section by section.
//
//   bench_diff OLD.json NEW.json [--threshold PCT] [--fail-on-regress PCT]
//
// Rows are matched within each section by their configuration cells -
// labels, and integers such as thread counts outside the measured columns
// (below) - falling back to row index when keys collide or vanish; every
// decimal column prints old -> new with the relative change. Rows whose change
// exceeds the threshold (default 10%) are flagged WARN. The tool is
// warn-only by default: bench numbers on shared CI hosts are noisy, so
// out of the box it never fails a build - it exists to make a perf
// regression visible in the PR conversation. A pipeline that does want a
// gate opts in with --fail-on-regress PCT: any row whose relative change
// reaches that (usually looser) bound flags FAIL and the exit status
// becomes 1. Exit status is otherwise 0 unless the inputs cannot be
// parsed (2).
//
// Columns are matched by header name, so a section may gain columns.
// Rows timed as the median of repeats carry median_X / iqr_X column
// pairs (bench::measure_interleaved). When every median of such a row
// moved by less than the larger of its old and new IQR, the row's moves
// are inside the recorded noise band: it prints `noise` instead of WARN
// or FAIL and counts toward neither.
//
// Reports stamped with their host (BenchReport::stamp_host) carry a
// `parallelism` probe in effective CPUs. When the two probes differ by
// more than 0.5, a `WARN host` line says so: the hosts differed, so
// multi-thread rows compare the hosts as much as the code.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader - just enough for the flat shape bench_util emits:
// objects, arrays, strings and numbers (no escapes beyond \" and \\,
// which the writer never produces for bench content anyway).

struct Json {
  enum class Kind { kNull, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  [[nodiscard]] const Json* find(const std::string& key) const {
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(Json& out) { return value(out) && (skip_ws(), pos_ == text_.size()); }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool string(std::string& out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool value(Json& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = Json::Kind::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
      for (;;) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        Json child;
        if (!value(child)) return false;
        out.fields.emplace(std::move(key), std::move(child));
        skip_ws();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return text_[pos_++] == '}';
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = Json::Kind::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
      for (;;) {
        Json child;
        if (!value(child)) return false;
        out.items.push_back(std::move(child));
        skip_ws();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return text_[pos_++] == ']';
      }
    }
    if (c == '"') {
      out.kind = Json::Kind::kString;
      return string(out.str);
    }
    if (literal("null")) return true;
    if (literal("true")) {
      out.kind = Json::Kind::kNumber;
      out.number = 1.0;
      return true;
    }
    if (literal("false")) {
      out.kind = Json::Kind::kNumber;
      return true;
    }
    char* end = nullptr;
    out.number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    out.kind = Json::Kind::kNumber;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

struct Section {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

using Report = std::map<std::string, Section>;

bool numeric(const std::string& cell, double& out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  out = std::strtod(cell.c_str(), &end);
  return end == cell.c_str() + cell.size();
}

// Index of the column named `name`, or -1.
int column(const Section& sec, const std::string& name) {
  for (std::size_t c = 0; c < sec.header.size(); ++c) {
    if (sec.header[c] == name) return static_cast<int>(c);
  }
  return -1;
}

// A column whose cells are measurements, not configuration: timings and
// their spread (median_/iqr_/min_/cpu_), minor-fault counts, and rates and
// durations (a `_s` suffix: fails_per_s, wall_s, comp_mib_s). Such a cell
// may print as an integer, yet a re-recorded row that moved it is still
// the same row.
bool measured_column(const std::string& name) {
  for (const char* prefix : {"median_", "iqr_", "min_", "cpu_"}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return name == "minflt" ||
         (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0);
}

// The cells of `row` under the columns named `names` (the columns both
// reports share, so a section that gains a column still matches its old
// rows). Non-numeric cells identify the configuration (codec names,
// modes); thread counts are numeric but positional - keep integers too
// when they look like labels: pool_threads etc. are part of the key.
// Measured columns never are.
std::string row_key(const Section& sec, const std::vector<std::string>& row,
                    const std::vector<std::string>& names) {
  std::string key;
  for (const auto& name : names) {
    if (measured_column(name)) continue;
    const int c = column(sec, name);
    if (c < 0 || static_cast<std::size_t>(c) >= row.size()) continue;
    const std::string& cell = row[static_cast<std::size_t>(c)];
    double v = 0.0;
    const bool is_num = numeric(cell, v);
    const bool integral = is_num && v == std::floor(v) &&
                          cell.find('.') == std::string::npos;
    if (!is_num || integral) {
      key += cell;
      key += '\x1f';
    }
  }
  return key;
}

double cell_value(const std::vector<std::string>& row, int c) {
  double v = 0.0;
  if (c < 0 || static_cast<std::size_t>(c) >= row.size() ||
      !numeric(row[static_cast<std::size_t>(c)], v)) {
    return std::nan("");
  }
  return v;
}

// True when the row carries at least one median_X/iqr_X pair and every
// median moved by less than the larger of the two rows' IQRs for it.
bool within_noise(const Section& sec_a, const std::vector<std::string>& old_row,
                  const Section& sec_b, const std::vector<std::string>& row) {
  bool any = false;
  for (std::size_t c = 0; c < sec_b.header.size(); ++c) {
    const std::string& h = sec_b.header[c];
    if (h.rfind("median_", 0) != 0) continue;
    const std::string iqr = "iqr_" + h.substr(7);
    const double new_median = cell_value(row, static_cast<int>(c));
    const double old_median = cell_value(old_row, column(sec_a, h));
    const double band = std::fmax(cell_value(row, column(sec_b, iqr)),
                                  cell_value(old_row, column(sec_a, iqr)));
    // NaN (a missing cell) fails every comparison: not noise.
    if (!(std::fabs(new_median - old_median) < band)) return false;
    any = true;
  }
  return any;
}

bool load_report(const char* path, Report& report, std::string& meta,
                 double& parallelism) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  Json root;
  if (!Parser(text).parse(root) || root.kind != Json::Kind::kObject) {
    std::fprintf(stderr, "bench_diff: %s is not valid JSON\n", path);
    return false;
  }
  if (const Json* m = root.find("meta")) {
    if (const Json* b = m->find("bench")) meta = b->str;
    if (const Json* cfg = m->find("config")) meta += " config=" + cfg->str;
    if (const Json* host = m->find("host")) {
      if (const Json* p = host->find("parallelism")) parallelism = p->number;
    }
  }
  const Json* sections = root.find("sections");
  if (!sections || sections->kind != Json::Kind::kArray) {
    std::fprintf(stderr, "bench_diff: %s has no sections array\n", path);
    return false;
  }
  for (const Json& s : sections->items) {
    const Json* name = s.find("name");
    const Json* header = s.find("header");
    const Json* rows = s.find("rows");
    if (!name || !header || !rows) continue;
    Section section;
    for (const Json& h : header->items) section.header.push_back(h.str);
    for (const Json& r : rows->items) {
      std::vector<std::string> row;
      for (const Json& cell : r.items) {
        row.push_back(cell.kind == Json::Kind::kString
                          ? cell.str
                          : std::to_string(cell.number));
      }
      section.rows.push_back(std::move(row));
    }
    report.emplace(name->str, std::move(section));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 10.0;
  double fail_threshold = -1.0;  // < 0 = warn-only (the default)
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--fail-on-regress") == 0 &&
               i + 1 < argc) {
      fail_threshold = std::strtod(argv[++i], nullptr);
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff OLD.json NEW.json [--threshold PCT] "
                 "[--fail-on-regress PCT]\n");
    return 2;
  }
  Report before;
  Report after;
  std::string meta_a;
  std::string meta_b;
  double par_a = std::nan("");  // NaN: the report carries no host stamp
  double par_b = std::nan("");
  if (!load_report(files[0], before, meta_a, par_a) ||
      !load_report(files[1], after, meta_b, par_b)) {
    return 2;
  }
  std::printf("bench_diff: %s (%s) vs %s (%s), warn at %.0f%%\n", files[0],
              meta_a.c_str(), files[1], meta_b.c_str(), threshold);
  if (std::fabs(par_a - par_b) > 0.5) {
    std::printf("WARN  host parallelism %.2f -> %.2f: multi-thread rows "
                "compare the hosts too\n",
                par_a, par_b);
  }
  if (fail_threshold >= 0.0) {
    std::printf("gating: fail at %.0f%%\n", fail_threshold);
  }

  int warnings = 0;
  int failures = 0;
  int noisy = 0;
  for (const auto& [name, sec_b] : after) {
    const auto it = before.find(name);
    if (it == before.end()) {
      std::printf("\n[%s] new section (%zu rows)\n", name.c_str(),
                  sec_b.rows.size());
      continue;
    }
    const Section& sec_a = it->second;
    std::printf("\n[%s]\n", name.c_str());
    // Index the old rows by key for stable matching.
    std::map<std::string, const std::vector<std::string>*> old_rows;
    std::vector<std::string> shared;
    for (const auto& col_name : sec_b.header) {
      if (column(sec_a, col_name) >= 0) shared.push_back(col_name);
    }
    const auto old_key = [&](const std::vector<std::string>& r) {
      return row_key(sec_a, r, shared);
    };
    for (const auto& row : sec_a.rows) old_rows[old_key(row)] = &row;
    for (std::size_t i = 0; i < sec_b.rows.size(); ++i) {
      const auto& row = sec_b.rows[i];
      const std::string key = row_key(sec_b, row, shared);
      const auto match = old_rows.find(key);
      const std::vector<std::string>* old_row = nullptr;
      if (match != old_rows.end()) {
        old_row = match->second;
      } else if (i < sec_a.rows.size() &&
                 old_key(sec_a.rows[i]) == key) {
        old_row = &sec_a.rows[i];
      }
      std::string label;
      std::string deltas;
      bool warned = false;
      bool failed = false;
      for (std::size_t c = 0; c < row.size() && c < sec_b.header.size();
           ++c) {
        double nv = 0.0;
        const bool is_num =
            numeric(row[c], nv) && row[c].find('.') != std::string::npos;
        if (!is_num) {
          // A measured integer (minflt) is neither label nor delta.
          if (measured_column(sec_b.header[c])) continue;
          if (!label.empty()) label += ' ';
          label += row[c];
          continue;
        }
        if (!old_row) continue;
        const int oc = column(sec_a, sec_b.header[c]);
        if (oc < 0 || static_cast<std::size_t>(oc) >= old_row->size()) {
          continue;
        }
        const std::string& old_cell = (*old_row)[static_cast<std::size_t>(oc)];
        double ov = 0.0;
        if (!numeric(old_cell, ov)) continue;
        const double pct = ov == 0.0 ? 0.0 : (nv - ov) / ov * 100.0;
        char buf[160];
        std::snprintf(buf, sizeof buf, "  %s %s->%s (%+.1f%%)",
                      sec_b.header[c].c_str(), old_cell.c_str(),
                      row[c].c_str(), pct);
        deltas += buf;
        if (std::fabs(pct) >= threshold) warned = true;
        if (fail_threshold >= 0.0 && std::fabs(pct) >= fail_threshold) {
          failed = true;
        }
      }
      if (!old_row) {
        std::printf("  %-28s (new row)\n", label.c_str());
      } else if (!deltas.empty()) {
        const bool noise =
            (warned || failed) && within_noise(sec_a, *old_row, sec_b, row);
        std::printf("%-5s %-28s%s\n",
                    noise    ? "noise"
                    : failed ? "FAIL"
                    : warned ? "WARN"
                             : "",
                    label.c_str(), deltas.c_str());
        noisy += noise ? 1 : 0;
        warnings += warned && !noise ? 1 : 0;
        failures += failed && !noise ? 1 : 0;
      }
    }
  }
  for (const auto& [name, sec] : before) {
    if (after.find(name) == after.end()) {
      std::printf("\n[%s] section removed (%zu rows)\n", name.c_str(),
                  sec.rows.size());
    }
  }
  if (fail_threshold >= 0.0) {
    std::printf(
        "\n%d warning(s), %d row(s) past the fail bound, %d within noise; "
        "exit %d\n",
        warnings, failures, noisy, failures > 0 ? 1 : 0);
    return failures > 0 ? 1 : 0;
  }
  std::printf("\n%d warning(s), %d within noise; warn-only, exit 0\n",
              warnings, noisy);
  return 0;
}
