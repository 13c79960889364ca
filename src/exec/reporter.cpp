#include "exec/reporter.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace ndpcr::exec {
namespace {

bool needs_csv_quoting(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

std::string csv_cell(const std::string& cell) {
  if (!needs_csv_quoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// One escaping implementation for the whole tree (common/json.hpp): the
// local copy used to pass a possibly-negative char to %x and skipped the
// \b/\f/\r shorthands.
std::string json_string(const std::string& s) { return json_escape(s); }

void append_csv_row(std::ostringstream& out,
                    const std::vector<std::string>& cells) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) out << ',';
    out << csv_cell(cells[c]);
  }
  out << '\n';
}

}  // namespace

Reporter::Reporter(RunMeta meta) : meta_(std::move(meta)) {}

void Reporter::add_section(std::string name, std::vector<std::string> header) {
  sections_.push_back({std::move(name), std::move(header), {}});
}

void Reporter::add_row(std::vector<std::string> cells) {
  if (sections_.empty()) {
    throw std::logic_error("Reporter::add_row before any add_section");
  }
  sections_.back().rows.push_back(std::move(cells));
}

void Reporter::set_wall_seconds(double seconds) { wall_seconds_ = seconds; }

void Reporter::set_host(std::string json_object) {
  host_ = std::move(json_object);
}

std::string Reporter::config_hash() const {
  const std::uint32_t crc =
      Crc32::compute(meta_.config.data(), meta_.config.size());
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

std::string Reporter::ascii() const {
  std::ostringstream out;
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    if (s) out << '\n';
    out << sections_[s].name << "\n\n";
    TextTable table(sections_[s].header);
    for (const auto& row : sections_[s].rows) table.add_row(row);
    out << table.str();
  }
  return out.str();
}

std::string Reporter::csv() const {
  std::ostringstream out;
  out << "# bench=" << meta_.bench << " seed=" << meta_.seed
      << " trials=" << meta_.trials << " threads=" << meta_.threads
      << " config=" << config_hash() << " wall_s=" << fmt_fixed(wall_seconds_, 3)
      << '\n';
  if (!host_.empty()) out << "# host=" << host_ << '\n';
  for (const auto& section : sections_) {
    out << "# section: " << section.name << '\n';
    append_csv_row(out, section.header);
    for (const auto& row : section.rows) append_csv_row(out, row);
  }
  return out.str();
}

std::string Reporter::json() const {
  std::ostringstream out;
  out << "{\"meta\":{\"bench\":" << json_string(meta_.bench)
      << ",\"seed\":" << meta_.seed << ",\"trials\":" << meta_.trials
      << ",\"threads\":" << meta_.threads
      << ",\"config\":" << json_string(config_hash())
      << ",\"wall_s\":" << fmt_fixed(wall_seconds_, 3);
  if (!host_.empty()) out << ",\"host\":" << host_;
  out << "},\"sections\":[";
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    if (s) out << ',';
    const auto& section = sections_[s];
    out << "{\"name\":" << json_string(section.name) << ",\"header\":[";
    for (std::size_t c = 0; c < section.header.size(); ++c) {
      if (c) out << ',';
      out << json_string(section.header[c]);
    }
    out << "],\"rows\":[";
    for (std::size_t r = 0; r < section.rows.size(); ++r) {
      if (r) out << ',';
      out << '[';
      for (std::size_t c = 0; c < section.rows[r].size(); ++c) {
        if (c) out << ',';
        out << json_string(section.rows[r][c]);
      }
      out << ']';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

void Reporter::write(const std::string& path) const {
  const bool as_json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string payload = as_json ? json() : csv();
  if (path == "-") {
    std::fwrite(payload.data(), 1, payload.size(), stdout);
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("Reporter: cannot open " + path);
  const std::size_t written = std::fwrite(payload.data(), 1, payload.size(), f);
  const int close_rc = std::fclose(f);
  if (written != payload.size() || close_rc != 0) {
    throw std::runtime_error("Reporter: short write to " + path);
  }
}

}  // namespace ndpcr::exec
