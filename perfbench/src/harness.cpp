#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

Tail tail_of(const Samples& samples, double cap) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  for (double pct : kLadder) {
    if (pct > cap) continue;
    if (samples.size() >= samples_for_tail(pct)) {
      return {pct, samples.quantile(pct / 100.0)};
    }
  }
  return {50.0, samples.median()};
}

Probe::Scope::Scope(Probe& probe, std::string_view name,
                    std::string_view layer)
    : probe_(probe), name_(name), t0_(Clock::now()) {
  if (probe_.tracer_) span_ = probe_.tracer_->wall_span(name, layer);
}

double Probe::Scope::stop() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = seconds_since(t0_);
  span_.close();
  auto it = probe_.totals_.find(name_);
  if (it == probe_.totals_.end()) {
    it = probe_.totals_.emplace(std::string(name_), 0.0).first;
  }
  it->second += seconds_;
  return seconds_;
}

double Probe::total(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

std::map<std::string, double> layer_self_seconds(
    const ndpcr::obs::Tracer& tracer) {
  struct Interval {
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    const std::string* layer = nullptr;
  };
  // wall_span emits its begin/end pair when it closes, so children come
  // before their parents: rebuild the nesting from the timestamps.
  std::vector<Interval> spans;
  for (const auto& ev : tracer.events()) {
    if (ev.clock != ndpcr::obs::Clock::kWall) continue;
    if (ev.phase == ndpcr::obs::Phase::kBegin) {
      spans.push_back({ev.ts_us, ev.ts_us, &ev.cat});
    } else if (ev.phase == ndpcr::obs::Phase::kEnd && !spans.empty()) {
      spans.back().t1 = ev.ts_us;
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
            });
  std::map<std::string, double> self;
  std::vector<std::size_t> stack;
  std::vector<double> child(spans.size(), 0.0);
  const auto finish = [&](std::size_t i) {
    const double dur = static_cast<double>(spans[i].t1 - spans[i].t0) * 1e-6;
    self[*spans[i].layer] += std::max(0.0, dur - child[i]);
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Sorted by start, so the top contains span i unless i ends later.
    while (!stack.empty() && spans[stack.back()].t1 < spans[i].t1) {
      finish(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      child[stack.back()] +=
          static_cast<double>(spans[i].t1 - spans[i].t0) * 1e-6;
    }
    stack.push_back(i);
  }
  while (!stack.empty()) {
    finish(stack.back());
    stack.pop_back();
  }
  return self;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void check_exact(Result& result, const std::map<std::string, double>& unit) {
  if (result.exact.empty()) {
    result.exact = unit;
    return;
  }
  result.check(unit == result.exact,
               "exact counts differ between work units");
}

std::size_t samples_for_tail(double pct) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - pct / 100.0) - 1e-9));
}

std::uint64_t run_units(double seconds, const std::function<bool()>& enough,
                        const std::function<double()>& unit) {
  double measured = 0.0;
  std::uint64_t units = 0;
  while (measured < seconds || !enough()) {
    measured += unit();
    ++units;
  }
  return units;
}

}  // namespace perfbench
