#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace e2e {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

const std::vector<double>& Samples::get(const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = m_.find(name);
  return it == m_.end() ? kNone : it->second;
}

OpLog::OpLog(const Options& opt, int min_timed)
    : warmup_(opt.quick ? 1 : static_cast<std::uint64_t>(min_timed) / 50),
      min_timed_(opt.quick ? 20 : static_cast<std::uint64_t>(min_timed)),
      budget_s_(opt.quick ? 0.0 : opt.seconds) {}

void OpLog::count_attempt() {
  if (++attempted_ == warmup_) window_start_ = HostClock::now();
}

void OpLog::add(double host_s, double virt_s, double efficiency, double refs, bool correct) {
  const bool is_timed = timed();
  const bool in_prefix = attempted_ < warmup_ + min_timed_;
  count_attempt();
  if (!correct) {
    ++failed_;
    ++wrong_;
    return;
  }
  if (is_timed) {
    latency_s_.push_back(host_s);
    refs_ += refs;
    window_end_ = HostClock::now();
  }
  if (in_prefix) {
    virt_s_.push_back(virt_s);
    eff_.push_back(efficiency);
  }
}

void OpLog::add_failure() {
  count_attempt();
  ++failed_;
}

void OpLog::mark_wrong() {
  ++failed_;
  ++wrong_;
}

bool OpLog::done() const {
  // A workload that fails as many ops as it should time gives up: the run
  // then reports too few timed ops and exits non-zero.
  if (failed_ >= min_timed_) return true;
  return attempted_ >= warmup_ + min_timed_ && latency_s_.size() >= min_timed_ &&
         seconds_since(window_start_) >= budget_s_;
}

std::vector<Metric> OpLog::end_to_end(double setup_s) const {
  const double window_s = std::chrono::duration<double>(window_end_ - window_start_).count();
  return {
      {"setup_s", setup_s, "s"},
      {"op_ms.p50", percentile(latency_s_, 0.50) * 1e3, "ms"},
      {"op_ms.p99", percentile(latency_s_, 0.99) * 1e3, "ms"},
      {"refs_per_s", window_s > 0.0 ? refs_ / window_s : 0.0, "1/s"},
      {"virtual_s", mean(virt_s_), "s"},
      {"efficiency", mean(eff_), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

}  // namespace e2e
