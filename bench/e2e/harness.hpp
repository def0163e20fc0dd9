// Op-sequence bookkeeping shared by stance_e2e's four workloads.
//
// Every workload is a closed loop on one client thread over a seeded,
// deterministic op sequence. OpLog decides when the loop stops and turns the
// recorded ops into the end-to-end metrics:
//
//   * the first ops (2% of the minimum) are checked by the oracles but not
//     timed;
//   * the loop runs until the timed window has lasted --seconds AND at least
//     the workload's minimum of ops were timed (>= 1000, so op_ms.p99 has
//     >= 10 samples beyond it);
//   * refs_per_s divides the timed ops' references by the window's elapsed
//     host time, so ops that overlap (a service round's jobs share one
//     drain) are not counted twice;
//   * virtual_s and efficiency average the warm-up plus minimum ops of the
//     sequence — a fixed prefix, so they do not depend on how many ops
//     the host managed to finish, and are bit-identical per seed wherever
//     the simulation itself is deterministic.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using HostClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< BENCHMARK.json's run_seconds
  std::string trace_path;  ///< empty: tracing off
  bool quick = false;      ///< developer smoke run: tiny op counts, no time budget

  /// Set-up repetitions whose median is setup_s.
  [[nodiscard]] int setup_reps(int full) const { return quick ? 1 : full; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double peak_rss_mb();

/// Per-layer values read from the library's public result structs
/// (CommStats, CheckOutcome, JobResult, ResilientResult), by metric name.
class Samples {
 public:
  void add(const std::string& name, double v) { m_[name].push_back(v); }
  [[nodiscard]] const std::vector<double>& get(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> m_;
};

class OpLog {
 public:
  /// `min_timed` ops at least are timed (20 under --quick); the first 2% of
  /// that many are warm-up.
  OpLog(const Options& opt, int min_timed);

  /// One completed op: host latency, simulated makespan, paper §4
  /// efficiency, directed references swept, and the oracle's verdict.
  void add(double host_s, double virt_s, double efficiency, double refs, bool correct);
  /// One attempted op that threw or was refused.
  void add_failure();
  /// An already-recorded op failed an oracle checked after the fact.
  void mark_wrong();

  /// Whether the next op is past warm-up (its latency will be used).
  [[nodiscard]] bool timed() const { return attempted_ >= warmup_; }
  [[nodiscard]] bool done() const;

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::size_t timed_ops() const { return latency_s_.size(); }
  [[nodiscard]] bool correct() const { return wrong_ == 0; }
  [[nodiscard]] bool enough() const {
    return latency_s_.size() >= static_cast<std::size_t>(min_timed_);
  }

  [[nodiscard]] std::vector<Metric> end_to_end(double setup_s) const;

 private:
  void count_attempt();

  std::uint64_t warmup_;
  std::uint64_t min_timed_;
  double budget_s_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_ = 0;
  HostClock::time_point window_start_{};  ///< end of the last warm-up op
  HostClock::time_point window_end_{};    ///< end of the last timed op
  std::vector<double> latency_s_;  ///< timed ops
  double refs_ = 0.0;              ///< timed ops
  std::vector<double> virt_s_;     ///< fixed prefix
  std::vector<double> eff_;        ///< fixed prefix
};

}  // namespace e2e
