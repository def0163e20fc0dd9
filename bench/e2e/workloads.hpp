// The four workloads of stance_e2e and the per-layer metrics they feed.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

namespace e2e {

/// Ranks of every workload's cluster (one thread each).
inline constexpr int kRanks = 4;

struct WorkloadRun {
  OpLog log;
  double setup_s = 0.0;  ///< median over the set-up repetitions
  std::vector<std::pair<std::string, double>> input;  ///< input size, printed with the metrics
};

using WorkloadFn = WorkloadRun (*)(const Options&, Tracer&, Samples&);

/// Name -> workload, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::pair<std::string, WorkloadFn>>& workloads();

/// Every per-layer metric, in a fixed order, from the traced run's spans and
/// the samples read from result structs. A layer the workload bypasses
/// reports 0: nothing of it was measured.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const Tracer& tr, const Samples& s);

}  // namespace e2e
