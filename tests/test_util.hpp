// Shared test fixtures: seeded RNG graphs and partitions, cluster-wide
// schedule construction, and golden comparators. Suites include this instead
// of re-implementing per-file setup helpers.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/builders.hpp"
#include "graph/csr.hpp"
#include "mp/cluster.hpp"
#include "partition/interval.hpp"
#include "sched/inspector.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace stance::test {

/// Builds every rank's CommSchedule for `part` on a uniform simulated
/// cluster — the standard prologue of executor and scheduler suites.
inline std::vector<sched::InspectorResult> build_all_schedules(
    const graph::Csr& g, const partition::IntervalPartition& part,
    sched::BuildMethod method = sched::BuildMethod::kSort2) {
  mp::Cluster cluster(
      sim::MachineSpec::uniform(static_cast<std::size_t>(part.nparts())));
  std::vector<sched::InspectorResult> results(
      static_cast<std::size_t>(part.nparts()));
  cluster.run([&](mp::Process& p) {
    results[static_cast<std::size_t>(p.rank())] =
        sched::build_schedule(p, g, part, method, sim::CpuCostModel::free());
  });
  return results;
}

/// Interval partition of [0, n) into p randomly weighted blocks.
inline partition::IntervalPartition random_partition(graph::Vertex n,
                                                     std::size_t p, Rng& rng) {
  return partition::IntervalPartition::from_weights(n, random_weights(p, rng));
}

/// Deterministic seeded vector in [lo, hi) — golden inputs for kernels.
inline std::vector<double> seeded_values(std::size_t n, std::uint64_t seed,
                                         double lo = -1.0, double hi = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Golden comparator: exact element-wise equality with indexed diagnostics.
template <typename T>
void expect_vectors_eq(const std::vector<T>& actual,
                       const std::vector<T>& golden) {
  ASSERT_EQ(actual.size(), golden.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << "index " << i;
  }
}

/// Scoped override of one environment variable (unset for a null
/// `value`), restored on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace stance::test
