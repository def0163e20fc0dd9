// Session: top-level experiment driver tying all four phases together.
//
//   Session s(graph::paper_mesh(), cfg);       // Phase A inside: mesh is
//                                              // permuted by cfg.ordering
//   auto r = s.run_static(500);                // Phases B + C
//   s.cluster().set_profile(1, competing);     // make the environment adapt
//   auto a = s.run_adaptive(500, lb, true);    // Phases B + C + D
//
// Timing discipline: every run first executes Phase B on zeroed clocks,
// records its cost, zeroes the clocks again, and then times the loop phase —
// matching the paper, which reports schedule-construction time (Table 3)
// separately from loop time (Tables 4-5). The free functions below are that
// sequence: build_wave() is Phase B, sweep_wave() is Phase C, and Session,
// Service and the recovery driver all run their static jobs through them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/irregular_loop.hpp"
#include "graph/builders.hpp"
#include "graph/csr.hpp"
#include "lb/adaptive_executor.hpp"
#include "mp/cluster.hpp"
#include "order/ordering.hpp"
#include "sched/inspector.hpp"
#include "sim/machine.hpp"
#include "stance/plan_cache.hpp"

namespace stance {

struct SessionConfig {
  sim::MachineSpec machine = sim::MachineSpec::sun4_ethernet(5);
  order::Method ordering = order::Method::kSpectral;
  sched::BuildMethod build = sched::BuildMethod::kSort2;
  sim::CpuCostModel cpu = sim::CpuCostModel::sun4();
  exec::LoopCostModel loop = exec::LoopCostModel::sun4();
  std::uint64_t seed = 1996;
};

struct StaticRunResult {
  double build_seconds = 0.0;       ///< Phase B makespan
  double loop_seconds = 0.0;        ///< Phase C makespan (`iterations` sweeps)
  double efficiency = 0.0;          ///< paper §4 metric
  std::vector<double> finish_times; ///< per-rank loop-phase clocks
  mp::CommStats loop_stats;         ///< aggregated over ranks, loop phase
  double checksum = 0.0;            ///< sum of final y (cross-run determinism)
};

struct AdaptiveRunResult {
  double loop_seconds = 0.0;      ///< makespan incl. checks and remaps
  int checks = 0;
  int remaps = 0;
  double check_seconds = 0.0;     ///< max over ranks
  double remap_seconds = 0.0;     ///< max over ranks
  double build_seconds = 0.0;     ///< initial Phase B (excluded from loop_seconds)
  double checksum = 0.0;
};

class Session {
 public:
  /// Applies Phase A: permutes `mesh` by cfg.ordering and builds the cluster.
  Session(graph::Csr mesh, SessionConfig cfg);

  [[nodiscard]] const graph::Csr& mesh() const noexcept { return mesh_; }
  [[nodiscard]] mp::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] const SessionConfig& config() const noexcept { return cfg_; }

  /// Estimated time for node i to run the whole task alone (paper §4's
  /// T(pi)), derived from the loop cost model and node speed.
  [[nodiscard]] std::vector<double> sequential_times(int iterations) const;

  /// Static environment (paper Table 4): blocks proportional to node speeds.
  StaticRunResult run_static(int iterations);

  /// Static run with an explicit weight vector (for ablations).
  StaticRunResult run_static_weighted(int iterations, std::vector<double> weights);

  /// Adaptive environment (paper Table 5): equal initial decomposition; the
  /// cluster's load profiles drive the adaptation; LB per `lb`/`enable_lb`.
  AdaptiveRunResult run_adaptive(int iterations, lb::LbOptions lb, bool enable_lb);

  /// Max |y_parallel - y_reference| after `iterations` sweeps — the parallel
  /// execution is bit-compatible with the sequential reference, so this is 0.
  double verify_against_reference(int iterations);

  /// Deterministic initial value of element g (shared by parallel and
  /// reference runs).
  [[nodiscard]] static double initial_value(graph::Vertex g) noexcept {
    return 1.0 + static_cast<double>(g % 97) * 0.25;
  }

 private:
  SessionConfig cfg_;
  graph::Csr mesh_;  ///< permuted by cfg.ordering
  std::unique_ptr<mp::Cluster> cluster_;
};

/// Phase B on zeroed clocks: every rank's schedule for `part` of the
/// (already ordered) `mesh` and, when `coalesce` is set, its coalesce plan in
/// the same wave. cold_build_seconds holds the wave's makespan.
[[nodiscard]] CachedPlan build_wave(mp::Cluster& cluster, const graph::Csr& mesh,
                                    const partition::IntervalPartition& part,
                                    sched::BuildMethod build, const sim::CpuCostModel& cpu,
                                    const sched::CoalesceOptions* coalesce = nullptr);

/// Phase C on zeroed clocks: `iterations` sweeps, each rank updating its own
/// slice of the global vector `y` in place through `plan`'s schedule (and
/// its coalesce plan, when the product carries one). Returns the makespan;
/// the cluster's clocks and stats describe the wave afterwards.
double sweep_wave(mp::Cluster& cluster, const CachedPlan& plan,
                  const partition::IntervalPartition& part, const exec::LoopCostModel& loop,
                  const sim::CpuCostModel& cpu, int iterations, std::vector<double>& y);

/// Session::initial_value for every element 0..n-1.
[[nodiscard]] std::vector<double> initial_values(graph::Vertex n);

/// The job checksum of a global vector: each rank's slice summed on its own,
/// then the slice sums added in rank order.
[[nodiscard]] double rank_checksum(const std::vector<double>& y,
                                   const partition::IntervalPartition& part);

}  // namespace stance
