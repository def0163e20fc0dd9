// The paper's Figure-8 irregular loop — the kernel of all its experiments:
//
//   for each vertex i:   t[i] = sum over neighbors k of y[ia(k)]
//   for each vertex i:   y[i] = t[i] / degree(i)
//
// (a Jacobi-style smoothing sweep over the unstructured mesh). Each parallel
// iteration gathers the ghost values of y, computes t from owned + ghost
// values, and replaces y. The arithmetic is performed for real — results are
// bit-comparable with reference_iterate() — while the virtual clock is
// charged per vertex and per reference through LoopCostModel.
//
// Sweep kernel: a vertex's sum is a serial add chain (its order is part of
// the byte-identity contract), so the loop is latency-bound. The executor
// runs four vertices' chains side by side over a sliced copy of the
// references (sliced ELLPACK, SELL-4-1, after Kreutzer et al. 2014): refs are
// grouped four vertices at a time, stored column-major within a group
// (entry k of vertex 4q+j at base_q + 4k + j), and each group is padded to
// its widest vertex with the index of a pad slot holding -0.0. Owned values,
// ghosts and the pad live in one buffer, so the kernel needs no ghost/local
// branch and no lane masks: x + (-0.0) == x bit for bit for every x
// (including ±0, ±inf and NaN) — in the default round-to-nearest mode only.
// Under FE_DOWNWARD, +0.0 + -0.0 is -0.0, so the sweep must not run with a
// non-default rounding mode.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/gather_scatter.hpp"
#include "graph/csr.hpp"
#include "mp/process.hpp"
#include "sched/schedule.hpp"

namespace stance::exec {

struct LoopCostModel {
  double per_vertex = 0.0;  ///< seconds per owned vertex per iteration
  double per_edge = 0.0;    ///< seconds per (directed) reference per iteration

  static LoopCostModel free() { return LoopCostModel{}; }

  friend bool operator==(const LoopCostModel&, const LoopCostModel&) = default;

  /// Calibrated so one iteration of the paper-scale mesh costs ~0.19 s on a
  /// speed-1.0 node (T(1) ≈ 97 s for 500 iterations, paper Table 4).
  static LoopCostModel sun4() { return LoopCostModel{1.0e-6, 0.9e-6}; }
};

class IrregularLoop {
 public:
  IrregularLoop(const sched::LocalizedGraph& lgraph, const sched::CommSchedule& sched,
                LoopCostModel loop_costs = LoopCostModel::free(),
                sim::CpuCostModel cpu_costs = sim::CpuCostModel::free());

  /// Collective. Run `iterations` Jacobi sweeps updating the owned values
  /// `y` (size nlocal) in place.
  void iterate(mp::Process& p, std::span<double> y, int iterations = 1);

  /// Per-vertex work multipliers for adaptive *applications* (paper
  /// footnote 1: "the computational structure adapts after every few
  /// iterations"): owned vertex i costs multipliers[i] * per_vertex instead
  /// of per_vertex. Multipliers must be positive and sized nlocal; pass an
  /// empty vector to return to uniform work.
  void set_vertex_work(std::vector<double> multipliers);
  [[nodiscard]] const std::vector<double>& vertex_work() const noexcept {
    return vertex_work_;
  }

  /// Work charged per iteration, excluding communication (used by the load
  /// monitor: compute seconds = work / effective speed).
  [[nodiscard]] double work_per_iteration() const noexcept { return work_per_iter_; }

  /// Route the ghost exchange through a node-aware coalesce plan
  /// (sched/coalesce.hpp); nullptr routes per-peer messages. The plan must
  /// outlive this executor and belong to its schedule (enforced via the
  /// plan's fingerprint — installing a pre-remap plan on a post-remap loop
  /// is the stale-routing bug). Results are byte-identical either way.
  void set_coalesce_plan(const sched::CoalescePlan* plan) {
    STANCE_REQUIRE(plan == nullptr || plan->schedule_fingerprint ==
                                          sched::coalesce_fingerprint(*sched_),
                   "set_coalesce_plan: plan was built for a different schedule");
    plan_ = plan;
  }

  /// Repoint this executor at a patched schedule (sched/rebuild_incremental)
  /// without tearing down the warmed workspace — the delta pipeline's
  /// executor step. Drops the installed coalesce plan (stale by definition;
  /// install the patched one with set_coalesce_plan()) and the per-vertex
  /// work multipliers (sized for the old ownership), and rebuilds the sliced
  /// refs and the value buffer. The workspace keeps its prewarm memo, so the
  /// next iterate re-provisions only what the new schedule grew.
  void rebind(const sched::LocalizedGraph& lgraph, const sched::CommSchedule& sched);

  [[nodiscard]] const sched::LocalizedGraph& lgraph() const noexcept { return *lgraph_; }
  [[nodiscard]] const sched::CommSchedule& schedule() const noexcept { return *sched_; }

  /// Sequential reference on the full (permuted) graph, for correctness
  /// checks: same update, same order of additions per vertex.
  static void reference_iterate(const graph::Csr& g, std::vector<double>& y,
                                int iterations = 1);

 private:
  const sched::LocalizedGraph* lgraph_;  ///< non-owning; rebind() repoints
  const sched::CommSchedule* sched_;     ///< non-owning; rebind() repoints
  LoopCostModel loop_costs_;
  sim::CpuCostModel cpu_costs_;
  double work_per_iter_ = 0.0;
  std::vector<double> vertex_work_;  ///< empty = uniform
  /// Sliced refs: groups of four vertices, column-major, padded to the
  /// group's widest vertex with the pad index nlocal + nghost.
  std::vector<std::uint32_t> slice_refs_;
  std::vector<std::uint32_t> slice_width_;  ///< per group: padded width
  /// Sweep values: owned y snapshot [0, nlocal), ghosts [nlocal,
  /// nlocal + nghost), then the -0.0 pad slot.
  std::vector<double> yg_;
  ExecWorkspace ws_;  ///< persistent pack/unpack buffers (zero-alloc iterate)
  const sched::CoalescePlan* plan_ = nullptr;  ///< optional node-aware framing

  void recompute_work();
  void build_slices();  ///< slice_refs_/slice_width_/yg_ from *lgraph_
};

}  // namespace stance::exec
