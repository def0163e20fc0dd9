// Edge-based sweep with scatter accumulation — the executor's *other*
// communication pattern.
//
// The Figure-8 loop is gather-based: fetch ghost values, compute locally.
// FEM assembly and flux solvers are the dual: each edge's contribution is
// computed once (by the owner of its lower endpoint) and *scattered* into
// both endpoints, off-processor ones via the schedule's scatter primitive
// (paper §3.3: "scatter is used to send off-processor elements").
//
//   for each edge (u, v):  flux = y[u] - y[v]
//   acc[u] -= flux; acc[v] += flux
//
// For an undirected graph this computes acc = -L·y, giving an exact
// sequential reference to test the scatter path against.
#pragma once

#include <span>
#include <vector>

#include "exec/gather_scatter.hpp"
#include "exec/irregular_loop.hpp"
#include "graph/csr.hpp"
#include "mp/process.hpp"
#include "sched/schedule.hpp"

namespace stance::exec {

class EdgeSweep {
 public:
  /// The sweep owns edges whose *lower-numbered endpoint* is local; the
  /// higher endpoint may be a ghost, in which case the contribution is
  /// scattered back to its owner.
  EdgeSweep(const sched::LocalizedGraph& lgraph, const sched::CommSchedule& sched,
            LoopCostModel loop_costs = LoopCostModel::free(),
            sim::CpuCostModel cpu_costs = sim::CpuCostModel::free());

  /// Collective. acc[i] = sum of signed fluxes into owned vertex i.
  /// `y` is the owned values (size nlocal); `acc` is overwritten.
  void sweep(mp::Process& p, std::span<const double> y, std::span<double> acc);

  /// Sequential reference over the full graph.
  static void reference_sweep(const graph::Csr& g, std::span<const double> y,
                              std::span<double> acc);

  /// Route both the gather and the scatter through a node-aware coalesce
  /// plan; nullptr returns to per-peer messages. Byte-identical results
  /// either way. The plan must have been built for this sweep's schedule (a
  /// plan kept across a remap is the stale-routing bug the fingerprint
  /// catches here).
  void set_coalesce_plan(const sched::CoalescePlan* plan) {
    STANCE_REQUIRE(plan == nullptr ||
                       plan->schedule_fingerprint == sched::coalesce_fingerprint(sched_),
                   "set_coalesce_plan: plan was built for a different schedule");
    plan_ = plan;
  }

 private:
  const sched::LocalizedGraph& lgraph_;
  const sched::CommSchedule& sched_;
  LoopCostModel loop_costs_;
  sim::CpuCostModel cpu_costs_;
  double work_per_sweep_ = 0.0;
  std::vector<int> ghost_home_;  ///< home rank per ghost slot
  std::vector<double> ghost_values_;
  std::vector<double> ghost_contrib_;
  ExecWorkspace ws_;  ///< persistent pack/unpack buffers (zero-alloc sweep)
  const sched::CoalescePlan* plan_ = nullptr;  ///< optional node-aware framing
};

}  // namespace stance::exec
