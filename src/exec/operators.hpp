// Distributed sparse operators over a localized graph.
//
// The paper's motivating applications are "iterative techniques for the
// finite element method"; the Figure-8 loop is the simplest of them. This
// header provides the general building block: a matrix-free symmetric
// operator A = shift·I + L (graph Laplacian, SPD for shift > 0) whose
// apply() is one ghost gather plus a local sweep — the same Phase-C pattern,
// reusable by any Krylov solver.
#pragma once

#include <span>
#include <vector>

#include "exec/gather_scatter.hpp"
#include "exec/irregular_loop.hpp"
#include "mp/process.hpp"
#include "sched/schedule.hpp"

namespace stance::exec {

class LaplacianOperator {
 public:
  /// A = shift*I + L where L is the Laplacian of the (localized) graph.
  /// shift > 0 makes A positive definite.
  LaplacianOperator(const sched::LocalizedGraph& lgraph,
                    const sched::CommSchedule& sched, double shift,
                    LoopCostModel loop_costs = LoopCostModel::free(),
                    sim::CpuCostModel cpu_costs = sim::CpuCostModel::free());

  /// Collective. y = A x for the owned rows. One gather per call.
  void apply(mp::Process& p, std::span<const double> x, std::span<double> y);

  [[nodiscard]] graph::Vertex nlocal() const noexcept { return lgraph_.nlocal; }
  [[nodiscard]] double shift() const noexcept { return shift_; }

  /// Sequential reference on the full graph, for tests.
  static void reference_apply(const graph::Csr& g, double shift,
                              std::span<const double> x, std::span<double> y);

 private:
  const sched::LocalizedGraph& lgraph_;
  const sched::CommSchedule& sched_;
  double shift_;
  LoopCostModel loop_costs_;
  sim::CpuCostModel cpu_costs_;
  double work_per_apply_ = 0.0;
  std::vector<double> ghost_;
  ExecWorkspace ws_;  ///< persistent pack/unpack buffers (zero-alloc apply)
};

}  // namespace stance::exec
