#include "exec/irregular_loop.hpp"

#include <algorithm>

#include "support/assert.hpp"

// The sweep is byte-identical to reference_iterate() and its -0.0 pad slot
// is an additive identity only under IEEE semantics.
#if defined(__FAST_MATH__)
#error "irregular_loop.cpp must not be built with -ffast-math"
#endif

namespace stance::exec {

IrregularLoop::IrregularLoop(const sched::LocalizedGraph& lgraph,
                             const sched::CommSchedule& sched, LoopCostModel loop_costs,
                             sim::CpuCostModel cpu_costs)
    : lgraph_(&lgraph),
      sched_(&sched),
      loop_costs_(loop_costs),
      cpu_costs_(cpu_costs) {
  STANCE_REQUIRE(lgraph.nlocal == sched.nlocal && lgraph.nghost == sched.nghost,
                 "IrregularLoop: schedule and localized graph disagree");
  build_slices();
  recompute_work();
}

void IrregularLoop::rebind(const sched::LocalizedGraph& lgraph,
                           const sched::CommSchedule& sched) {
  STANCE_REQUIRE(lgraph.nlocal == sched.nlocal && lgraph.nghost == sched.nghost,
                 "rebind: schedule and localized graph disagree");
  lgraph_ = &lgraph;
  sched_ = &sched;
  // The installed plan was fingerprinted against the old schedule — stale by
  // definition; the caller installs the patched one via set_coalesce_plan().
  plan_ = nullptr;
  // Work multipliers were sized and indexed for the old ownership.
  vertex_work_.clear();
  build_slices();
  recompute_work();
}

void IrregularLoop::build_slices() {
  const auto nlocal = static_cast<std::size_t>(lgraph_->nlocal);
  const auto pad = nlocal + static_cast<std::size_t>(lgraph_->nghost);
  const std::size_t groups = (nlocal + 3) / 4;
  slice_width_.resize(groups);
  std::size_t padded = 0;
  for (std::size_t q = 0; q < groups; ++q) {
    std::size_t width = 0;
    for (std::size_t i = 4 * q; i < std::min(4 * q + 4, nlocal); ++i) {
      width = std::max(width, lgraph_->refs_of(static_cast<sched::Vertex>(i)).size());
    }
    slice_width_[q] = static_cast<std::uint32_t>(width);
    padded += 4 * width;
  }
  slice_refs_.assign(padded, static_cast<std::uint32_t>(pad));
  std::size_t base = 0;
  for (std::size_t q = 0; q < groups; ++q) {
    for (std::size_t j = 0; j < 4 && 4 * q + j < nlocal; ++j) {
      const auto refs = lgraph_->refs_of(static_cast<sched::Vertex>(4 * q + j));
      for (std::size_t k = 0; k < refs.size(); ++k) {
        slice_refs_[base + 4 * k + j] = static_cast<std::uint32_t>(refs[k]);
      }
    }
    base += 4 * static_cast<std::size_t>(slice_width_[q]);
  }
  yg_.resize(pad + 1);
  yg_[pad] = -0.0;
}

void IrregularLoop::set_vertex_work(std::vector<double> multipliers) {
  if (!multipliers.empty()) {
    STANCE_REQUIRE(multipliers.size() == static_cast<std::size_t>(lgraph_->nlocal),
                   "set_vertex_work: one multiplier per owned vertex required");
    for (const double m : multipliers) {
      STANCE_REQUIRE(m > 0.0, "set_vertex_work: multipliers must be positive");
    }
  }
  vertex_work_ = std::move(multipliers);
  recompute_work();
}

void IrregularLoop::recompute_work() {
  double vertex_units = static_cast<double>(lgraph_->nlocal);
  if (!vertex_work_.empty()) {
    vertex_units = 0.0;
    for (const double m : vertex_work_) vertex_units += m;
  }
  work_per_iter_ = loop_costs_.per_vertex * vertex_units +
                   loop_costs_.per_edge * static_cast<double>(lgraph_->refs.size());
}

void IrregularLoop::iterate(mp::Process& p, std::span<double> y, int iterations) {
  STANCE_REQUIRE(y.size() == static_cast<std::size_t>(lgraph_->nlocal),
                 "IrregularLoop: y size mismatch");
  STANCE_REQUIRE(iterations >= 0, "IrregularLoop: negative iteration count");
  const auto nlocal = static_cast<std::size_t>(lgraph_->nlocal);
  const auto& offsets = lgraph_->offsets;
  const std::span<double> ghosts(yg_.data() + nlocal,
                                 static_cast<std::size_t>(lgraph_->nghost));
  // Writes y[i] = sum / degree; degree-0 vertices keep their value.
  const auto store = [&](std::size_t i, double sum) {
    const auto deg = offsets[i + 1] - offsets[i];
    if (deg > 0) y[i] = sum / static_cast<double>(deg);
  };
  for (int it = 0; it < iterations; ++it) {
    if (plan_ != nullptr) {
      gather_coalesced<double>(p, *sched_, *plan_, y, ghosts, ws_, cpu_costs_,
                               kLoopGatherTag);
    } else {
      gather<double>(p, *sched_, y, ghosts, ws_, cpu_costs_, kLoopGatherTag);
    }
    std::copy(y.begin(), y.end(), yg_.begin());
    // Four independent chains, one per vertex of the group; each still adds
    // its refs in CSR order from 0.0, and padded lanes add -0.0 (identity).
    // Reads come from the yg_ snapshot, so y can be updated in place.
    const double* yg = yg_.data();
    const std::uint32_t* col = slice_refs_.data();
    for (std::size_t q = 0, i = 0; i < nlocal; ++q, i += 4) {
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (std::uint32_t k = slice_width_[q]; k > 0; --k, col += 4) {
        a0 += yg[col[0]];
        a1 += yg[col[1]];
        a2 += yg[col[2]];
        a3 += yg[col[3]];
      }
      store(i, a0);
      if (i + 1 < nlocal) store(i + 1, a1);
      if (i + 2 < nlocal) store(i + 2, a2);
      if (i + 3 < nlocal) store(i + 3, a3);
    }
    p.compute(work_per_iter_);
  }
}

void IrregularLoop::reference_iterate(const graph::Csr& g, std::vector<double>& y,
                                      int iterations) {
  const auto nv = static_cast<std::size_t>(g.num_vertices());
  STANCE_REQUIRE(y.size() == nv, "reference_iterate: y size mismatch");
  std::vector<double> t(nv);
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t v = 0; v < nv; ++v) {
      double acc = 0.0;
      for (const graph::Vertex u : g.neighbors(static_cast<graph::Vertex>(v))) {
        acc += y[static_cast<std::size_t>(u)];
      }
      t[v] = acc;
    }
    for (std::size_t v = 0; v < nv; ++v) {
      const auto deg = g.neighbors(static_cast<graph::Vertex>(v)).size();
      if (deg > 0) y[v] = t[v] / static_cast<double>(deg);
    }
  }
}

}  // namespace stance::exec
