// Determinism oracles for the executors' pack path (exec::pack_indexed):
// every executor (gather/scatter, IrregularLoop, EdgeSweep, CG) must match
// its sequential reference.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exec/cg.hpp"
#include "exec/edge_sweep.hpp"
#include "exec/gather_scatter.hpp"
#include "exec/irregular_loop.hpp"
#include "exec/operators.hpp"
#include "graph/builders.hpp"
#include "mp/cluster.hpp"
#include "test_util.hpp"

namespace stance {
namespace {

/// This rank's slice of a global vector under `part`.
std::vector<double> local_slice(const partition::IntervalPartition& part, mp::Rank rank,
                                const std::vector<double>& global) {
  std::vector<double> out(static_cast<std::size_t>(part.size(rank)));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = global[static_cast<std::size_t>(
        part.to_global(rank, static_cast<graph::Vertex>(i)))];
  }
  return out;
}

TEST(SimdExec, GatherScatterMatchGlobalReference) {
  Rng rng(41);
  const graph::Csr g = graph::random_delaunay(3000, 41);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto results = test::build_all_schedules(g, part);
  const auto x = test::seeded_values(static_cast<std::size_t>(g.num_vertices()), 500);

  // Sequential reference: every ghost reads its owner's value, and each
  // owner adds the ghosts' contributions back in ascending source rank —
  // the combine order the executor guarantees.
  std::vector<double> expected = x;
  for (const auto& ir : results) {
    for (const auto global : ir.schedule.ghost_globals) {
      expected[static_cast<std::size_t>(global)] += x[static_cast<std::size_t>(global)];
    }
  }

  mp::Cluster cluster(sim::MachineSpec::uniform(results.size()));
  cluster.run([&](mp::Process& p) {
    const auto& s = results[static_cast<std::size_t>(p.rank())].schedule;
    std::vector<double> local = local_slice(part, p.rank(), x);
    std::vector<double> ghost(static_cast<std::size_t>(s.nghost), 0.0);
    exec::gather<double>(p, s, local, std::span<double>(ghost));
    for (std::size_t slot = 0; slot < ghost.size(); ++slot) {
      EXPECT_EQ(ghost[slot], x[static_cast<std::size_t>(s.ghost_globals[slot])])
          << "slot " << slot;
    }
    exec::scatter_add<double>(p, s, ghost, std::span<double>(local));
    test::expect_vectors_eq(local, local_slice(part, p.rank(), expected));
  });
}

TEST(SimdExec, IrregularLoopMatchesReferenceIterate) {
  Rng rng(42);
  const graph::Csr g = graph::random_delaunay(2000, 42);
  const auto part = test::random_partition(g.num_vertices(), 3, rng);
  const auto results = test::build_all_schedules(g, part);
  const auto y0 = test::seeded_values(static_cast<std::size_t>(g.num_vertices()), 600);
  std::vector<double> reference = y0;
  exec::IrregularLoop::reference_iterate(g, reference, 5);

  mp::Cluster cluster(sim::MachineSpec::uniform(results.size()));
  cluster.run([&](mp::Process& p) {
    const auto& ir = results[static_cast<std::size_t>(p.rank())];
    exec::IrregularLoop loop(ir.lgraph, ir.schedule);
    std::vector<double> y = local_slice(part, p.rank(), y0);
    loop.iterate(p, y, 5);
    test::expect_vectors_eq(y, local_slice(part, p.rank(), reference));  // bit-identical
  });
}

TEST(SimdExec, EdgeSweepMatchesReferenceSweep) {
  Rng rng(43);
  const graph::Csr g = graph::random_delaunay(2000, 43);
  const auto part = test::random_partition(g.num_vertices(), 3, rng);
  const auto results = test::build_all_schedules(g, part);
  const auto y = test::seeded_values(static_cast<std::size_t>(g.num_vertices()), 700);
  std::vector<double> reference(y.size());
  exec::EdgeSweep::reference_sweep(g, y, reference);

  mp::Cluster cluster(sim::MachineSpec::uniform(results.size()));
  cluster.run([&](mp::Process& p) {
    const auto& ir = results[static_cast<std::size_t>(p.rank())];
    exec::EdgeSweep sweep(ir.lgraph, ir.schedule);
    const std::vector<double> yl = local_slice(part, p.rank(), y);
    const std::vector<double> expected = local_slice(part, p.rank(), reference);
    std::vector<double> acc(yl.size(), 0.0);
    sweep.sweep(p, yl, acc);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      // The sweep adds fluxes in a different order than the reference.
      EXPECT_NEAR(acc[i], expected[i], 1e-12 * (1.0 + std::abs(expected[i]))) << "local " << i;
    }
  });
}

TEST(SimdExec, ConjugateGradientMatchesReferenceApply) {
  const auto g = graph::random_delaunay(800, 44);
  const auto part = partition::IntervalPartition::from_weights(
      g.num_vertices(), std::vector<double>{1, 2, 1});
  const auto results = test::build_all_schedules(g, part);
  const auto x_star = test::seeded_values(static_cast<std::size_t>(g.num_vertices()), 44);
  std::vector<double> b(x_star.size());
  exec::LaplacianOperator::reference_apply(g, 0.5, x_star, b);

  mp::Cluster cluster(sim::MachineSpec::uniform(results.size()));
  cluster.run([&](mp::Process& p) {
    const auto& ir = results[static_cast<std::size_t>(p.rank())];
    exec::LaplacianOperator A(ir.lgraph, ir.schedule, 0.5);
    // Every SpMV of the solve is this apply: exact against the reference.
    const std::vector<double> xl = local_slice(part, p.rank(), x_star);
    std::vector<double> ax(xl.size());
    A.apply(p, xl, ax);
    const std::vector<double> bl = local_slice(part, p.rank(), b);
    test::expect_vectors_eq(ax, bl);

    std::vector<double> x(xl.size(), 0.0);
    exec::CgOptions opts;
    opts.tolerance = 1e-10;
    const auto result = exec::conjugate_gradient(p, A, bl, x, opts);
    EXPECT_TRUE(result.converged);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], xl[i], 1e-6) << "local " << i;
    }
  });
}

}  // namespace
}  // namespace stance
