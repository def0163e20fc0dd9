// Tests for the executor: gather, scatter, and the Figure-8 loop against the
// sequential reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "exec/gather_scatter.hpp"
#include "exec/irregular_loop.hpp"
#include "graph/builders.hpp"
#include "mp/cluster.hpp"
#include "sched/inspector.hpp"
#include "sim/machine.hpp"
#include "test_util.hpp"

namespace stance::exec {
namespace {

using graph::Csr;
using partition::IntervalPartition;
using test::build_all_schedules;

TEST(Gather, FetchesOffProcessorValues) {
  const Csr g = graph::grid_2d_tri(8, 6);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 1, 1});
  const auto schedules = build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(3));
  cluster.run([&](mp::Process& p) {
    const auto& ir = schedules[static_cast<std::size_t>(p.rank())];
    std::vector<double> local(static_cast<std::size_t>(ir.schedule.nlocal));
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = static_cast<double>(part.to_global(p.rank(), static_cast<graph::Vertex>(i)));
    }
    std::vector<double> ghost(static_cast<std::size_t>(ir.schedule.nghost), -1.0);
    gather<double>(p, ir.schedule, local, ghost);
    // Every ghost slot must hold exactly its global id.
    for (std::size_t slot = 0; slot < ghost.size(); ++slot) {
      EXPECT_DOUBLE_EQ(ghost[slot],
                       static_cast<double>(ir.schedule.ghost_globals[slot]));
    }
  });
}

TEST(Gather, SizeValidation) {
  const Csr g = graph::grid_2d_tri(4, 4);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 1});
  const auto schedules = build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(2));
  EXPECT_THROW(cluster.run([&](mp::Process& p) {
                 const auto& ir = schedules[static_cast<std::size_t>(p.rank())];
                 std::vector<double> local(1);  // wrong
                 std::vector<double> ghost(static_cast<std::size_t>(ir.schedule.nghost));
                 gather<double>(p, ir.schedule, local, ghost);
               }),
               std::invalid_argument);
}

TEST(Scatter, AddCombinesContributionsAtOwners) {
  const Csr g = graph::grid_2d_tri(8, 6);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 1, 1});
  const auto schedules = build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(3));
  cluster.run([&](mp::Process& p) {
    const auto& ir = schedules[static_cast<std::size_t>(p.rank())];
    // Each rank contributes +global for every ghost it references.
    std::vector<double> ghost(static_cast<std::size_t>(ir.schedule.nghost));
    for (std::size_t slot = 0; slot < ghost.size(); ++slot) {
      ghost[slot] = static_cast<double>(ir.schedule.ghost_globals[slot]);
    }
    std::vector<double> local(static_cast<std::size_t>(ir.schedule.nlocal), 0.0);
    scatter_add<double>(p, ir.schedule, ghost, local);
    // Owned element g receives g for each *other rank* that references it.
    for (std::size_t i = 0; i < local.size(); ++i) {
      const auto global = part.to_global(p.rank(), static_cast<graph::Vertex>(i));
      int outside_referencers = 0;
      for (int r = 0; r < part.nparts(); ++r) {
        if (r == p.rank()) continue;
        const auto& gg = schedules[static_cast<std::size_t>(r)].schedule.ghost_globals;
        outside_referencers +=
            std::count(gg.begin(), gg.end(), global) > 0 ? 1 : 0;
      }
      EXPECT_DOUBLE_EQ(local[i],
                       static_cast<double>(global) * outside_referencers);
    }
  });
}

TEST(Scatter, CustomCombineMax) {
  const Csr g = graph::grid_2d_tri(6, 4);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 1});
  const auto schedules = build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(2));
  cluster.run([&](mp::Process& p) {
    const auto& ir = schedules[static_cast<std::size_t>(p.rank())];
    std::vector<double> ghost(static_cast<std::size_t>(ir.schedule.nghost), 100.0);
    std::vector<double> local(static_cast<std::size_t>(ir.schedule.nlocal), 1.0);
    scatter<double>(p, ir.schedule, ghost, local,
                    [](double a, double b) { return std::max(a, b); });
    for (std::size_t i = 0; i < local.size(); ++i) {
      EXPECT_TRUE(local[i] == 1.0 || local[i] == 100.0);
    }
  });
}

// --- the Figure-8 loop -------------------------------------------------------

double run_parallel_loop(const Csr& g, const std::vector<double>& weights, int iters,
                         std::vector<double>& out) {
  const auto part = IntervalPartition::from_weights(g.num_vertices(), weights);
  const auto schedules = build_all_schedules(g, part);
  const auto nprocs = weights.size();
  mp::Cluster cluster(sim::MachineSpec::uniform(nprocs));
  std::vector<std::vector<double>> per_rank(nprocs);
  cluster.run([&](mp::Process& p) {
    const auto& ir = schedules[static_cast<std::size_t>(p.rank())];
    IrregularLoop loop(ir.lgraph, ir.schedule);
    std::vector<double> y(static_cast<std::size_t>(ir.schedule.nlocal));
    for (std::size_t i = 0; i < y.size(); ++i) {
      const auto global = part.to_global(p.rank(), static_cast<graph::Vertex>(i));
      y[i] = std::sin(static_cast<double>(global)) + 2.0;
    }
    loop.iterate(p, y, iters);
    per_rank[static_cast<std::size_t>(p.rank())] = std::move(y);
  });
  out.assign(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (int r = 0; r < static_cast<int>(nprocs); ++r) {
    for (graph::Vertex i = 0; i < part.size(r); ++i) {
      out[static_cast<std::size_t>(part.to_global(r, i))] =
          per_rank[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
    }
  }
  return cluster.makespan();
}

std::vector<double> run_reference_loop(const Csr& g, int iters) {
  std::vector<double> y(static_cast<std::size_t>(g.num_vertices()));
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    y[static_cast<std::size_t>(v)] = std::sin(static_cast<double>(v)) + 2.0;
  }
  IrregularLoop::reference_iterate(g, y, iters);
  return y;
}

class LoopVsReference
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (procs, iters)

TEST_P(LoopVsReference, BitIdenticalToSequential) {
  const auto [procs, iters] = GetParam();
  const Csr g = graph::random_delaunay(500, 77);
  std::vector<double> parallel;
  run_parallel_loop(g, std::vector<double>(static_cast<std::size_t>(procs), 1.0), iters,
                    parallel);
  const auto reference = run_reference_loop(g, iters);
  test::expect_vectors_eq(parallel, reference);  // bit-identical
}

INSTANTIATE_TEST_SUITE_P(ProcsAndIters, LoopVsReference,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 7, 25)));

TEST(LoopVsReferenceSkewed, UnevenWeightsStillExact) {
  const Csr g = graph::random_delaunay(400, 13);
  std::vector<double> parallel;
  run_parallel_loop(g, {0.55, 0.05, 0.25, 0.15}, 10, parallel);
  const auto reference = run_reference_loop(g, 10);
  test::expect_vectors_eq(parallel, reference);
}

// --- randomized bit-identity of the sliced sweep kernel ---------------------

/// Four ranks whose owned counts cover every nlocal % 4 residue.
std::vector<graph::Vertex> residue_sizes(Rng& rng) {
  std::vector<graph::Vertex> sizes(4);
  for (std::size_t r = 0; r < 4; ++r) {
    sizes[r] = static_cast<graph::Vertex>(4 * rng.range(6, 12)) +
               static_cast<graph::Vertex>(r);
  }
  return sizes;
}

/// Seeded random graph over `part`'s vertices with the kernel's edge cases:
/// short-range random edges, a hub of degree >= 40 on rank 1, rank 0's first
/// vertex referencing only rank 3's vertices (all refs ghosts), and a few
/// isolated (degree-0) vertices on rank 2.
Csr sweep_edge_case_graph(const IntervalPartition& part, Rng& rng) {
  const graph::Vertex n = part.first(3) + part.size(3);
  const graph::Vertex all_ghost = 0;
  const graph::Vertex hub = part.first(1) + 1;
  std::vector<bool> isolated(static_cast<std::size_t>(n), false);
  for (int i = 0; i < 3; ++i) {
    isolated[static_cast<std::size_t>(rng.range(part.first(2), part.first(3) - 1))] = true;
  }
  const auto usable = [&](graph::Vertex v) {
    return v != all_ghost && !isolated[static_cast<std::size_t>(v)];
  };
  std::vector<graph::Edge> edges;
  for (graph::Vertex v = 0; v < n; ++v) {
    for (std::int64_t e = rng.range(0, 4); e > 0; --e) {
      const auto u = static_cast<graph::Vertex>(v + rng.range(1, 9));
      if (u < n && usable(v) && usable(u)) edges.emplace_back(v, u);
    }
  }
  for (int e = 0; e < 5; ++e) {
    edges.emplace_back(all_ghost,
                       static_cast<graph::Vertex>(rng.range(part.first(3), n - 1)));
  }
  std::vector<bool> spoke(static_cast<std::size_t>(n), false);
  for (int spokes = 0; spokes < 45;) {
    const auto u = static_cast<graph::Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == hub || !usable(u) || spoke[static_cast<std::size_t>(u)]) continue;
    spoke[static_cast<std::size_t>(u)] = true;
    edges.emplace_back(hub, u);
    ++spokes;
  }
  Csr g = Csr::from_edges(n, edges);
  EXPECT_GE(g.degree(hub), 40);
  return g;
}

/// Owned values drawn from ordinary numbers and IEEE edge values: signed
/// zeros, infinities, quiet NaN and subnormals.
std::vector<double> edge_case_values(std::size_t n, Rng& rng) {
  const double specials[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             -3.0 * std::numeric_limits<double>::denorm_min(),
                             1e-310};
  std::vector<double> y(n);
  for (auto& v : y) {
    v = rng.below(8) == 0 ? specials[rng.below(std::size(specials))]
                          : rng.uniform(-4.0, 4.0);
  }
  return y;
}

TEST(IrregularLoopRandomized, ByteIdenticalToReferenceAcrossRebind) {
  constexpr int kIters = 3;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    auto sizes = residue_sizes(rng);
    const auto part = IntervalPartition::from_sizes(sizes);
    const Csr g = sweep_edge_case_graph(part, rng);
    std::rotate(sizes.begin(), sizes.begin() + 1, sizes.end());
    const auto rebound_part = IntervalPartition::from_sizes(sizes);
    const auto schedules = build_all_schedules(g, part);
    const auto rebound_schedules = build_all_schedules(g, rebound_part);
    const auto& lg0 = schedules[0].lgraph;
    ASSERT_GE(lg0.refs_of(0).size(), 1u);
    for (const sched::Vertex r : lg0.refs_of(0)) ASSERT_GE(r, lg0.nlocal);
    graph::Vertex isolated = 0;
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v) isolated += g.degree(v) == 0;
    ASSERT_GE(isolated, 1);

    mp::Cluster cluster(sim::MachineSpec::uniform(4));
    std::vector<std::unique_ptr<IrregularLoop>> loops(4);
    for (std::size_t r = 0; r < 4; ++r) {
      loops[r] = std::make_unique<IrregularLoop>(schedules[r].lgraph, schedules[r].schedule);
    }
    // One pass on the current binding: distribute `y0`, sweep, collect, and
    // memcmp against the sequential reference.
    const auto check = [&](const IntervalPartition& p_of, const char* phase) {
      const auto y0 = edge_case_values(static_cast<std::size_t>(g.num_vertices()), rng);
      std::vector<double> out(y0.size());
      cluster.run([&](mp::Process& p) {
        const auto r = static_cast<std::size_t>(p.rank());
        std::vector<double> y(static_cast<std::size_t>(p_of.size(p.rank())));
        for (std::size_t i = 0; i < y.size(); ++i) {
          y[i] = y0[static_cast<std::size_t>(
              p_of.to_global(p.rank(), static_cast<graph::Vertex>(i)))];
        }
        loops[r]->iterate(p, y, kIters);
        for (std::size_t i = 0; i < y.size(); ++i) {
          out[static_cast<std::size_t>(
              p_of.to_global(p.rank(), static_cast<graph::Vertex>(i)))] = y[i];
        }
      });
      auto reference = y0;
      IrregularLoop::reference_iterate(g, reference, kIters);
      for (std::size_t v = 0; v < out.size(); ++v) {
        ASSERT_EQ(std::memcmp(&out[v], &reference[v], sizeof(double)), 0)
            << phase << " seed " << seed << " vertex " << v << ": " << out[v]
            << " vs " << reference[v];
      }
    };
    check(part, "fresh");
    for (std::size_t r = 0; r < 4; ++r) {
      loops[r]->rebind(rebound_schedules[r].lgraph, rebound_schedules[r].schedule);
    }
    check(rebound_part, "rebound");
  }
}

TEST(IrregularLoop, ValuesStayBoundedByConvexity) {
  // Each update is an average of neighbors: the range can only shrink.
  const Csr g = graph::random_delaunay(300, 3);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<double>(i % 13);
  IrregularLoop::reference_iterate(g, y, 50);
  for (const double v : y) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 12.0);
  }
}

TEST(IrregularLoop, WorkPerIterationMatchesCostModel) {
  const Csr g = graph::grid_2d_tri(10, 10);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1.0});
  const auto schedules = build_all_schedules(g, part);
  LoopCostModel costs{2.0e-6, 1.0e-6};
  IrregularLoop loop(schedules[0].lgraph, schedules[0].schedule, costs);
  const double expected = 2.0e-6 * 100.0 + 1.0e-6 * 2.0 * static_cast<double>(g.num_edges());
  EXPECT_NEAR(loop.work_per_iteration(), expected, 1e-15);
}

TEST(IrregularLoop, ChargesVirtualTime) {
  const Csr g = graph::grid_2d_tri(10, 10);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1.0});
  const auto schedules = build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(1));
  cluster.run([&](mp::Process& p) {
    IrregularLoop loop(schedules[0].lgraph, schedules[0].schedule,
                       LoopCostModel{1e-5, 1e-5});
    std::vector<double> y(100, 1.0);
    loop.iterate(p, y, 10);
    EXPECT_NEAR(p.now(), 10.0 * loop.work_per_iteration(), 1e-12);
  });
}

TEST(IrregularLoop, MismatchedScheduleRejected) {
  const Csr g = graph::grid_2d_tri(6, 6);
  // Asymmetric split so the two ranks' local sizes genuinely differ.
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 2});
  const auto schedules = build_all_schedules(g, part);
  ASSERT_NE(schedules[0].lgraph.nlocal, schedules[1].schedule.nlocal);
  EXPECT_THROW(IrregularLoop(schedules[0].lgraph, schedules[1].schedule),
               std::invalid_argument);
}

}  // namespace
}  // namespace stance::exec
