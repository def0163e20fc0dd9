// Tests for Phase D: load monitor, controller decision logic, the SPMD
// check protocol, and the full adaptive executor.
#include <gtest/gtest.h>

#include "graph/builders.hpp"
#include "lb/adaptive_executor.hpp"
#include "lb/controller.hpp"
#include "lb/load_monitor.hpp"
#include "mp/cluster.hpp"
#include "sim/machine.hpp"

namespace stance::lb {
namespace {

using partition::IntervalPartition;

// --- LoadMonitor --------------------------------------------------------------

TEST(LoadMonitor, TimePerItem) {
  LoadMonitor m;
  m.record(2.0, 100);
  EXPECT_DOUBLE_EQ(m.time_per_item(), 0.02);
  EXPECT_DOUBLE_EQ(m.capability(), 50.0);
  m.record(2.0, 300);
  EXPECT_DOUBLE_EQ(m.time_per_item(), 0.01);
  EXPECT_EQ(m.phases(), 2);
}

TEST(LoadMonitor, EmptyIsZero) {
  LoadMonitor m;
  EXPECT_DOUBLE_EQ(m.time_per_item(), 0.0);
  EXPECT_DOUBLE_EQ(m.capability(), 0.0);
}

TEST(LoadMonitor, ResetClearsWindow) {
  LoadMonitor m;
  m.record(5.0, 10);
  m.reset();
  EXPECT_DOUBLE_EQ(m.time_per_item(), 0.0);
  EXPECT_EQ(m.items_processed(), 0);
}

TEST(LoadMonitor, RejectsNegative) {
  LoadMonitor m;
  EXPECT_THROW(m.record(-1.0, 5), std::invalid_argument);
  EXPECT_THROW(m.record(1.0, -5), std::invalid_argument);
}

// --- decide() ------------------------------------------------------------------

LbOptions cheap_remap_options() {
  LbOptions o;
  o.check_interval = 10;
  o.objective = partition::ArrangementObjective::overlap_only();
  // overlap_only objective gives per-element cost 1s — make remap cheap so
  // profitability hinges on the predicted gain.
  o.objective.per_element = 1e-6;
  o.rebuild_cost_estimate = 0.0;
  return o;
}

TEST(Decide, BalancedLoadNoRemap) {
  const auto part = IntervalPartition::from_weights(100, std::vector<double>{1, 1});
  const std::vector<double> tpi{0.01, 0.01};
  const auto d = decide(part, tpi, cheap_remap_options());
  EXPECT_FALSE(d.remap);
}

TEST(Decide, SkewedLoadTriggersRemap) {
  // Equal decomposition but processor 0 is 3x slower (the paper's adaptive
  // experiment after the competing load arrives).
  const auto part = IntervalPartition::from_weights(1000, std::vector<double>{1, 1});
  const std::vector<double> tpi{0.03, 0.01};
  const auto d = decide(part, tpi, cheap_remap_options());
  ASSERT_TRUE(d.remap);
  // Capability-proportional: proc 0 gets ~1/4, proc 1 ~3/4.
  EXPECT_EQ(d.new_partition.size(0), 250);
  EXPECT_EQ(d.new_partition.size(1), 750);
  EXPECT_LT(d.predicted_new, d.predicted_current);
}

TEST(Decide, ExpensiveRemapRejected) {
  const auto part = IntervalPartition::from_weights(1000, std::vector<double>{1, 1});
  const std::vector<double> tpi{0.03, 0.01};
  auto opts = cheap_remap_options();
  opts.rebuild_cost_estimate = 1e9;  // remap can never pay off
  const auto d = decide(part, tpi, opts);
  EXPECT_FALSE(d.remap);
  EXPECT_GT(d.remap_cost, 1e8);
}

TEST(Decide, ProfitabilityFactorScalesThreshold) {
  const auto part = IntervalPartition::from_weights(1000, std::vector<double>{1, 1});
  const std::vector<double> tpi{0.012, 0.01};  // mild skew
  auto opts = cheap_remap_options();
  opts.objective.per_element = 1e-4;
  opts.profitability_factor = 1.0;
  const bool base = decide(part, tpi, opts).remap;
  opts.profitability_factor = 1e6;
  EXPECT_FALSE(decide(part, tpi, opts).remap);
  (void)base;  // base may be either way; the strict factor must refuse
}

TEST(Decide, UnknownLoadsFallBackToMean) {
  const auto part = IntervalPartition::from_weights(900, std::vector<double>{1, 1, 1});
  const std::vector<double> tpi{0.03, 0.0, 0.01};  // middle rank had no items
  const auto d = decide(part, tpi, cheap_remap_options());
  ASSERT_TRUE(d.remap);
  // Middle rank treated as tpi = 0.02: capabilities 1/3 : 1/2 : 1.
  EXPECT_GT(d.new_partition.size(2), d.new_partition.size(1));
  EXPECT_GT(d.new_partition.size(1), d.new_partition.size(0));
}

TEST(Decide, AllUnknownKeepsPartition) {
  const auto part = IntervalPartition::from_weights(100, std::vector<double>{1, 1});
  const std::vector<double> tpi{0.0, 0.0};
  EXPECT_FALSE(decide(part, tpi, cheap_remap_options()).remap);
}

TEST(Decide, MeasurementCountValidated) {
  const auto part = IntervalPartition::from_weights(100, std::vector<double>{1, 1});
  const std::vector<double> tpi{0.01};
  EXPECT_THROW((void)decide(part, tpi, cheap_remap_options()), std::invalid_argument);
}

// --- SPMD check protocol --------------------------------------------------------

TEST(LoadBalanceCheck, AllRanksGetTheSameDecision) {
  const auto part = IntervalPartition::from_weights(1200, std::vector<double>{1, 1, 1});
  mp::Cluster cluster(sim::MachineSpec::uniform(3));
  std::vector<LbDecision> decisions(3);
  cluster.run([&](mp::Process& p) {
    const double tpi = p.rank() == 0 ? 0.03 : 0.01;  // rank 0 is loaded
    decisions[static_cast<std::size_t>(p.rank())] =
        load_balance_check(p, part, tpi, cheap_remap_options());
  });
  ASSERT_TRUE(decisions[0].remap);
  for (int r = 1; r < 3; ++r) {
    EXPECT_EQ(decisions[0].remap, decisions[static_cast<std::size_t>(r)].remap);
    EXPECT_TRUE(decisions[0].new_partition ==
                decisions[static_cast<std::size_t>(r)].new_partition);
    EXPECT_DOUBLE_EQ(decisions[0].remap_cost,
                     decisions[static_cast<std::size_t>(r)].remap_cost);
  }
}

TEST(LoadBalanceCheck, MulticastBroadcastWorks) {
  const auto part = IntervalPartition::from_weights(400, std::vector<double>(4, 1.0));
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(4, /*multicast=*/true));
  auto opts = cheap_remap_options();
  opts.use_multicast = true;
  std::vector<LbDecision> decisions(4);
  cluster.run([&](mp::Process& p) {
    decisions[static_cast<std::size_t>(p.rank())] =
        load_balance_check(p, part, 0.01 * (1 + p.rank()), opts);
  });
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(decisions[0].remap, decisions[static_cast<std::size_t>(r)].remap);
  }
  // Controller sent p-1 load... received p-1 loads and ONE multicast.
  EXPECT_EQ(cluster.last_stats()[0].multicasts, 1u);
}

TEST(LoadBalanceCheck, CheckCostIsSmall) {
  // The paper's Table 5: the check is an order of magnitude cheaper than a
  // remap. Here: the check is latency-bound, well under 50 ms on Ethernet.
  const auto part = IntervalPartition::from_weights(1000, std::vector<double>(5, 1.0));
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(5));
  cluster.run([&](mp::Process& p) {
    (void)load_balance_check(p, part, 0.01, cheap_remap_options());
  });
  EXPECT_LT(cluster.makespan(), 0.05);
  EXPECT_GT(cluster.makespan(), 0.0);
}

// --- AdaptiveExecutor ------------------------------------------------------------

AdaptiveOptions adaptive_opts(bool enable_lb) {
  AdaptiveOptions o;
  o.lb = cheap_remap_options();
  o.lb.objective =
      partition::ArrangementObjective::from_network(sim::NetworkModel::ethernet_10mbps(),
                                                    sizeof(double));
  o.cpu = sim::CpuCostModel::sun4();
  o.loop = exec::LoopCostModel{2e-6, 2e-6};
  o.enable_lb = enable_lb;
  return o;
}

TEST(AdaptiveExecutor, NoLoadMeansNoRemap) {
  const auto g = graph::random_delaunay(800, 5);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 1, 1});
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(3));
  std::vector<AdaptiveReport> reports(3);
  cluster.run([&](mp::Process& p) {
    AdaptiveExecutor ax(p, g, part, adaptive_opts(true));
    std::vector<double> y(static_cast<std::size_t>(ax.partition().size(p.rank())), 1.0);
    reports[static_cast<std::size_t>(p.rank())] = ax.run(p, y, 50);
  });
  EXPECT_EQ(reports[0].remaps, 0);
  EXPECT_GT(reports[0].checks, 0);
  EXPECT_EQ(reports[0].iterations, 50);
}

TEST(AdaptiveExecutor, CompetingLoadTriggersRemapAndHelps) {
  const auto g = graph::random_delaunay(3000, 7);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 1, 1});

  auto run = [&](bool enable_lb) {
    mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(3));
    cluster.set_profile(0, sim::LoadProfile::competing_jobs(2));  // 1/3 speed
    std::vector<AdaptiveReport> reports(3);
    cluster.run([&](mp::Process& p) {
      AdaptiveExecutor ax(p, g, part, adaptive_opts(enable_lb));
      std::vector<double> y(static_cast<std::size_t>(ax.partition().size(p.rank())), 1.0);
      reports[static_cast<std::size_t>(p.rank())] = ax.run(p, y, 100);
    });
    return std::make_pair(cluster.makespan(), reports[0]);
  };

  const auto [t_without, rep_without] = run(false);
  const auto [t_with, rep_with] = run(true);
  EXPECT_EQ(rep_without.remaps, 0);
  EXPECT_GE(rep_with.remaps, 1);
  EXPECT_LT(t_with, t_without);  // load balancing must pay off
  // With a 3x slowdown on 1/3 of the data, LB should recover a large chunk.
  EXPECT_LT(t_with, 0.75 * t_without);
}

TEST(AdaptiveExecutor, RemapPreservesValuesExactly) {
  // After remaps, the final y must still equal the sequential reference.
  const auto g = graph::random_delaunay(600, 11);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 1});
  constexpr int kIters = 40;
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(2));
  cluster.set_profile(1, sim::LoadProfile::competing_jobs(3));
  std::vector<std::vector<double>> finals(2);
  std::vector<IntervalPartition> final_parts(2);
  std::vector<AdaptiveReport> reports(2);
  cluster.run([&](mp::Process& p) {
    AdaptiveExecutor ax(p, g, part, adaptive_opts(true));
    std::vector<double> y(static_cast<std::size_t>(ax.partition().size(p.rank())));
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = 1.0 + static_cast<double>(
                       ax.partition().to_global(p.rank(), static_cast<graph::Vertex>(i)) %
                       7);
    }
    reports[static_cast<std::size_t>(p.rank())] = ax.run(p, y, kIters);
    finals[static_cast<std::size_t>(p.rank())] = std::move(y);
    final_parts[static_cast<std::size_t>(p.rank())] = ax.partition();
  });
  ASSERT_GE(reports[0].remaps, 1) << "test needs at least one remap to be meaningful";
  EXPECT_TRUE(final_parts[0] == final_parts[1]);

  std::vector<double> reference(static_cast<std::size_t>(g.num_vertices()));
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    reference[static_cast<std::size_t>(v)] = 1.0 + static_cast<double>(v % 7);
  }
  exec::IrregularLoop::reference_iterate(g, reference, kIters);
  for (int r = 0; r < 2; ++r) {
    const auto& fp = final_parts[static_cast<std::size_t>(r)];
    for (graph::Vertex i = 0; i < fp.size(r); ++i) {
      EXPECT_EQ(finals[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                reference[static_cast<std::size_t>(fp.to_global(r, i))]);
    }
  }
}

TEST(AdaptiveExecutor, ReportAccountsTime) {
  const auto g = graph::random_delaunay(500, 3);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>{1, 1});
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(2));
  std::vector<AdaptiveReport> reports(2);
  cluster.run([&](mp::Process& p) {
    AdaptiveExecutor ax(p, g, part, adaptive_opts(true));
    std::vector<double> y(static_cast<std::size_t>(ax.partition().size(p.rank())), 1.0);
    reports[static_cast<std::size_t>(p.rank())] = ax.run(p, y, 30);
  });
  EXPECT_GT(reports[0].total_seconds, 0.0);
  EXPECT_GT(reports[0].first_build_seconds, 0.0);
  EXPECT_GE(reports[0].total_seconds,
            reports[0].check_seconds + reports[0].remap_seconds);
}

TEST(AdaptiveExecutor, ValidatesInputs) {
  const auto g = graph::random_delaunay(200, 1);
  mp::Cluster cluster(sim::MachineSpec::uniform(2));
  // Partition with wrong processor count.
  const auto bad = IntervalPartition::from_weights(g.num_vertices(),
                                                   std::vector<double>{1, 1, 1});
  EXPECT_THROW(cluster.run([&](mp::Process& p) {
                 AdaptiveExecutor ax(p, g, bad, adaptive_opts(true));
               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace stance::lb
