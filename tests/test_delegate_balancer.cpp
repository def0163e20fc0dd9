// Frame-aware delegate balancing (lb/delegate_balancer.hpp + the mutable
// delegate role on mp::NodeMap): the measured frame cost, the pure and
// collective delegate choices, and the end-to-end payoff — moving the frame
// endpoint off a loaded rank lowers the virtual makespan without changing a
// byte.
#include <gtest/gtest.h>

#include <vector>

#include "exec/gather_scatter.hpp"
#include "lb/delegate_balancer.hpp"
#include "mp/cluster.hpp"
#include "sched/coalesce.hpp"
#include "sched/synthetic.hpp"
#include "test_util.hpp"

namespace stance {
namespace {

using mp::NodeMap;

TEST(NodeMapDelegates, DefaultIsLowestRankAndReassignable) {
  NodeMap nm = NodeMap::contiguous(6, 3);
  EXPECT_EQ(nm.delegate_of(0), 0);
  EXPECT_EQ(nm.delegate_of(1), 3);
  nm.set_delegate(0, 2);
  EXPECT_EQ(nm.delegate_of(0), 2);
  EXPECT_EQ(nm.delegate_of_rank(1), 2);
  EXPECT_EQ(nm.delegate_of(1), 3);  // untouched
  nm.set_delegates(std::vector<mp::Rank>{1, 5});
  EXPECT_EQ(nm.delegate_of(0), 1);
  EXPECT_EQ(nm.delegate_of(1), 5);
  EXPECT_EQ(nm.delegates(), (std::vector<mp::Rank>{1, 5}));
}

TEST(DelegateBalancer, FrameSecondsPricesSetupAndSerializedBytes) {
  const auto net = sim::NetworkModel::ethernet_10mbps();
  mp::CommStats stats;
  EXPECT_DOUBLE_EQ(lb::frame_seconds(stats, net), 0.0);
  stats.frames_sent = 4;
  stats.frame_bytes_sent = 10000;
  const double expected =
      4.0 * net.send_overhead + net.contention * 10000.0 * net.send_per_byte;
  EXPECT_DOUBLE_EQ(lb::frame_seconds(stats, net), expected);
}

TEST(DelegateBalancer, FrameWindowPricesIntervalsIndependently) {
  // The stale-stats bug: cumulative frame counters grow across controller
  // intervals, so pricing them biases frame_seconds toward historical load.
  // take_frame_window must hand each interval its own traffic — two
  // identical intervals price identically.
  const auto net = sim::NetworkModel::ethernet_10mbps();
  mp::CommStats stats;
  auto one_interval = [&] {
    stats.record_frame(1, 4000, 0.004);
    stats.record_frame(1, 4000, 0.004);
    stats.record_frame(2, 1000, 0.001);
  };
  one_interval();
  const auto w1 = stats.take_frame_window();
  one_interval();
  const auto w2 = stats.take_frame_window();

  EXPECT_EQ(w1.frames_sent, 3u);
  EXPECT_EQ(w2.frames_sent, 3u);
  EXPECT_EQ(w1.frame_bytes_sent, w2.frame_bytes_sent);
  EXPECT_DOUBLE_EQ(lb::frame_seconds(w1, net), lb::frame_seconds(w2, net));
  ASSERT_EQ(w2.pair_frames.size(), 2u);
  EXPECT_EQ(w2.pair_frames[0].dest_node, 1);
  EXPECT_EQ(w2.pair_frames[0].frames, 2u);
  EXPECT_DOUBLE_EQ(w2.pair_frames[0].seconds, 0.008);
  // The cumulative totals keep the full history (and price double).
  EXPECT_EQ(stats.frames_sent, 6u);
  EXPECT_DOUBLE_EQ(lb::frame_seconds(stats, net), 2.0 * lb::frame_seconds(w1, net));
  // An idle interval prices to zero.
  const auto w3 = stats.take_frame_window();
  EXPECT_EQ(w3.frames_sent, 0u);
  EXPECT_TRUE(w3.pair_frames.empty());
  EXPECT_DOUBLE_EQ(lb::frame_seconds(w3, net), 0.0);

  // The receive side windows the same way, per source node; a pair silent
  // in one window drops out of it.
  stats.record_frame(1, 4000, 0.004);
  stats.record_frame_recv(0, 500, 0.0005);
  stats.record_frame_recv(3, 800, 0.1);
  const auto w4 = stats.take_frame_window();
  ASSERT_EQ(w4.pair_frames.size(), 1u);
  EXPECT_EQ(w4.pair_frames[0].dest_node, 1);
  EXPECT_EQ(w4.pieces_forwarded, 2u);
  EXPECT_EQ(w4.forward_bytes, 1300u);
  ASSERT_EQ(w4.pair_forwards.size(), 2u);
  EXPECT_EQ(w4.pair_forwards[0].src_node, 0);
  EXPECT_EQ(w4.pair_forwards[1].src_node, 3);
  EXPECT_EQ(w4.pair_forwards[1].pieces, 1u);
  // Active again in the next window, with only that window's traffic; the
  // seconds are cumulative − mark, not a separately summed window.
  stats.record_frame(2, 1000, 0.001);
  stats.record_frame_recv(3, 800, 0.2);
  const auto w5 = stats.take_frame_window();
  ASSERT_EQ(w5.pair_frames.size(), 1u);
  EXPECT_EQ(w5.pair_frames[0].dest_node, 2);
  EXPECT_EQ(w5.pair_frames[0].frames, 1u);
  EXPECT_EQ(w5.pair_frames[0].bytes, 1000u);
  ASSERT_EQ(w5.pair_forwards.size(), 1u);
  EXPECT_EQ(w5.pair_forwards[0].src_node, 3);
  EXPECT_EQ(w5.pair_forwards[0].pieces, 1u);
  EXPECT_EQ(w5.pair_forwards[0].bytes, 800u);
  EXPECT_EQ(w5.pair_forwards[0].seconds, (0.1 + 0.2) - 0.1);
  EXPECT_NE(w5.pair_forwards[0].seconds, 0.2);

  // reset() clears the totals and re-arms the window: the next window
  // holds exactly the traffic recorded after it.
  stats.reset();
  stats.record_frame(1, 4000, 0.004);
  stats.record_frame_recv(3, 800, 0.0008);
  const auto w6 = stats.take_frame_window();
  EXPECT_EQ(w6.frames_sent, 1u);
  EXPECT_EQ(w6.frame_bytes_sent, 4000u);
  ASSERT_EQ(w6.pair_frames.size(), 1u);
  EXPECT_EQ(w6.pair_frames[0].frames, 1u);
  EXPECT_EQ(w6.pieces_forwarded, 1u);
  ASSERT_EQ(w6.pair_forwards.size(), 1u);
  EXPECT_EQ(w6.pair_forwards[0].pieces, 1u);
  EXPECT_EQ(w6.pair_forwards[0].seconds, 0.0008);
}

TEST(DelegateBalancer, ChooseDelegatesKeepsIncumbentOnIdleNodes) {
  // A node that measured no load has nothing to decide: a deliberate
  // earlier rotation must survive a quiet interval instead of resetting to
  // the lowest rank.
  NodeMap nm = NodeMap::contiguous(6, 3);
  nm.set_delegate(1, 4);  // deliberate non-default assignment
  const std::vector<double> idle_node1{0.9, 0.2, 0.5, 0.0, 0.0, 0.0};
  const auto kept = lb::choose_delegates(nm, idle_node1, nm.delegates());
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 1);  // loaded node: lightest rank wins
  EXPECT_EQ(kept[1], 4);  // idle node: incumbent kept
  // Once the node measures load again, the choice is live again.
  const std::vector<double> busy{0.9, 0.2, 0.5, 0.1, 0.3, 0.2};
  EXPECT_EQ(lb::choose_delegates(nm, busy, nm.delegates())[1], 3);
}

TEST(DelegateBalancer, RotateDelegatesSkipsAndChargesIdleNodesOnce) {
  // Skip-and-charge-once: a node whose delegate shipped nothing keeps its
  // delegate and pays one list op for the idleness check, not a per-rank
  // decision scan. Comparing two otherwise identical rotations, the one
  // with an idle node must finish strictly earlier (the collectives move
  // the same bytes either way).
  const std::size_t nprocs = 8;
  auto run_rotation = [&](const std::vector<double>& load) {
    mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(nprocs),
                        NodeMap::contiguous(8, 4));
    std::vector<mp::Rank> chosen;
    cluster.run([&](mp::Process& p) {
      const auto mine = lb::rotate_delegates(
          p, load[static_cast<std::size_t>(p.rank())], sim::CpuCostModel::sun4());
      if (p.is_root()) chosen = mine;
    });
    return std::make_pair(cluster.makespan(), chosen);
  };

  const std::vector<double> node1_idle{0.4, 0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0};
  const std::vector<double> both_busy{0.4, 0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3};
  const auto [idle_makespan, idle_chosen] = run_rotation(node1_idle);
  const auto [busy_makespan, busy_chosen] = run_rotation(both_busy);
  EXPECT_EQ(idle_chosen, (std::vector<mp::Rank>{1, 4}));  // node 1 keeps rank 4
  EXPECT_EQ(busy_chosen, (std::vector<mp::Rank>{1, 5}));
  EXPECT_LT(idle_makespan, busy_makespan);
  // The difference is exactly the skipped scan: 4 ranks' ops replaced by
  // one idleness check on every rank's clock.
  EXPECT_NEAR(busy_makespan - idle_makespan,
              3.0 * sim::CpuCostModel::sun4().per_list_op, 1e-12);
}

TEST(DelegateBalancer, ChooseDelegatesPicksLightestRankPerNode) {
  const NodeMap nm = NodeMap::contiguous(6, 3);
  const std::vector<double> load{0.9, 0.2, 0.5, 0.0, 0.0, 0.7};
  const auto chosen = lb::choose_delegates(nm, load);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], 1);  // lightest on node 0
  EXPECT_EQ(chosen[1], 3);  // tie between ranks 3 and 4 breaks to the lowest
}

TEST(DelegateBalancer, UniformLoadReproducesDefaultAssignment) {
  const NodeMap nm = NodeMap::contiguous(8, 4);
  const std::vector<double> load(8, 1.0);
  const auto chosen = lb::choose_delegates(nm, load);
  EXPECT_EQ(chosen, nm.delegates());
}

TEST(DelegateBalancer, RotateDelegatesIsCollectiveDeterministicAndCharged) {
  const std::size_t nprocs = 6;
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(nprocs),
                      NodeMap::contiguous(6, 2));
  const std::vector<double> load{0.5, 0.1, 0.0, 0.3, 0.2, 0.15};
  std::vector<std::vector<mp::Rank>> chosen(nprocs);
  cluster.run([&](mp::Process& p) {
    chosen[static_cast<std::size_t>(p.rank())] = lb::rotate_delegates(
        p, load[static_cast<std::size_t>(p.rank())], sim::CpuCostModel::sun4());
  });
  for (std::size_t r = 1; r < nprocs; ++r) EXPECT_EQ(chosen[r], chosen[0]);
  EXPECT_EQ(chosen[0], (std::vector<mp::Rank>{1, 2, 5}));
  // The allgather round and the decision work landed on the clocks.
  EXPECT_GT(cluster.makespan(), 0.0);
}

/// One coalesced gather+scatter round per rank over `plans`, returning
/// (ghost, local) for bitwise comparison across delegate assignments.
std::pair<std::vector<std::vector<double>>, std::vector<std::vector<double>>>
run_coalesced(mp::Cluster& cluster, const std::vector<sched::CommSchedule>& schedules,
              const std::vector<sched::CoalescePlan>& plans, int rounds) {
  const std::size_t nprocs = schedules.size();
  std::vector<std::vector<double>> ghost(nprocs), local(nprocs);
  std::vector<exec::ExecWorkspace> ws(nprocs);
  for (std::size_t r = 0; r < nprocs; ++r) {
    local[r] = test::seeded_values(static_cast<std::size_t>(schedules[r].nlocal), 40 + r);
    ghost[r].assign(static_cast<std::size_t>(schedules[r].nghost), 0.0);
  }
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    for (int it = 0; it < rounds; ++it) {
      exec::gather_coalesced<double>(p, schedules[r], plans[r], local[r],
                                     std::span<double>(ghost[r]), ws[r]);
      exec::scatter_add_coalesced<double>(p, schedules[r], plans[r], ghost[r],
                                          std::span<double>(local[r]), ws[r]);
    }
  });
  return {ghost, local};
}

TEST(DelegateBalancer, RotationOffSlowRankLowersMakespanByteIdentically) {
  // Two physical nodes of 4 ranks; the lowest rank of each node — the
  // default delegate — sits on a quarter-speed CPU, so the node's whole
  // frame serialization runs at quarter speed. Frame-aware rotation moves
  // the endpoint to an unloaded full-speed co-resident.
  const int nprocs = 8;
  auto spec = sim::MachineSpec::uniform_ethernet(nprocs);
  spec.nodes[0].speed = 0.25;
  spec.nodes[4].speed = 0.25;
  mp::Cluster cluster(std::move(spec), NodeMap::contiguous(nprocs, 4));

  std::vector<sched::CommSchedule> schedules;
  schedules.reserve(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    schedules.push_back(sched::all_pairs_schedule(nprocs, r, 64));
  }
  auto build_plans = [&] {
    std::vector<sched::CoalescePlan> plans(nprocs);
    cluster.run([&](mp::Process& p) {
      plans[static_cast<std::size_t>(p.rank())] =
          sched::coalesce(p, schedules[static_cast<std::size_t>(p.rank())],
                          sim::CpuCostModel::free());
    });
    return plans;
  };

  const auto slow_plans = build_plans();
  const auto before = run_coalesced(cluster, schedules, slow_plans, 4);
  const double slow_makespan = cluster.makespan();

  // Measure the frame cost each rank actually paid (normalized by its
  // delivered speed — the slow delegate reports 4x the virtual seconds) and
  // rotate collectively.
  std::vector<mp::Rank> new_delegates;
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const double my_load =
        lb::frame_seconds(cluster.last_stats()[r], p.net()) / p.clock().speed();
    // Identical on every rank; a single writer keeps the capture race-free.
    const auto chosen = lb::rotate_delegates(p, my_load, sim::CpuCostModel::sun4());
    if (p.is_root()) new_delegates = chosen;
  });
  EXPECT_EQ(new_delegates, (std::vector<mp::Rank>{1, 5}));

  cluster.set_delegates(new_delegates);
  const auto fast_plans = build_plans();
  const auto after = run_coalesced(cluster, schedules, fast_plans, 4);
  const double fast_makespan = cluster.makespan();

  EXPECT_LT(fast_makespan, 0.75 * slow_makespan)
      << "slow=" << slow_makespan << " rotated=" << fast_makespan;
  for (int r = 0; r < nprocs; ++r) {
    test::expect_vectors_eq(after.first[static_cast<std::size_t>(r)],
                            before.first[static_cast<std::size_t>(r)]);
    test::expect_vectors_eq(after.second[static_cast<std::size_t>(r)],
                            before.second[static_cast<std::size_t>(r)]);
  }
}

}  // namespace
}  // namespace stance
