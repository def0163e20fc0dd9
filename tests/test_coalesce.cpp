// Node-aware message coalescing (sched/coalesce.hpp + the coalesced
// executors): plan structure, the ISSUE 3 round-trip oracle — coalesce →
// execute → demux must be byte-identical to the uncoalesced schedule across
// random, MCR, and paper-testbed partitions — and the message-count
// reduction the frames buy.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "exec/edge_sweep.hpp"
#include "exec/gather_scatter.hpp"
#include "exec/irregular_loop.hpp"
#include "graph/builders.hpp"
#include "mp/cluster.hpp"
#include "partition/mcr.hpp"
#include "sched/synthetic.hpp"
#include "test_util.hpp"

namespace stance {
namespace {

using mp::NodeMap;
using partition::IntervalPartition;
using sched::CoalescePlan;
using sched::DirectionPlan;

std::vector<CoalescePlan> build_all_plans(mp::Cluster& cluster,
                                          const std::vector<sched::InspectorResult>& irs,
                                          const sched::CoalesceOptions& opts = {}) {
  std::vector<CoalescePlan> plans(irs.size());
  cluster.run([&](mp::Process& p) {
    plans[static_cast<std::size_t>(p.rank())] =
        sched::coalesce(p, irs[static_cast<std::size_t>(p.rank())].schedule,
                        sim::CpuCostModel::free(), opts);
  });
  return plans;
}

constexpr sched::CoalesceOptions kAdaptive{sched::CoalescePolicy::kAdaptive, 8.0};

/// One gather + scatter_add round on every rank, optionally coalesced.
/// Returns (ghost, local) per rank for bitwise comparison.
std::pair<std::vector<std::vector<double>>, std::vector<std::vector<double>>>
run_exchange(mp::Cluster& cluster, const std::vector<sched::InspectorResult>& irs,
             const std::vector<CoalescePlan>* plans) {
  const std::size_t nprocs = irs.size();
  std::vector<std::vector<double>> ghost(nprocs), local(nprocs);
  std::vector<exec::ExecWorkspace> ws(nprocs);
  for (std::size_t r = 0; r < nprocs; ++r) {
    const auto& s = irs[r].schedule;
    local[r] = test::seeded_values(static_cast<std::size_t>(s.nlocal), 500 + r);
    ghost[r].assign(static_cast<std::size_t>(s.nghost), 0.0);
  }
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const auto& s = irs[r].schedule;
    if (plans != nullptr) {
      exec::gather_coalesced<double>(p, s, (*plans)[r], local[r],
                                     std::span<double>(ghost[r]), ws[r]);
      exec::scatter_add_coalesced<double>(p, s, (*plans)[r], ghost[r],
                                          std::span<double>(local[r]), ws[r]);
    } else {
      exec::gather<double>(p, s, local[r], std::span<double>(ghost[r]), ws[r]);
      exec::scatter_add<double>(p, s, ghost[r], std::span<double>(local[r]), ws[r]);
    }
  });
  return {ghost, local};
}

void expect_roundtrip_oracle(const graph::Csr& g, const IntervalPartition& part,
                             NodeMap node_map,
                             const sched::CoalesceOptions& opts = {},
                             bool ethernet = false) {
  const auto nprocs = static_cast<std::size_t>(part.nparts());
  const auto irs = test::build_all_schedules(g, part);
  mp::Cluster cluster(ethernet ? sim::MachineSpec::uniform_ethernet(nprocs)
                               : sim::MachineSpec::uniform(nprocs),
                      std::move(node_map));
  const auto plans = build_all_plans(cluster, irs, opts);
  const auto plain = run_exchange(cluster, irs, nullptr);
  const auto coalesced = run_exchange(cluster, irs, &plans);
  for (std::size_t r = 0; r < irs.size(); ++r) {
    test::expect_vectors_eq(coalesced.first[r], plain.first[r]);
    test::expect_vectors_eq(coalesced.second[r], plain.second[r]);
  }
}

TEST(NodeMap, ContiguousGrouping) {
  const auto nm = NodeMap::contiguous(8, 3);
  EXPECT_EQ(nm.nprocs(), 8);
  EXPECT_EQ(nm.nnodes(), 3);
  EXPECT_EQ(nm.node_of(0), 0);
  EXPECT_EQ(nm.node_of(2), 0);
  EXPECT_EQ(nm.node_of(3), 1);
  EXPECT_EQ(nm.node_of(7), 2);
  EXPECT_TRUE(nm.same_node(4, 5));
  EXPECT_FALSE(nm.same_node(2, 3));
  EXPECT_EQ(nm.delegate_of(1), 3);
  EXPECT_EQ(nm.delegate_of_rank(5), 3);
  ASSERT_EQ(nm.ranks_on(2).size(), 2u);
  EXPECT_EQ(nm.ranks_on(2)[0], 6);
  EXPECT_FALSE(nm.trivial());
  EXPECT_TRUE(NodeMap::one_rank_per_node(4).trivial());
}

TEST(NodeMap, ExplicitAssignmentGroupsNonContiguousRanks) {
  const NodeMap nm(std::vector<int>{0, 1, 0, 2, 1, 0});
  EXPECT_EQ(nm.nnodes(), 3);
  ASSERT_EQ(nm.ranks_on(0).size(), 3u);
  EXPECT_EQ(nm.ranks_on(0)[0], 0);
  EXPECT_EQ(nm.ranks_on(0)[1], 2);
  EXPECT_EQ(nm.ranks_on(0)[2], 5);
  EXPECT_EQ(nm.delegate_of_rank(4), 1);
}

TEST(Coalesce, TrivialNodeMapPlansEverythingDirect) {
  Rng rng(11);
  const graph::Csr g = graph::random_delaunay(800, 11);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto irs = test::build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(4));  // one rank per node
  const auto plans = build_all_plans(cluster, irs);
  for (std::size_t r = 0; r < plans.size(); ++r) {
    const auto& s = irs[r].schedule;
    for (const auto* d : {&plans[r].gather, &plans[r].scatter}) {
      EXPECT_TRUE(d->send_frames.empty());
      EXPECT_TRUE(d->recv_frames.empty());
      for (const auto via : d->source_via) {
        EXPECT_EQ(via, DirectionPlan::Via::kDirect);
      }
    }
    EXPECT_EQ(plans[r].gather.direct_peers.size(), s.send_procs.size());
    EXPECT_EQ(plans[r].my_delegate, static_cast<mp::Rank>(r));
  }
}

TEST(Coalesce, PlanStructureOnTwoNodes) {
  Rng rng(17);
  const graph::Csr g = graph::random_delaunay(1200, 17);
  const auto part = test::random_partition(g.num_vertices(), 6, rng);
  const auto irs = test::build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(6), NodeMap::contiguous(6, 3));
  const auto plans = build_all_plans(cluster, irs);
  for (std::size_t r = 0; r < plans.size(); ++r) {
    const bool is_delegate = static_cast<mp::Rank>(r) == plans[r].my_delegate;
    const auto& d = plans[r].gather;
    if (is_delegate) {
      // Delegates never bundle — they assemble; at most one frame per
      // foreign node (here: exactly one other node).
      EXPECT_TRUE(d.bundles.empty());
      EXPECT_LE(d.send_frames.size(), 1u);
      for (const auto& f : d.send_frames) {
        EXPECT_EQ(f.wire_dest, r < 3 ? 3 : 0);
        std::size_t elems = 0;
        for (std::size_t k = 0; k < f.parts.size(); ++k) {
          elems += f.parts[k].elems;
          if (k > 0) {
            EXPECT_LT(f.parts[k - 1].source, f.parts[k].source);
          }
        }
        EXPECT_EQ(f.elems, elems);
      }
      // Demux replays pieces in global (source, target) order.
      for (std::size_t k = 1; k < d.demux.size(); ++k) {
        const auto& a = d.demux[k - 1];
        const auto& b = d.demux[k];
        EXPECT_TRUE(a.source < b.source ||
                    (a.source == b.source && a.target < b.target));
      }
    } else {
      // Non-delegates never touch the wire for off-node traffic: one
      // shared-memory bundle per destination node, no frames either way.
      EXPECT_TRUE(d.send_frames.empty());
      EXPECT_TRUE(d.recv_frames.empty());
      EXPECT_TRUE(d.demux.empty());
      EXPECT_LE(d.bundles.size(), 1u);
    }
  }
}

TEST(Coalesce, RoundTripOracleRandomPartition) {
  Rng rng(23);
  const graph::Csr g = graph::random_delaunay(2500, 23);
  expect_roundtrip_oracle(g, test::random_partition(g.num_vertices(), 8, rng),
                          NodeMap::contiguous(8, 4));
  expect_roundtrip_oracle(g, test::random_partition(g.num_vertices(), 6, rng),
                          NodeMap::contiguous(6, 2));
}

TEST(Coalesce, RoundTripOracleMcrPartition) {
  Rng rng(29);
  const graph::Csr g = graph::random_delaunay(2000, 29);
  const auto from = IntervalPartition::from_weights(g.num_vertices(),
                                                    random_weights(6, rng));
  const auto to = partition::repartition_mcr(from, random_weights(6, rng));
  expect_roundtrip_oracle(g, to, NodeMap::contiguous(6, 3));
}

TEST(Coalesce, RoundTripOraclePaperTestbedPartition) {
  // The paper's testbed shape: speed-share partition of the (stand-in)
  // experimental mesh over 5 near-equal SUN4s — here packed 2-3 ranks per
  // physical node, plus an irregular assignment.
  const graph::Csr g = graph::random_delaunay(4000, 1996);
  const auto shares = sim::MachineSpec::sun4_ethernet(5).speed_shares();
  const auto part = IntervalPartition::from_weights(g.num_vertices(), shares);
  expect_roundtrip_oracle(g, part, NodeMap::contiguous(5, 2));
  expect_roundtrip_oracle(g, part, NodeMap(std::vector<int>{0, 1, 0, 1, 0}));
}

TEST(Coalesce, InterNodeMessageReductionAtLeastRanksPerNode) {
  // Acceptance: on the paper-style mesh, coalescing cuts inter-node message
  // counts by at least the ranks-per-node factor. Random vertex labels give
  // every rank a near-complete peer set, the worst case for setup costs.
  const int ranks_per_node = 4;
  const graph::Csr g = graph::random_delaunay(4000, 1996);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>(8, 1.0));
  const auto irs = test::build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(8),
                      NodeMap::contiguous(8, ranks_per_node));
  const auto plans = build_all_plans(cluster, irs);

  (void)run_exchange(cluster, irs, nullptr);
  const auto plain = cluster.total_stats();
  (void)run_exchange(cluster, irs, &plans);
  const auto coalesced = cluster.total_stats();

  EXPECT_GT(plain.inter_node_sent, 0u);
  EXPECT_EQ(coalesced.frames_sent, coalesced.inter_node_sent);
  EXPECT_GE(plain.inter_node_sent,
            static_cast<std::uint64_t>(ranks_per_node) * coalesced.inter_node_sent);
  // Total payload moved over the wire is unchanged — frames only merge it.
  EXPECT_EQ(plain.inter_node_bytes_sent, coalesced.inter_node_bytes_sent);
}

using sched::all_pairs_schedule;

TEST(Coalesce, FrameSetupAmortizationLowersVirtualCost) {
  // One wire setup per node pair instead of per rank pair must show up in
  // the virtual clock when traffic is setup-dominated: every rank exchanges
  // a small payload with every other rank (the §3.6 argument).
  const int nprocs = 12;
  std::vector<sched::InspectorResult> irs(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    irs[static_cast<std::size_t>(r)].schedule = all_pairs_schedule(nprocs, r, 4);
    ASSERT_TRUE(irs[static_cast<std::size_t>(r)].schedule.valid());
  }
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(nprocs),
                      NodeMap::contiguous(nprocs, 6));
  const auto plans = build_all_plans(cluster, irs);

  cluster.reset_clocks();
  const auto plain_data = run_exchange(cluster, irs, nullptr);
  const double plain = cluster.makespan();
  cluster.reset_clocks();
  const auto coalesced_data = run_exchange(cluster, irs, &plans);
  const double coalesced = cluster.makespan();
  // The frames must pay off clearly (each wire message replaces 36) and
  // must not change a single byte.
  EXPECT_LT(coalesced, 0.75 * plain) << "plain=" << plain << " coalesced=" << coalesced;
  for (std::size_t r = 0; r < irs.size(); ++r) {
    test::expect_vectors_eq(coalesced_data.first[r], plain_data.first[r]);
    test::expect_vectors_eq(coalesced_data.second[r], plain_data.second[r]);
  }
}

TEST(Coalesce, IrregularLoopByteIdenticalWithPlan) {
  Rng rng(41);
  const graph::Csr g = graph::random_delaunay(1800, 41);
  const auto part = test::random_partition(g.num_vertices(), 6, rng);
  const auto irs = test::build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(6), NodeMap::contiguous(6, 2));
  const auto plans = build_all_plans(cluster, irs);

  auto run_loop = [&](bool coalesce) {
    std::vector<std::vector<double>> y(6);
    std::vector<std::unique_ptr<exec::IrregularLoop>> loops(6);
    for (std::size_t r = 0; r < 6; ++r) {
      const auto& s = irs[r].schedule;
      y[r] = test::seeded_values(static_cast<std::size_t>(s.nlocal), 70 + r);
      loops[r] = std::make_unique<exec::IrregularLoop>(irs[r].lgraph, s);
      if (coalesce) {
        loops[r]->set_coalesce_plan(&plans[r]);
      }
    }
    cluster.run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      loops[r]->iterate(p, y[r], 5);
    });
    return y;
  };
  const auto plain = run_loop(false);
  const auto coalesced = run_loop(true);
  for (std::size_t r = 0; r < 6; ++r) test::expect_vectors_eq(coalesced[r], plain[r]);
}

TEST(Coalesce, EdgeSweepByteIdenticalWithPlan) {
  Rng rng(43);
  const graph::Csr g = graph::random_delaunay(1500, 43);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto irs = test::build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(4), NodeMap::contiguous(4, 2));
  const auto plans = build_all_plans(cluster, irs);

  auto run_sweep = [&](bool coalesce) {
    std::vector<std::vector<double>> y(4), acc(4);
    std::vector<std::unique_ptr<exec::EdgeSweep>> sweeps(4);
    for (std::size_t r = 0; r < 4; ++r) {
      const auto& s = irs[r].schedule;
      const auto n = static_cast<std::size_t>(s.nlocal);
      y[r] = test::seeded_values(n, 90 + r);
      acc[r].assign(n, 0.0);
      sweeps[r] = std::make_unique<exec::EdgeSweep>(irs[r].lgraph, s);
      if (coalesce) {
        sweeps[r]->set_coalesce_plan(&plans[r]);
      }
    }
    cluster.run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      sweeps[r]->sweep(p, y[r], acc[r]);
    });
    return acc;
  };
  const auto plain = run_sweep(false);
  const auto coalesced = run_sweep(true);
  for (std::size_t r = 0; r < 4; ++r) test::expect_vectors_eq(coalesced[r], plain[r]);
}

using sched::matrix_schedule;

TEST(AdaptiveCoalesce, FrameProfitableCrossover) {
  const auto net = sim::NetworkModel::ethernet_10mbps();
  // Setup-dominated (the all-pairs bench shape, 6 ranks per node): the
  // delegates each shed 5 of their own setups; the funnel moves ~1KB.
  sched::PairTraffic dense;
  dense.messages = 36;
  dense.elems = 144;
  dense.src_delegate_msgs = 6;
  dense.dst_delegate_msgs = 6;
  dense.bundle_sends = 5;
  dense.src_off_delegate_elems = 120;
  dense.dst_off_delegate_elems = 120;
  EXPECT_TRUE(sched::frame_profitable(dense, net, 8.0));

  // Byte-bound: the same message pattern carrying 40k elements. The
  // co-residents' bytes serializing on the delegate's CPU cost far more
  // than the handful of setups it sheds.
  sched::PairTraffic heavy = dense;
  heavy.elems = 40000;
  heavy.src_off_delegate_elems = 33000;
  heavy.dst_off_delegate_elems = 33000;
  EXPECT_FALSE(sched::frame_profitable(heavy, net, 8.0));

  // A single message between non-delegates saves neither delegate anything
  // and adds wire work to both: always demoted.
  sched::PairTraffic lone;
  lone.messages = 1;
  lone.elems = 10;
  lone.bundle_sends = 1;
  lone.src_off_delegate_elems = 10;
  lone.dst_off_delegate_elems = 10;
  EXPECT_FALSE(sched::frame_profitable(lone, net, 8.0));

  // Zero-cost network: every pair ties and stays framed — adaptive
  // reproduces kAlwaysFrame exactly.
  EXPECT_TRUE(sched::frame_profitable(heavy, sim::NetworkModel::ideal(), 8.0));
  EXPECT_TRUE(sched::frame_profitable(lone, sim::NetworkModel::ideal(), 8.0));
}

TEST(AdaptiveCoalesce, MixedPlanFramesSetupBoundDemotesByteBoundPairs) {
  // 6 ranks on 3 nodes. Node pair 0<->1 exchanges tiny payloads between all
  // rank pairs (setup-bound: framed); node pair 0<->2 exchanges bulk
  // payloads (byte-bound: demoted); 1<->2 is quiet.
  const int nprocs = 6;
  std::vector<std::vector<graph::Vertex>> counts(
      nprocs, std::vector<graph::Vertex>(nprocs, 0));
  auto node_of = [](int r) { return r / 2; };
  for (int s = 0; s < nprocs; ++s) {
    for (int t = 0; t < nprocs; ++t) {
      if (s == t) continue;
      const int sn = node_of(s);
      const int tn = node_of(t);
      if ((sn == 0 && tn == 1) || (sn == 1 && tn == 0)) counts[s][t] = 3;
      if ((sn == 0 && tn == 2) || (sn == 2 && tn == 0)) counts[s][t] = 20000;
    }
  }
  std::vector<sched::InspectorResult> irs(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    irs[static_cast<std::size_t>(r)].schedule = matrix_schedule(counts, r);
    ASSERT_TRUE(irs[static_cast<std::size_t>(r)].schedule.valid());
  }
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(nprocs),
                      NodeMap::contiguous(nprocs, 2));
  const auto plans = build_all_plans(cluster, irs, kAdaptive);

  // Rank 0 (delegate of node 0) frames toward node 1 only; its node-2
  // traffic reverts to direct wire messages.
  const auto& d0 = plans[0].gather;
  ASSERT_EQ(d0.send_frames.size(), 1u);
  EXPECT_EQ(d0.send_frames[0].dest_node, 1);
  const auto& peers0 = irs[0].schedule.send_procs;
  bool direct_to_node2 = false;
  for (const auto i : d0.direct_peers) {
    EXPECT_NE(node_of(peers0[i]), 1) << "framed pair leaked a direct message";
    if (node_of(peers0[i]) == 2) direct_to_node2 = true;
  }
  EXPECT_TRUE(direct_to_node2);
  // Rank 1 (non-delegate on node 0) bundles toward node 1 only.
  ASSERT_EQ(plans[1].gather.bundles.size(), 1u);
  EXPECT_EQ(plans[1].gather.bundles[0].dest_node, 1);

  // The mixed plan stays byte-identical to the uncoalesced schedule.
  const auto plain = run_exchange(cluster, irs, nullptr);
  const auto mixed = run_exchange(cluster, irs, &plans);
  for (std::size_t r = 0; r < irs.size(); ++r) {
    test::expect_vectors_eq(mixed.first[r], plain.first[r]);
    test::expect_vectors_eq(mixed.second[r], plain.second[r]);
  }
}

TEST(AdaptiveCoalesce, RoundTripOracleRandomPartition) {
  Rng rng(53);
  const graph::Csr g = graph::random_delaunay(2500, 53);
  expect_roundtrip_oracle(g, test::random_partition(g.num_vertices(), 8, rng),
                          NodeMap::contiguous(8, 4), kAdaptive, /*ethernet=*/true);
  expect_roundtrip_oracle(g, test::random_partition(g.num_vertices(), 6, rng),
                          NodeMap::contiguous(6, 2), kAdaptive, /*ethernet=*/true);
}

TEST(AdaptiveCoalesce, RoundTripOracleMcrPartition) {
  Rng rng(59);
  const graph::Csr g = graph::random_delaunay(2000, 59);
  const auto from = IntervalPartition::from_weights(g.num_vertices(),
                                                    random_weights(6, rng));
  const auto to = partition::repartition_mcr(from, random_weights(6, rng));
  expect_roundtrip_oracle(g, to, NodeMap::contiguous(6, 3), kAdaptive,
                          /*ethernet=*/true);
}

TEST(AdaptiveCoalesce, RoundTripOraclePaperTestbedPartition) {
  const graph::Csr g = graph::random_delaunay(4000, 1996);
  const auto shares = sim::MachineSpec::sun4_ethernet(5).speed_shares();
  const auto part = IntervalPartition::from_weights(g.num_vertices(), shares);
  expect_roundtrip_oracle(g, part, NodeMap::contiguous(5, 2), kAdaptive,
                          /*ethernet=*/true);
  expect_roundtrip_oracle(g, part, NodeMap(std::vector<int>{0, 1, 0, 1, 0}), kAdaptive,
                          /*ethernet=*/true);
}

TEST(AdaptiveCoalesce, BeatsBothFixedPoliciesOnByteBoundMesh) {
  // The PR 3 regression pattern: a byte-bound mesh where all-frames funneling
  // loses to plain messages. The adaptive policy must match or beat BOTH
  // fixed strategies — that is the whole point of making it a per-pair
  // decision.
  const graph::Csr g = graph::random_delaunay(2000, 1996);
  const auto part = IntervalPartition::from_weights(g.num_vertices(),
                                                    std::vector<double>(8, 1.0));
  const auto irs = test::build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(8),
                      NodeMap::contiguous(8, 4));
  const auto frames_plans = build_all_plans(cluster, irs);
  const auto adaptive_plans = build_all_plans(cluster, irs, kAdaptive);

  cluster.reset_clocks();
  (void)run_exchange(cluster, irs, nullptr);
  const double plain = cluster.makespan();
  cluster.reset_clocks();
  (void)run_exchange(cluster, irs, &frames_plans);
  const double all_frames = cluster.makespan();
  cluster.reset_clocks();
  (void)run_exchange(cluster, irs, &adaptive_plans);
  const double adaptive = cluster.makespan();

  EXPECT_LE(adaptive, plain * (1.0 + 1e-9))
      << "plain=" << plain << " all_frames=" << all_frames << " adaptive=" << adaptive;
  EXPECT_LE(adaptive, all_frames * (1.0 + 1e-9))
      << "plain=" << plain << " all_frames=" << all_frames << " adaptive=" << adaptive;
}

TEST(AdaptiveCoalesce, KeepsFramesOnSetupBoundAllPairs) {
  // The §3.6 amortization case must survive the adaptive policy: tiny
  // payloads, dense peers — every pair stays framed and the plan matches
  // kAlwaysFrame structurally.
  const int nprocs = 12;
  std::vector<sched::InspectorResult> irs(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    irs[static_cast<std::size_t>(r)].schedule = all_pairs_schedule(nprocs, r, 4);
  }
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(nprocs),
                      NodeMap::contiguous(nprocs, 6));
  const auto frames_plans = build_all_plans(cluster, irs);
  const auto adaptive_plans = build_all_plans(cluster, irs, kAdaptive);
  for (int r = 0; r < nprocs; ++r) {
    const auto& a = adaptive_plans[static_cast<std::size_t>(r)];
    const auto& f = frames_plans[static_cast<std::size_t>(r)];
    EXPECT_EQ(a.gather.send_frames.size(), f.gather.send_frames.size());
    EXPECT_EQ(a.gather.bundles.size(), f.gather.bundles.size());
    EXPECT_EQ(a.gather.direct_peers, f.gather.direct_peers);
    EXPECT_EQ(a.scatter.send_frames.size(), f.scatter.send_frames.size());
  }
}

TEST(CoalesceStaleness, FingerprintTracksCommunicationPattern) {
  const auto s1 = sched::all_pairs_schedule(4, 0, 8);
  auto s2 = sched::all_pairs_schedule(4, 0, 8);
  EXPECT_EQ(sched::coalesce_fingerprint(s1), sched::coalesce_fingerprint(s2));
  // A remap that changes any message size changes the fingerprint.
  s2.send_items[0].push_back(0);
  EXPECT_NE(sched::coalesce_fingerprint(s1), sched::coalesce_fingerprint(s2));
  // ...as does a different peer set with the same totals.
  const auto other = sched::all_pairs_schedule(4, 1, 8);
  EXPECT_NE(sched::coalesce_fingerprint(s1), sched::coalesce_fingerprint(other));
}

TEST(CoalesceStaleness, PlanMatchesUntilRemapOrRotation) {
  // The stale-plan bug: a plan kept across a remap or a delegate rotation
  // silently routes frames the old way. matches() is the executors' guard.
  Rng rng(83);
  const graph::Csr g = graph::random_delaunay(900, 83);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto irs = test::build_all_schedules(g, part);
  mp::Cluster cluster(sim::MachineSpec::uniform(4), NodeMap::contiguous(4, 2));
  const auto plans = build_all_plans(cluster, irs);
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(plans[static_cast<std::size_t>(r)].matches(
        irs[static_cast<std::size_t>(r)].schedule, cluster.node_map()));
  }
  // A remap produces a different schedule: the old plan no longer matches.
  const auto moved = test::random_partition(g.num_vertices(), 4, rng);
  const auto moved_irs = test::build_all_schedules(g, moved);
  EXPECT_FALSE(plans[0].matches(moved_irs[0].schedule, cluster.node_map()));
  // A delegate rotation invalidates every plan without touching schedules.
  cluster.set_delegates(std::vector<mp::Rank>{1, 3});
  EXPECT_FALSE(plans[0].matches(irs[0].schedule, cluster.node_map()));
  const auto rebuilt = build_all_plans(cluster, irs);
  EXPECT_TRUE(rebuilt[0].matches(irs[0].schedule, cluster.node_map()));
}

TEST(CoalesceStaleness, InstallingMismatchedPlanThrows) {
  // set_coalesce_plan() refuses a plan built for a different schedule — the
  // exact footgun of keeping an executor's plan across a remap.
  Rng rng(29);
  const graph::Csr g = graph::random_delaunay(700, 29);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto moved = test::random_partition(g.num_vertices(), 4, rng);
  const auto irs = test::build_all_schedules(g, part);
  const auto moved_irs = test::build_all_schedules(g, moved);
  mp::Cluster cluster(sim::MachineSpec::uniform(4), NodeMap::contiguous(4, 2));
  const auto plans = build_all_plans(cluster, irs);

  exec::IrregularLoop stale(moved_irs[0].lgraph, moved_irs[0].schedule);
  EXPECT_THROW(stale.set_coalesce_plan(&plans[0]), std::invalid_argument);
  exec::IrregularLoop fresh(irs[0].lgraph, irs[0].schedule);
  fresh.set_coalesce_plan(&plans[0]);  // matching schedule installs fine
  fresh.set_coalesce_plan(nullptr);    // and nullptr always resets

  exec::EdgeSweep stale_sweep(moved_irs[0].lgraph, moved_irs[0].schedule);
  EXPECT_THROW(stale_sweep.set_coalesce_plan(&plans[0]), std::invalid_argument);
}

TEST(MeasuredCoalesce, SlowdownScalesVerdictAsymmetrically) {
  const auto net = sim::NetworkModel::ethernet_10mbps();
  // A pair near the a-priori crossover: framed at reference speed.
  sched::PairTraffic t;
  t.messages = 16;
  t.elems = 256;
  t.src_delegate_msgs = 4;
  t.dst_delegate_msgs = 4;
  t.bundle_sends = 3;
  t.src_off_delegate_elems = 192;
  t.dst_off_delegate_elems = 192;
  ASSERT_TRUE(sched::frame_profitable(t, net, 8.0));
  // Uniform slowdown cancels: a slow pair of delegates is slow either way.
  EXPECT_TRUE(sched::frame_profitable(t, net, 8.0, 4.0, 4.0));
  EXPECT_EQ(sched::frame_profitable(t, net, 8.0, 1.0, 1.0),
            sched::frame_profitable(t, net, 8.0));
  // An asymmetric slowdown does not: a 4x-slow source delegate makes the
  // funnel serialization outweigh the setups a fast destination sheds.
  EXPECT_FALSE(sched::frame_profitable(t, net, 8.0, 4.0, 1.0));
}

TEST(MeasuredCoalesce, NodeSlowdownFromMeasuredPairs) {
  const auto net = sim::NetworkModel::ethernet_10mbps();
  sched::MeasuredPairCosts m;
  EXPECT_DOUBLE_EQ(m.node_slowdown(0, net), 1.0);  // nothing measured
  const std::uint64_t frames = 10;
  const std::uint64_t bytes = 20000;
  const double modeled = static_cast<double>(frames) * net.send_overhead +
                         net.serialization_cost(bytes);
  m.pairs.push_back(sched::MeasuredPairCost{0, 1, frames, bytes, 4.0 * modeled});
  EXPECT_DOUBLE_EQ(m.node_slowdown(0, net), 4.0);
  EXPECT_DOUBLE_EQ(m.node_slowdown(1, net), 1.0);  // dst side: not its sends
  // Several pairs from one node aggregate into one ratio.
  m.pairs.push_back(sched::MeasuredPairCost{0, 2, frames, bytes, 2.0 * modeled});
  EXPECT_DOUBLE_EQ(m.node_slowdown(0, net), 3.0);
}

TEST(MeasuredCoalesce, MeasuredTableDemotesSlowNodesFramesByteIdentically) {
  // Feed coalesce() a table that marks node 0's delegate 4x slow: the
  // verdict flips to direct for node 0's outbound frames (both endpoints
  // agree from the same table), and the demoted plan still produces the
  // exact bytes of the uncoalesced exchange.
  const int nprocs = 8;
  std::vector<sched::InspectorResult> irs(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    irs[static_cast<std::size_t>(r)].schedule = sched::all_pairs_schedule(nprocs, r, 16);
  }
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(nprocs),
                      NodeMap::contiguous(nprocs, 4));

  sched::MeasuredPairCosts measured;
  {
    const auto net = sim::NetworkModel::ethernet_10mbps();
    // One frame of the 0->1 pair: 16 messages x 16 elems x 8 bytes.
    const std::uint64_t bytes = 16 * 16 * 8;
    const double modeled = net.send_overhead + net.serialization_cost(bytes);
    measured.pairs.push_back(sched::MeasuredPairCost{0, 1, 1, bytes, 4.0 * modeled});
    measured.pairs.push_back(sched::MeasuredPairCost{1, 0, 1, bytes, 1.0 * modeled});
  }
  sched::CoalesceOptions opts;
  opts.policy = sched::CoalescePolicy::kAdaptive;
  opts.bytes_per_elem = 8.0;
  opts.measured = &measured;
  const auto plans = build_all_plans(cluster, irs, kAdaptive);  // a-priori: framed
  std::vector<CoalescePlan> fed(static_cast<std::size_t>(nprocs));
  cluster.run([&](mp::Process& p) {
    fed[static_cast<std::size_t>(p.rank())] =
        sched::coalesce(p, irs[static_cast<std::size_t>(p.rank())].schedule,
                        sim::CpuCostModel::free(), opts);
  });
  // A-priori both node pairs frame; measured demotes 0->1 but keeps 1->0.
  EXPECT_EQ(plans[0].gather.send_frames.size(), 1u);
  EXPECT_EQ(fed[0].gather.send_frames.size(), 0u);
  EXPECT_EQ(fed[4].gather.send_frames.size(), 1u);

  const auto plain = run_exchange(cluster, irs, nullptr);
  const auto demoted = run_exchange(cluster, irs, &fed);
  for (int r = 0; r < nprocs; ++r) {
    test::expect_vectors_eq(demoted.first[static_cast<std::size_t>(r)],
                            plain.first[static_cast<std::size_t>(r)]);
    test::expect_vectors_eq(demoted.second[static_cast<std::size_t>(r)],
                            plain.second[static_cast<std::size_t>(r)]);
  }
}

}  // namespace
}  // namespace stance
