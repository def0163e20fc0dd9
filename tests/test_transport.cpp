// Transport conformance suite: every backend must deliver the same bytes in
// the same per-(source, tag) order and — because Process owns all clock
// charging — produce bit-identical virtual times. The suite runs each
// behavioral contract against the virtual oracle, the TCP backend on two
// nodes (intra- and inter-node pairs), and the TCP backend on one node
// (every pair co-resident, no sockets), plus TCP-only failure-injection
// tests (malformed wire frames must surface as recoverable
// mp::TransportError).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/gather_scatter.hpp"
#include "graph/builders.hpp"
#include "mp/cluster.hpp"
#include "mp/errors.hpp"
#include "mp/transport_tcp.hpp"
#include "sched/coalesce.hpp"
#include "test_util.hpp"

namespace stance {
namespace {

using mp::TransportKind;

/// One conformance instance: a backend and its rank-to-node layout.
struct Backend {
  TransportKind kind;
  int per_node;  ///< ranks per NodeMap node
  const char* name;
};

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param.name;
}

/// 4 ranks on 2 nodes: ranks 0,1 co-resident, ranks 2,3 co-resident —
/// every test exercises both the intra-node and the inter-node path.
mp::Cluster make_cluster(TransportKind kind, int nprocs = 4, int per_node = 2) {
  return mp::Cluster(sim::MachineSpec::uniform(static_cast<std::size_t>(nprocs)),
                     mp::NodeMap::contiguous(nprocs, per_node), kind);
}

mp::Cluster make_cluster(const Backend& backend) {
  return make_cluster(backend.kind, 4, backend.per_node);
}

class TransportConformance : public ::testing::TestWithParam<Backend> {};

TEST_P(TransportConformance, PointToPointFifoPerSourceAndTag) {
  // Ranks 0 and 1 both stream interleaved tag-1/tag-2 sequences at rank 2
  // (inter-node for both on the 2x2 layout); rank 2 drains them in an order
  // that only works if matching is exact per (source, tag) and FIFO within
  // each pair.
  constexpr int kMsgs = 32;
  auto cluster = make_cluster(GetParam());
  cluster.run([&](mp::Process& p) {
    if (p.rank() == 0 || p.rank() == 1) {
      for (int i = 0; i < kMsgs; ++i) {
        p.send_value(2, /*tag=*/1 + (i % 2), p.rank() * 1000 + i);
      }
    }
    if (p.rank() == 2) {
      for (const mp::Rank src : {0, 1}) {
        // Drain tag 2 first even though tag 1 arrived first: matching must
        // not be confused by older non-matching messages in the lane.
        for (int i = 1; i < kMsgs; i += 2) {
          EXPECT_EQ(p.recv_value<int>(src, 2), src * 1000 + i) << "src " << src;
        }
        for (int i = 0; i < kMsgs; i += 2) {
          EXPECT_EQ(p.recv_value<int>(src, 1), src * 1000 + i) << "src " << src;
        }
      }
    }
  });
}

TEST_P(TransportConformance, IntraNodePairObeysFifoToo) {
  auto cluster = make_cluster(GetParam());
  cluster.run([&](mp::Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < 16; ++i) p.send_value(1, 7, i);
    }
    if (p.rank() == 1) {
      for (int i = 0; i < 16; ++i) EXPECT_EQ(p.recv_value<int>(0, 7), i);
    }
  });
}

TEST_P(TransportConformance, CollectivesDeliverEveryContribution) {
  auto cluster = make_cluster(GetParam());
  cluster.run([&](mp::Process& p) {
    p.barrier();
    std::vector<int> data{p.is_root() ? 77 : 0};
    p.bcast(0, data);
    EXPECT_EQ(data[0], 77);
    const auto all = p.allgather(p.rank());
    for (int r = 0; r < p.nprocs(); ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
    EXPECT_DOUBLE_EQ(p.allreduce_sum(1.0), 4.0);
    const auto sizes = p.allgatherv(std::span<const int>(all.data(),
                                                         static_cast<std::size_t>(
                                                             p.rank() + 1)));
    for (int r = 0; r < p.nprocs(); ++r) {
      EXPECT_EQ(sizes[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r + 1));
    }
  });
}

TEST_P(TransportConformance, MulticastReachesEveryDestination) {
  auto cluster = make_cluster(GetParam());
  cluster.run([&](mp::Process& p) {
    const std::vector<mp::Rank> dests{1, 2, 3};
    const std::vector<int> payload{5, 6, 7};
    if (p.rank() == 0) {
      p.multicast(dests, /*tag=*/9, payload);
    } else {
      EXPECT_EQ(p.recv<int>(0, 9), payload);
    }
  });
}

TEST_P(TransportConformance, AlltoallvMatchesAcrossBackends) {
  auto cluster = make_cluster(GetParam());
  cluster.run([&](mp::Process& p) {
    std::vector<std::vector<int>> outgoing(4);
    for (int r = 0; r < 4; ++r) {
      outgoing[static_cast<std::size_t>(r)] = {p.rank() * 10 + r};
    }
    const auto incoming = p.alltoallv(outgoing);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(incoming[static_cast<std::size_t>(r)].size(), 1u);
      EXPECT_EQ(incoming[static_cast<std::size_t>(r)][0], r * 10 + p.rank());
    }
  });
}

TEST_P(TransportConformance, ShutdownWhileBlockedReleasesAndClusterStaysUsable) {
  auto cluster = make_cluster(GetParam());
  EXPECT_THROW(
      cluster.run([](mp::Process& p) {
        if (p.rank() == 0) throw std::invalid_argument("injected failure");
        (void)p.recv_raw(0, /*tag=*/99);  // would block forever
      }),
      std::invalid_argument);
  // The abort path resets the transport: the same cluster must run again.
  cluster.run([](mp::Process& p) {
    if (p.rank() == 0) p.send_value(3, 5, 123);
    if (p.rank() == 3) {
      EXPECT_EQ(p.recv_value<int>(0, 5), 123);
    }
  });
}

// --- the oracle: byte- and virtual-time-equivalence vs the virtual backend --

struct ExchangeResult {
  std::vector<std::vector<double>> ghost;
  std::vector<std::vector<double>> local;
  std::vector<double> finish_times;
};

/// The coalesced gather/scatter exchange from the executor suite, run on
/// `kind` with `per_node` ranks per node. Coalesced frames are the
/// transport's hardest traffic: tag-transformed, delegate-routed, mixing
/// intra-node forwards with inter-node frames.
ExchangeResult run_coalesced_exchange(TransportKind kind, int per_node,
                                      const std::vector<sched::InspectorResult>& results) {
  constexpr int kRanks = 4;
  mp::Cluster cluster(sim::MachineSpec::uniform(kRanks),
                      mp::NodeMap::contiguous(kRanks, per_node), kind);
  std::vector<sched::CoalescePlan> plans(kRanks);
  cluster.run([&](mp::Process& p) {
    plans[static_cast<std::size_t>(p.rank())] = sched::coalesce(
        p, results[static_cast<std::size_t>(p.rank())].schedule,
        sim::CpuCostModel::free());
  });

  ExchangeResult out;
  out.ghost.resize(kRanks);
  out.local.resize(kRanks);
  std::vector<exec::ExecWorkspace> ws(kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) {
    const auto& s = results[r].schedule;
    out.local[r] = test::seeded_values(static_cast<std::size_t>(s.nlocal), 42 + r);
    out.ghost[r].assign(static_cast<std::size_t>(s.nghost), 0.0);
  }
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const auto& s = results[r].schedule;
    for (int it = 0; it < 3; ++it) {
      exec::gather_coalesced<double>(p, s, plans[r], out.local[r],
                                     std::span<double>(out.ghost[r]), ws[r]);
      exec::scatter_add_coalesced<double>(p, s, plans[r], out.ghost[r],
                                          std::span<double>(out.local[r]), ws[r]);
    }
  });
  out.finish_times = cluster.finish_times();
  return out;
}

TEST_P(TransportConformance, CoalescedExchangeIsByteIdenticalToVirtualOracle) {
  Rng rng(2026);
  const graph::Csr g = graph::random_delaunay(900, 2026);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto results = test::build_all_schedules(g, part);

  // The oracle runs on the same node layout: the layout decides which
  // frames coalesce, so it is part of the experiment, not the transport.
  const int per_node = GetParam().per_node;
  const ExchangeResult oracle =
      run_coalesced_exchange(TransportKind::kVirtual, per_node, results);
  const ExchangeResult mine = run_coalesced_exchange(GetParam().kind, per_node, results);

  for (std::size_t r = 0; r < 4; ++r) {
    test::expect_vectors_eq(mine.ghost[r], oracle.ghost[r]);
    test::expect_vectors_eq(mine.local[r], oracle.local[r]);
    // Virtual times are charged by Process, not the transport: they must be
    // bit-identical, not merely close.
    EXPECT_EQ(mine.finish_times[r], oracle.finish_times[r]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TransportConformance,
                         ::testing::Values(Backend{TransportKind::kVirtual, 2, "virtual"},
                                           Backend{TransportKind::kTcp, 2, "tcp"},
                                           Backend{TransportKind::kTcp, 4, "tcp_one_node"}),
                         backend_name);

// --- TCP-only: untrusted-wire failure paths ---------------------------------

TEST(TcpTransport, MalformedWireFrameSurfacesAsAttributedTransportError) {
  // A peer that writes garbage on the wire must produce a recoverable
  // mp::TransportError in the blocked receiver — never a process abort —
  // and the error must attribute the failing entity: a desynced byte
  // stream names the peer *node* (no rank can be recovered from garbage).
  auto cluster = make_cluster(TransportKind::kTcp);
  auto* tcp = dynamic_cast<mp::TcpTransport*>(&cluster.transport());
  ASSERT_NE(tcp, nullptr);
  try {
    cluster.run([&](mp::Process& p) {
      if (p.rank() == 0) {
        std::vector<std::byte> junk(64, std::byte{0xA5});
        tcp->corrupt_wire(/*from_node=*/0, /*to_node=*/1, junk);
      }
      if (p.rank() == 2) {
        (void)p.recv_raw(0, /*tag=*/1);  // blocked on the poisoned wire
      }
    });
    FAIL() << "garbage on the wire went unnoticed";
  } catch (const mp::TransportError& e) {
    EXPECT_EQ(e.peer(), -1);  // a rank cannot be recovered from garbage
    EXPECT_EQ(e.peer_node(), 0);
    EXPECT_EQ(e.cause(), mp::FailCause::kMalformedFrame);
  }
}

TEST(TcpTransport, SizeMismatchedFrameIsRecoverableOnUntrustedWire) {
  // recv_into's shape check is an assertion on trusted backends; on TCP the
  // bytes crossed a real wire, so the same mismatch must throw — attributing
  // the sending rank, which recv_into knows exactly.
  auto cluster = make_cluster(TransportKind::kTcp);
  try {
    cluster.run([](mp::Process& p) {
      if (p.rank() == 0) {
        const std::vector<int> three{1, 2, 3};
        p.send(2, /*tag=*/4, three);
      }
      if (p.rank() == 2) {
        std::vector<int> two(2);
        p.recv_into(0, /*tag=*/4, std::span<int>(two));
      }
    });
    FAIL() << "size mismatch went unnoticed";
  } catch (const mp::TransportError& e) {
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.peer_node(), 0);
    EXPECT_EQ(e.cause(), mp::FailCause::kPayloadMismatch);
  }
}

TEST(TcpTransport, SingleNodeMapNeedsNoSockets) {
  // All ranks co-resident: the TCP backend degrades to pure in-memory
  // mailbox delivery and must work without opening a single socket.
  mp::Cluster cluster(sim::MachineSpec::uniform(3),
                      mp::NodeMap::contiguous(3, 3), TransportKind::kTcp);
  cluster.run([](mp::Process& p) {
    if (p.rank() == 0) p.send_value(2, 1, 11);
    if (p.rank() == 2) {
      EXPECT_EQ(p.recv_value<int>(0, 1), 11);
    }
    p.barrier();
  });
}

TEST(TcpTransport, OneNodeSilentPeerIsDeclaredDeadByDeadline) {
  // The receive deadline guards co-resident pairs too: with every rank on
  // one node no socket is involved, yet a silent peer is still declared
  // dead and the survivors shrink cleanly.
  mp::Cluster cluster(sim::MachineSpec::uniform(2), mp::NodeMap::contiguous(2, 2),
                      TransportKind::kTcp);
  cluster.transport().set_peer_timeout_ms(100);
  cluster.run([](mp::Process& p) {
    if (p.rank() == 0) return;  // never sends
    try {
      (void)p.recv_raw(0, /*tag=*/1);
      FAIL() << "receive completed without a sender";
    } catch (const mp::PeerFailed& e) {
      EXPECT_EQ(e.peer(), 0);
      EXPECT_EQ(e.cause(), mp::FailCause::kTimeout);
      EXPECT_EQ(p.agree_on_survivors().survivors, (std::vector<mp::Rank>{1}));
    }
  });
  EXPECT_EQ(cluster.dead_ranks(), (std::vector<mp::Rank>{0}));
}

TEST(TransportFactory, EnvSelectionAndValidation) {
  // Concrete kinds pass through resolve unchanged.
  EXPECT_EQ(mp::resolve_transport_kind(TransportKind::kTcp), TransportKind::kTcp);
  EXPECT_EQ(mp::resolve_transport_kind(TransportKind::kVirtual), TransportKind::kVirtual);
  // kDefault honors STANCE_TRANSPORT (and falls back to virtual when unset).
  const char* old = std::getenv("STANCE_TRANSPORT");
  const std::string saved = old ? old : "";
  ::setenv("STANCE_TRANSPORT", "tcp", 1);
  EXPECT_EQ(mp::resolve_transport_kind(TransportKind::kDefault), TransportKind::kTcp);
  // "shm" names no backend: it fails like any unknown value (no alias).
  for (const char* bad : {"shm", "bogus"}) {
    ::setenv("STANCE_TRANSPORT", bad, 1);
    EXPECT_THROW((void)mp::resolve_transport_kind(TransportKind::kDefault),
                 std::invalid_argument)
        << bad;
  }
  ::unsetenv("STANCE_TRANSPORT");
  EXPECT_EQ(mp::resolve_transport_kind(TransportKind::kDefault),
            TransportKind::kVirtual);
  if (old) ::setenv("STANCE_TRANSPORT", saved.c_str(), 1);
}

}  // namespace
}  // namespace stance
