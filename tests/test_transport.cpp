// Transport conformance suite: every backend must deliver the same bytes in
// the same per-(source, tag) order and — because Process owns all clock
// charging — produce bit-identical virtual times. The suite runs each
// behavioral contract against the virtual oracle, the TCP backend on two
// nodes (intra- and inter-node pairs), and the TCP backend on one node
// (every pair co-resident, no sockets), plus TCP-only failure-injection
// tests (malformed wire frames and frames nobody receives must surface as
// recoverable mp::TransportError) and seeded oracles for the tcp frame decoder (frames
// cut at random offsets, mutated headers, a forged frame size).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/gather_scatter.hpp"
#include "graph/builders.hpp"
#include "mp/cluster.hpp"
#include "mp/errors.hpp"
#include "mp/transport_tcp.hpp"
#include "sched/coalesce.hpp"
#include "support/assert.hpp"
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

// --- TCP-only: the frame decoder ---------------------------------------------

using WireHeader = mp::TcpTransport::WireHeader;
constexpr std::size_t kDecodeBytes = mp::TcpTransport::kDecodeBufferBytes;

/// One wire frame as TcpTransport::send writes it: header, then payload.
struct Frame {
  WireHeader header;
  std::vector<std::byte> payload;
};

Frame make_frame(mp::Rank from, mp::Rank to, mp::Tag tag, std::size_t size,
                 std::uint32_t epoch, Rng& rng) {
  Frame f{WireHeader{mp::TcpTransport::kMagic, epoch, from, to, tag,
                     static_cast<std::uint32_t>(size), 0.0},
          std::vector<std::byte>(size)};
  for (auto& b : f.payload) b = static_cast<std::byte>(rng());
  return f;
}

/// Append `header` and `payload` to `wire` as raw bytes.
void encode(const WireHeader& header, std::span<const std::byte> payload,
            std::vector<std::byte>& wire) {
  const auto* h = reinterpret_cast<const std::byte*>(&header);
  wire.insert(wire.end(), h, h + sizeof(header));
  wire.insert(wire.end(), payload.begin(), payload.end());
}

mp::TcpTransport& tcp_of(mp::Cluster& cluster) {
  auto* tcp = dynamic_cast<mp::TcpTransport*>(&cluster.transport());
  STANCE_REQUIRE(tcp != nullptr, "cluster does not run the tcp backend");
  return *tcp;
}

/// Resident set size of this process in bytes.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(TcpDecoder, FramesCutAtRandomOffsetsArriveByteExactInOrder) {
  // Valid frames from both node-0 ranks to both node-1 ranks, written as one
  // byte stream cut at seeded offsets: single bytes and cuts inside headers,
  // and writes carrying several frames. Sizes include an empty payload, the
  // largest frame the decoder buffer holds, one byte past it, and frames
  // several buffers long, so every decode path sees split input. Every
  // payload must arrive byte-exact and in per-(source, tag) order.
  test::ScopedEnv deadline("STANCE_RUN_DEADLINE_MS", "30000");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    auto cluster = make_cluster(TransportKind::kTcp);
    mp::TcpTransport& tcp = tcp_of(cluster);
    const std::vector<std::size_t> edge_sizes{0, kDecodeBytes - sizeof(WireHeader),
                                              kDecodeBytes - sizeof(WireHeader) + 1,
                                              3 * kDecodeBytes + 7};
    std::vector<Frame> frames;
    std::vector<std::byte> wire;
    for (int i = 0; i < 80; ++i) {
      const std::size_t size = i < static_cast<int>(edge_sizes.size())
                                   ? edge_sizes[static_cast<std::size_t>(i)]
                                   : rng.below(1500);
      frames.push_back(make_frame(static_cast<mp::Rank>(rng.below(2)),
                                  static_cast<mp::Rank>(2 + rng.below(2)),
                                  static_cast<mp::Tag>(1 + rng.below(3)), size,
                                  tcp.epoch(), rng));
    }
    shuffle(frames, rng);
    for (const Frame& f : frames) encode(f.header, f.payload, wire);
    std::vector<std::size_t> received(4, 0);
    cluster.run([&](mp::Process& p) {
      if (p.rank() == 0) {
        for (std::size_t at = 0; at < wire.size();) {
          const std::size_t len = std::min<std::size_t>(
              wire.size() - at, rng.below(4) == 0 ? 1 + rng.below(40) : 1 + rng.below(5000));
          tcp.corrupt_wire(0, 1, std::span<const std::byte>(wire).subspan(at, len));
          at += len;
          if (rng.below(3) == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      if (p.rank() < 2) return;
      for (const Frame& f : frames) {
        if (f.header.dest != p.rank()) continue;
        mp::RawMessage m = p.recv_raw(f.header.source, f.header.tag);
        EXPECT_EQ(m.payload, f.payload) << "seed " << seed << " rank " << p.rank();
        ++received[static_cast<std::size_t>(p.rank())];
        p.recycle(std::move(m));
      }
    });
    EXPECT_EQ(received[2] + received[3], frames.size()) << "seed " << seed;
  }
}

TEST(TcpDecoder, MutatedHeadersFailCleanlyWithinTheDeadline) {
  // A damaged frame A, then a valid frame B, on a fresh wire per case. A's
  // header has one field mutated (magic, source, dest, size, epoch, tag),
  // or A is cut short before B. Rank 2 receives A (when its header was
  // mutated) and then B with the expected sizes: each receive must return
  // the original bytes or raise TransportError/PeerFailed within about the
  // peer deadline. Nothing may crash or hang.
  test::ScopedEnv deadline("STANCE_RUN_DEADLINE_MS", "10000");
  constexpr int kTimeoutMs = 50;
  enum Field { kMagic, kSource, kDest, kSize, kEpoch, kTag, kTruncate, kFields };
  Rng rng(2024);
  const auto pick = [&](std::initializer_list<std::int64_t> values) {
    return *(values.begin() + rng.below(values.size()));
  };
  int failed = 0;
  int intact = 0;
  for (int c = 0; c < 6 * kFields; ++c) {
    const auto field = static_cast<Field>(c % kFields);
    auto cluster = make_cluster(TransportKind::kTcp);
    mp::TcpTransport& tcp = tcp_of(cluster);
    cluster.transport().set_peer_timeout_ms(kTimeoutMs);
    const std::uint32_t e = tcp.epoch();
    const Frame a = make_frame(0, 2, 1, 1 + rng.below(3000), e, rng);
    const Frame b = make_frame(0, 2, 2, 200, e, rng);
    const auto size = static_cast<std::int64_t>(a.payload.size());
    WireHeader bad = a.header;
    switch (field) {
      case kMagic: bad.magic ^= 1u << rng.below(32); break;
      case kSource: bad.source = static_cast<std::int32_t>(pick({-1, 1, 2, 3, 4, INT_MIN})); break;
      case kDest: bad.dest = static_cast<std::int32_t>(pick({-1, 0, 1, 3, 4, INT_MAX})); break;
      case kSize:
        bad.size = static_cast<std::uint32_t>(
            pick({0, size - 1, size + 1, size / 2, size + 232, mp::TcpTransport::kMaxFrameBytes,
                  mp::TcpTransport::kMaxFrameBytes + 1ll, UINT32_MAX}));
        break;
      case kEpoch: bad.epoch = e + static_cast<std::uint32_t>(pick({1, -1, 1 << 20})); break;
      case kTag: bad.tag = static_cast<std::int32_t>(pick({2, 3, -1, INT_MAX})); break;
      case kTruncate: case kFields: break;
    }
    std::vector<std::byte> wire;
    encode(bad, a.payload, wire);
    if (field == kTruncate) wire.resize(rng.below(wire.size()));
    encode(b.header, b.payload, wire);

    const auto start = std::chrono::steady_clock::now();
    try {
      // A failed receive escapes the run, so a frame the mutation sent to
      // another rank or key is not left behind as a missing receive.
      cluster.run([&](mp::Process& p) {
        if (p.rank() == 0) tcp.corrupt_wire(0, 1, wire);
        if (p.rank() != 2) return;
        std::vector<std::byte> got_a(a.payload.size());
        std::vector<std::byte> got_b(b.payload.size());
        if (field != kTruncate) {
          p.recv_into(0, 1, std::span<std::byte>(got_a));
          EXPECT_EQ(got_a, a.payload) << "case " << c;
        }
        p.recv_into(0, 2, std::span<std::byte>(got_b));
        EXPECT_EQ(got_b, b.payload) << "case " << c;
      });
      ++intact;
    } catch (const mp::TransportError&) {  // PeerFailed included
      ++failed;
    }
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    EXPECT_LT(ms, 40 * kTimeoutMs) << "case " << c << " took " << ms << " ms";
  }
  EXPECT_EQ(failed + intact, 6 * kFields);
  EXPECT_GT(failed, 5 * kFields);  // only a truncation that drops all of A leaves B intact
}

TEST(TcpDecoder, ForgedFrameSizeCommitsNoMemory) {
  // A valid header claiming the largest legal payload, then silence: the
  // reader must not commit memory for bytes that never arrive, and the
  // blocked receiver must fail with PeerFailed once the peer deadline runs
  // out.
  auto cluster = make_cluster(TransportKind::kTcp);
  mp::TcpTransport& tcp = tcp_of(cluster);
  cluster.transport().set_peer_timeout_ms(100);
  const WireHeader forged{mp::TcpTransport::kMagic, tcp.epoch(), 0, 2, 1,
                          mp::TcpTransport::kMaxFrameBytes, 0.0};
  std::vector<std::byte> wire;
  encode(forged, {}, wire);
  const std::size_t before = resident_bytes();
  bool peer_failed = false;
  cluster.run([&](mp::Process& p) {
    if (p.rank() == 0) tcp.corrupt_wire(0, 1, wire);
    if (p.rank() != 2) return;
    try {
      (void)p.recv_raw(0, 1);
    } catch (const mp::PeerFailed& e) {
      peer_failed = e.peer() == 0 && e.cause() == mp::FailCause::kTimeout;
    }
  });
  EXPECT_TRUE(peer_failed);
  const std::size_t after = resident_bytes();
  EXPECT_LT(after, before + (std::size_t{32} << 20))
      << "resident set grew by " << (after - before) << " bytes";
}

TEST(TcpTransport, StrayFrameFailsTheRunAndTheClusterStaysUsable) {
  // A peer writes a well-formed frame on a key nobody receives, then a frame
  // rank 2 does receive, so the stray frame is in rank 2's mailbox when the
  // run ends. On the untrusted wire that must fail the run with a
  // TransportError naming the mailbox, not abort the process, and the next
  // run on the same cluster must start clean.
  auto cluster = make_cluster(TransportKind::kTcp);
  mp::TcpTransport& tcp = tcp_of(cluster);
  Rng rng(7);
  const Frame stray = make_frame(0, 2, /*tag=*/9, 24, tcp.epoch(), rng);
  const Frame wanted = make_frame(0, 2, /*tag=*/1, 24, tcp.epoch(), rng);
  std::vector<std::byte> wire;
  encode(stray.header, stray.payload, wire);
  encode(wanted.header, wanted.payload, wire);
  try {
    cluster.run([&](mp::Process& p) {
      if (p.rank() == 0) tcp.corrupt_wire(0, 1, wire);
      if (p.rank() != 2) return;
      mp::RawMessage m = p.recv_raw(0, 1);
      EXPECT_EQ(m.payload, wanted.payload);
      p.recycle(std::move(m));
    });
    FAIL() << "a stray frame was left in a mailbox unnoticed";
  } catch (const mp::TransportError& e) {
    EXPECT_EQ(e.cause(), mp::FailCause::kMalformedFrame);
    EXPECT_NE(std::string(e.what()).find("rank 2's mailbox"), std::string::npos) << e.what();
  }
  cluster.run([](mp::Process& p) {
    if (p.rank() == 0) p.send_value(2, 1, 11);
    if (p.rank() == 2) {
      EXPECT_EQ(p.recv_value<int>(0, 1), 11);
    }
    p.barrier();
  });
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
