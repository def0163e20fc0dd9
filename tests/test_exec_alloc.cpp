// Allocation-counting hook for the executor's steady state (ISSUE 2
// acceptance): after a warm-up pass, gather/scatter iterations must perform
// zero heap allocations on every rank — payloads live in the persistent
// ExecWorkspace and message buffers round-trip through the mailbox pool.
//
// Global operator new is replaced with a thread-local counting shim; each
// virtual workstation is one thread, so a rank's counter measures exactly
// the allocations its own code path performed between two barriers. The
// guarantee holds on every backend (all of them deliver through the same
// pooled Mailboxes), so the STANCE_TRANSPORT=tcp re-run asserts it too.
// Threads that are not ranks (the tcp backend's frame readers) are counted
// together in one global counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "exec/edge_sweep.hpp"
#include "exec/gather_scatter.hpp"
#include "exec/irregular_loop.hpp"
#include "graph/builders.hpp"
#include "mp/cluster.hpp"
#include "mp/mailbox.hpp"
#include "mp/transport_tcp.hpp"
#include "sched/coalesce.hpp"
#include "test_util.hpp"

// The replacement operators below deliberately pair malloc with free; once
// call sites inline (e.g. make_unique of a header-only type at -O2), GCC's
// -Wmismatched-new-delete heuristic flags that pairing even though the
// replacement makes it correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

// Plain zero-initialized TLS: safe to touch from any allocation context.
thread_local std::size_t t_alloc_count = 0;
// Set by a test's rank bodies; allocations on every other thread also count
// in g_other_alloc_count.
thread_local bool t_rank_thread = false;
std::atomic<std::size_t> g_other_alloc_count{0};

void count_alloc() {
  ++t_alloc_count;
  if (!t_rank_thread) g_other_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stance {
namespace {

using exec::ExecWorkspace;

constexpr int kWarmup = 8;
constexpr int kMeasured = 16;

/// Measured allocations of `iteration`, run kMeasured times after kWarmup
/// warm-up rounds, per rank. Barriers fence the measurement so no rank is
/// still warming up while another is being measured.
template <typename F>
std::vector<std::size_t> measure_steady_state(mp::Cluster& cluster, F&& iteration) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(cluster.spec().nodes.size()));
  cluster.run([&](mp::Process& p) {
    for (int it = 0; it < kWarmup; ++it) iteration(p);
    p.barrier();
    const std::size_t before = t_alloc_count;
    for (int it = 0; it < kMeasured; ++it) iteration(p);
    counts[static_cast<std::size_t>(p.rank())] = t_alloc_count - before;
    p.barrier();
  });
  return counts;
}

TEST(ExecAlloc, GatherScatterSteadyStateIsAllocationFree) {
  Rng rng(99);
  const graph::Csr g = graph::random_delaunay(1500, 99);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto results = test::build_all_schedules(g, part);

  mp::Cluster cluster(sim::MachineSpec::uniform(4));
  std::vector<ExecWorkspace> ws(4);
  std::vector<std::vector<double>> local(4), ghost(4);
  for (std::size_t r = 0; r < 4; ++r) {
    const auto& s = results[r].schedule;
    local[r].assign(static_cast<std::size_t>(s.nlocal), 1.0 + static_cast<double>(r));
    ghost[r].assign(static_cast<std::size_t>(s.nghost), 0.0);
  }

  const auto counts = measure_steady_state(cluster, [&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const auto& s = results[r].schedule;
    exec::gather<double>(p, s, local[r], std::span<double>(ghost[r]), ws[r]);
    exec::scatter_add<double>(p, s, ghost[r], std::span<double>(local[r]), ws[r]);
  });
  for (std::size_t r = 0; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], 0u) << "rank " << r << " allocated in steady state";
  }
}

TEST(ExecAlloc, CoalescedExchangeSteadyStateIsAllocationFree) {
  // The framed path reuses the same arenas and mailbox pool, so it is
  // allocation-free once the plan exists and the pool is prewarmed.
  Rng rng(78);
  const graph::Csr g = graph::random_delaunay(1500, 78);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto results = test::build_all_schedules(g, part);

  mp::Cluster cluster(sim::MachineSpec::uniform(4), mp::NodeMap::contiguous(4, 2));
  std::vector<sched::CoalescePlan> plans(4);
  cluster.run([&](mp::Process& p) {
    plans[static_cast<std::size_t>(p.rank())] = sched::coalesce(
        p, results[static_cast<std::size_t>(p.rank())].schedule,
        sim::CpuCostModel::free());
  });

  std::vector<ExecWorkspace> ws(4);
  std::vector<std::vector<double>> local(4), ghost(4);
  for (std::size_t r = 0; r < 4; ++r) {
    const auto& s = results[r].schedule;
    local[r].assign(static_cast<std::size_t>(s.nlocal), 1.0 + static_cast<double>(r));
    ghost[r].assign(static_cast<std::size_t>(s.nghost), 0.0);
  }

  const auto counts = measure_steady_state(cluster, [&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const auto& s = results[r].schedule;
    exec::gather_coalesced<double>(p, s, plans[r], local[r],
                                   std::span<double>(ghost[r]), ws[r]);
    exec::scatter_add_coalesced<double>(p, s, plans[r], ghost[r],
                                        std::span<double>(local[r]), ws[r]);
  });
  for (std::size_t r = 0; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], 0u) << "rank " << r << " allocated in coalesced steady state";
  }
}

TEST(ExecAlloc, PrewarmTracksCountAndBytesIndependently) {
  // Regression for the prewarm memo: count and bytes are independent
  // dimensions. The old single-threshold check treated a request that
  // raised only one of them as already satisfied, so the pool was never
  // re-provisioned and the zero-alloc guarantee silently became
  // best-effort. Runs on every backend (all pools share the same cap
  // semantics).
  mp::Cluster cluster(sim::MachineSpec::uniform(1));
  cluster.run([&](mp::Process& p) {
    ExecWorkspace ws;
    ws.prewarm(p, 10, 64);
    EXPECT_EQ(ws.prewarm_count(), 10u);
    EXPECT_EQ(ws.prewarm_bytes(), 64u);
    // Raising only bytes must re-provision; the count memo is kept.
    ws.prewarm(p, 4, 128);
    EXPECT_EQ(ws.prewarm_count(), 10u);
    EXPECT_EQ(ws.prewarm_bytes(), 128u);
    // Raising only count, with smaller bytes: bytes memo survives.
    ws.prewarm(p, 12, 32);
    EXPECT_EQ(ws.prewarm_count(), 12u);
    EXPECT_EQ(ws.prewarm_bytes(), 128u);
    // A request the pool cap truncates is NOT memoized as satisfied.
    ws.prewarm(p, 1u << 20, 32);
    EXPECT_EQ(ws.prewarm_count(), 12u);
    EXPECT_EQ(ws.prewarm_bytes(), 128u);
  });
}

TEST(ExecAlloc, IrregularLoopSteadyStateIsAllocationFree) {
  Rng rng(7);
  const graph::Csr g = graph::random_delaunay(1200, 7);
  const auto part = test::random_partition(g.num_vertices(), 3, rng);
  const auto results = test::build_all_schedules(g, part);

  mp::Cluster cluster(sim::MachineSpec::uniform(3));
  std::vector<std::unique_ptr<exec::IrregularLoop>> loops(3);
  std::vector<std::vector<double>> y(3);
  for (std::size_t r = 0; r < 3; ++r) {
    loops[r] = std::make_unique<exec::IrregularLoop>(results[r].lgraph,
                                                     results[r].schedule);
    y[r].assign(static_cast<std::size_t>(results[r].schedule.nlocal), 1.0);
  }

  const auto sweep = [&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    loops[r]->iterate(p, y[r], 1);
  };
  const auto counts = measure_steady_state(cluster, sweep);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], 0u) << "rank " << r << " allocated in steady state";
  }

  // The delta pipeline's executor step: rebind to a new partition's
  // schedule, warm up, then count again. The sliced refs are rebuilt in
  // rebind(), never lazily inside iterate.
  const auto moved = test::random_partition(g.num_vertices(), 3, rng);
  const auto rebound = test::build_all_schedules(g, moved);
  for (std::size_t r = 0; r < 3; ++r) {
    loops[r]->rebind(rebound[r].lgraph, rebound[r].schedule);
    y[r].assign(static_cast<std::size_t>(rebound[r].schedule.nlocal), 1.0);
  }
  const auto rebound_counts = measure_steady_state(cluster, sweep);
  for (std::size_t r = 0; r < rebound_counts.size(); ++r) {
    EXPECT_EQ(rebound_counts[r], 0u) << "rank " << r << " allocated after rebind";
  }
}

TEST(ExecAlloc, RebindWithFreshCoalescePlanIsAllocationFree) {
  // A rebind followed by a plan built from scratch (sched::coalesce, not a
  // patch): the adaptive executor's path when the old plan cannot be
  // patched (fresh verdicts, or a delegate rotation). The workspace keeps
  // its prewarm memo across the rebind, so the coalesced exchange's own
  // requirements must still be provisioned before the measured sweeps.
  Rng rng(17);
  const graph::Csr g = graph::random_delaunay(1400, 17);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto results = test::build_all_schedules(g, part);

  mp::Cluster cluster(sim::MachineSpec::uniform(4), mp::NodeMap::contiguous(4, 2));
  std::vector<std::unique_ptr<exec::IrregularLoop>> loops(4);
  std::vector<std::vector<double>> y(4);
  for (std::size_t r = 0; r < 4; ++r) {
    loops[r] = std::make_unique<exec::IrregularLoop>(results[r].lgraph,
                                                     results[r].schedule);
    y[r].assign(static_cast<std::size_t>(results[r].schedule.nlocal), 1.0);
  }
  const auto sweep = [&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    loops[r]->iterate(p, y[r], 1);
  };
  const auto counts = measure_steady_state(cluster, sweep);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], 0u) << "rank " << r << " allocated before rebind";
  }

  const auto moved = test::random_partition(g.num_vertices(), 4, rng);
  const auto rebound = test::build_all_schedules(g, moved);
  std::vector<sched::CoalescePlan> plans(4);
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    plans[r] = sched::coalesce(p, rebound[r].schedule, sim::CpuCostModel::free());
  });
  std::size_t frames = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    frames += plans[r].gather.send_frames.size();
    loops[r]->rebind(rebound[r].lgraph, rebound[r].schedule);
    loops[r]->set_coalesce_plan(&plans[r]);
    y[r].assign(static_cast<std::size_t>(rebound[r].schedule.nlocal), 1.0);
  }
  ASSERT_GT(frames, 0u) << "the fresh plan must route some traffic through frames";
  const auto rebound_counts = measure_steady_state(cluster, sweep);
  for (std::size_t r = 0; r < rebound_counts.size(); ++r) {
    EXPECT_EQ(rebound_counts[r], 0u) << "rank " << r << " allocated after rebind + fresh plan";
  }
}

TEST(ExecAlloc, MailboxBucketThatNeverEmptiesStopsGrowing) {
  // A sender that stays one message ahead of its receiver keeps the key's
  // bucket from ever emptying. After warm-up the bucket must reuse its
  // consumed prefix rather than grow on every append.
  constexpr mp::Tag kTag = 5;
  mp::Mailbox box;
  box.deposit(mp::RawMessage{0, kTag, {}, 0.0});
  const auto step = [&] {
    box.deposit(mp::RawMessage{0, kTag, {}, 0.0});
    (void)box.take(0, kTag);
  };
  for (int it = 0; it < kWarmup; ++it) step();
  const std::size_t before = t_alloc_count;
  for (int it = 0; it < 4096; ++it) step();
  EXPECT_EQ(t_alloc_count - before, 0u);
}

TEST(ExecAlloc, TcpWireSteadyStateIsAllocationFree) {
  // The tcp reader's steady state: each exchange carries one payload larger
  // than the decoder buffer, received straight into its pooled mailbox
  // buffer, and a burst of small frames that one receive can hold several
  // of. Payload buffers are prefilled as an executor's prewarm does; then
  // neither the rank threads nor the reader threads may allocate. The
  // reader counter is read only between barriers that no frame crosses:
  // every frame of a phase is consumed before its closing barrier.
  constexpr std::size_t kLarge = 3 * mp::TcpTransport::kDecodeBufferBytes + 40;
  constexpr int kBurst = 6;
  mp::Cluster cluster(sim::MachineSpec::uniform(4), mp::NodeMap::contiguous(4, 2),
                      mp::TransportKind::kTcp);
  std::vector<std::size_t> counts(4);
  std::size_t reader_allocs = 0;
  cluster.run([&](mp::Process& p) {
    t_rank_thread = true;
    const mp::Rank peer = (p.rank() + 2) % 4;  // the same slot on the other node
    std::vector<std::byte> large(kLarge, static_cast<std::byte>(p.rank()));
    std::vector<std::byte> small(96, static_cast<std::byte>(p.rank()));
    std::vector<std::byte> large_in(kLarge);
    std::vector<std::byte> small_in(small.size());
    // A peer may send its next exchange before this rank has consumed the
    // current one: two exchanges deep.
    ASSERT_TRUE(p.prefill_recv_buffers(2 * (kBurst + 1), kLarge));
    const auto exchange = [&] {
      p.send(peer, /*tag=*/1, large);
      for (int i = 0; i < kBurst; ++i) p.send(peer, /*tag=*/2 + i, small);
      p.recv_into(peer, 1, std::span<std::byte>(large_in));
      for (int i = 0; i < kBurst; ++i) p.recv_into(peer, 2 + i, std::span<std::byte>(small_in));
    };
    for (int it = 0; it < kWarmup; ++it) exchange();
    p.barrier();
    const std::size_t others_before = g_other_alloc_count.load();
    p.barrier();
    const std::size_t before = t_alloc_count;
    for (int it = 0; it < kMeasured; ++it) exchange();
    counts[static_cast<std::size_t>(p.rank())] = t_alloc_count - before;
    p.barrier();
    if (p.rank() == 0) reader_allocs = g_other_alloc_count.load() - others_before;
    EXPECT_EQ(large_in[kLarge - 1], static_cast<std::byte>(peer));
  });
  for (std::size_t r = 0; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], 0u) << "rank " << r << " allocated in steady state";
  }
  EXPECT_EQ(reader_allocs, 0u) << "tcp reader threads allocated in steady state";
}

TEST(ExecAlloc, EdgeSweepSteadyStateIsAllocationFree) {
  Rng rng(13);
  const graph::Csr g = graph::random_delaunay(1200, 13);
  const auto part = test::random_partition(g.num_vertices(), 3, rng);
  const auto results = test::build_all_schedules(g, part);

  mp::Cluster cluster(sim::MachineSpec::uniform(3));
  std::vector<std::unique_ptr<exec::EdgeSweep>> sweeps(3);
  std::vector<std::vector<double>> y(3), acc(3);
  for (std::size_t r = 0; r < 3; ++r) {
    sweeps[r] = std::make_unique<exec::EdgeSweep>(results[r].lgraph,
                                                  results[r].schedule);
    const auto n = static_cast<std::size_t>(results[r].schedule.nlocal);
    y[r] = test::seeded_values(n, 13 + r);
    acc[r].assign(n, 0.0);
  }

  const auto counts = measure_steady_state(cluster, [&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    sweeps[r]->sweep(p, y[r], acc[r]);
  });
  for (std::size_t r = 0; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], 0u) << "rank " << r << " allocated in steady state";
  }
}

}  // namespace
}  // namespace stance
