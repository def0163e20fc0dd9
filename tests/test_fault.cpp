// Fault-injection and failure-detection suite (ISSUE 7). Covers the
// deterministic FaultInjector rules, the fail-stop membership protocol
// (mark_dead / PeerFailed / agree_on_survivors), injected frame faults
// (drop / delay / truncate / corrupt) on every backend, receive-deadline
// failure detection on the real backends, and the Cluster::run watchdog.
// Registered under `ctest -L fault`; the _shm/_tcp variants re-run the
// whole file on the real transports via STANCE_TRANSPORT.
//
// The liveness contract under test: an injected fault must never hang a
// rank — every blocked operation resolves into PeerFailed (and recovery),
// RankKilled, or a clean deadline abort.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "mp/cluster.hpp"
#include "mp/errors.hpp"
#include "mp/fault.hpp"
#include "test_util.hpp"

namespace stance {
namespace {

using mp::FailCause;
using mp::FaultPlan;
using mp::FrameFault;
using mp::FrameRule;
using mp::KillRule;

using test::ScopedEnv;

mp::Cluster make_cluster(int nprocs) {
  return mp::Cluster(sim::MachineSpec::uniform(static_cast<std::size_t>(nprocs)),
                     mp::TransportKind::kDefault);
}

// --- FaultInjector rule semantics -------------------------------------------

TEST(FaultInjector, KillRuleFiresExactlyOnce) {
  mp::FaultInjector inj(FaultPlan{.kills = {KillRule{.rank = 1, .after_sends = 3}}, .frames = {}});
  EXPECT_FALSE(inj.should_die(1, 0.0, 2));
  EXPECT_FALSE(inj.should_die(0, 0.0, 100));  // other ranks unaffected
  EXPECT_TRUE(inj.should_die(1, 0.0, 3));
  EXPECT_FALSE(inj.should_die(1, 0.0, 4));  // fired; never again
}

TEST(FaultInjector, KillRuleByVirtualTime) {
  mp::FaultInjector inj(
      FaultPlan{.kills = {KillRule{.rank = 0, .at_virtual_time = 5.0}}, .frames = {}});
  EXPECT_FALSE(inj.should_die(0, 4.999, 0));
  EXPECT_TRUE(inj.should_die(0, 5.0, 0));
  EXPECT_FALSE(inj.should_die(0, 6.0, 0));
}

TEST(FaultInjector, FrameRuleSkipsThenFaultsACount) {
  mp::FaultInjector inj(FaultPlan{
      .kills = {},
      .frames = {FrameRule{.from = 0, .to = 1, .after_nth = 2, .count = 2}}});
  EXPECT_FALSE(inj.on_frame(0, 1).touched());  // 1st
  EXPECT_FALSE(inj.on_frame(0, 1).touched());  // 2nd
  EXPECT_TRUE(inj.on_frame(0, 1).drop);        // 3rd
  EXPECT_TRUE(inj.on_frame(0, 1).drop);        // 4th
  EXPECT_FALSE(inj.on_frame(0, 1).touched());  // 5th: past the count
  EXPECT_FALSE(inj.on_frame(0, 2).touched());  // other pair never matches
}

TEST(FaultInjector, OnlyPayloadDamageUntrusts) {
  mp::FaultInjector drops(
      FaultPlan{.kills = {}, .frames = {FrameRule{.fault = FrameFault::kDrop}}});
  mp::FaultInjector delays(FaultPlan{
      .kills = {},
      .frames = {FrameRule{.fault = FrameFault::kDelay, .delay_seconds = 1.0}}});
  mp::FaultInjector truncates(FaultPlan{
      .kills = {},
      .frames = {FrameRule{.fault = FrameFault::kTruncate, .truncate_to = 4}}});
  mp::FaultInjector corrupts(
      FaultPlan{.kills = {}, .frames = {FrameRule{.fault = FrameFault::kCorrupt}}});
  EXPECT_FALSE(drops.untrusts());
  EXPECT_FALSE(delays.untrusts());
  EXPECT_TRUE(truncates.untrusts());
  EXPECT_TRUE(corrupts.untrusts());
}

TEST(FaultInjector, RejectsUnfireablePlans) {
  EXPECT_THROW(mp::FaultInjector(FaultPlan{.kills = {KillRule{.rank = -1}}, .frames = {}}),
               std::invalid_argument);
  EXPECT_THROW(mp::FaultInjector(FaultPlan{.kills = {KillRule{.rank = 0}}, .frames = {}}),
               std::invalid_argument);  // no trigger armed
  EXPECT_THROW(
      mp::FaultInjector(FaultPlan{.kills = {}, .frames = {FrameRule{.count = 0}}}),
      std::invalid_argument);
}

// --- transport membership protocol ------------------------------------------

TEST(TransportMembership, MarkDeadIsIdempotentAndBumpsEpochOnce) {
  auto cluster = make_cluster(4);
  auto& t = cluster.transport();
  const std::uint32_t before = t.epoch();
  t.mark_dead(2, FailCause::kTimeout);
  t.mark_dead(2, FailCause::kSocket);  // idempotent: first cause sticks
  EXPECT_EQ(t.epoch(), before + 1);
  EXPECT_TRUE(t.is_dead(2));
  EXPECT_FALSE(t.is_dead(0));
  EXPECT_EQ(t.dead_ranks(), (std::vector<mp::Rank>{2}));
  EXPECT_EQ(cluster.survivor_ranks(), (std::vector<mp::Rank>{0, 1, 3}));
  t.reset();
  EXPECT_TRUE(t.dead_ranks().empty());
}

// --- kill rules end to end ----------------------------------------------------

TEST(FaultPlanCluster, KilledRankSurfacesAsPeerFailedAndSurvivorsAgree) {
  auto cluster = make_cluster(4);
  // Rank 3 dies entering its very first operation (the barrier).
  cluster.set_fault_plan(FaultPlan{.kills = {KillRule{.rank = 3, .after_sends = 0}}, .frames = {}});
  std::vector<int> survivor_count(4, -1);
  cluster.run([&](mp::Process& p) {
    try {
      p.barrier();
      FAIL() << "rank " << p.rank() << " passed a barrier missing a member";
    } catch (const mp::PeerFailed& e) {
      EXPECT_EQ(e.peer(), 3);
      EXPECT_EQ(e.cause(), FailCause::kKilled);
      const auto agreement = p.agree_on_survivors();
      EXPECT_EQ(agreement.survivors, (std::vector<mp::Rank>{0, 1, 2}));
      survivor_count[static_cast<std::size_t>(p.rank())] =
          static_cast<int>(agreement.survivors.size());
      // Ordinary communication works again among the survivors.
      if (p.rank() == 0) p.send_value(1, /*tag=*/5, 77);
      if (p.rank() == 1) {
        EXPECT_EQ(p.recv_value<int>(0, 5), 77);
      }
      p.barrier();
    }
  });
  EXPECT_EQ(cluster.dead_ranks(), (std::vector<mp::Rank>{3}));
  EXPECT_EQ(cluster.survivor_ranks(), (std::vector<mp::Rank>{0, 1, 2}));
  for (const mp::Rank r : {0, 1, 2}) {
    EXPECT_EQ(survivor_count[static_cast<std::size_t>(r)], 3) << "rank " << r;
  }
}

TEST(FaultPlanCluster, KillByVirtualTimeMidLoop) {
  auto cluster = make_cluster(3);
  cluster.set_fault_plan(
      FaultPlan{.kills = {KillRule{.rank = 0, .at_virtual_time = 1.0}}, .frames = {}});
  cluster.run([&](mp::Process& p) {
    try {
      for (int it = 0; it < 10; ++it) {
        p.compute(0.3);
        p.barrier();
      }
      FAIL() << "rank " << p.rank() << " outlived the kill";
    } catch (const mp::PeerFailed& e) {
      EXPECT_EQ(e.peer(), 0);
      EXPECT_EQ(e.cause(), FailCause::kKilled);
      (void)p.agree_on_survivors();
    }
  });
  EXPECT_EQ(cluster.dead_ranks(), (std::vector<mp::Rank>{0}));
}

TEST(FaultPlanCluster, PlanClearsAndClusterRunsCleanAgain) {
  auto cluster = make_cluster(2);
  cluster.set_fault_plan(FaultPlan{.kills = {KillRule{.rank = 1, .after_sends = 0}}, .frames = {}});
  cluster.run([](mp::Process& p) {
    if (p.rank() == 1) {
      p.compute(0.0);  // dies here
      return;
    }
    try {
      p.barrier();
    } catch (const mp::PeerFailed&) {
      (void)p.agree_on_survivors();
    }
  });
  EXPECT_EQ(cluster.dead_ranks(), (std::vector<mp::Rank>{1}));
  cluster.set_fault_plan(FaultPlan{});  // empty plan clears injection
  EXPECT_EQ(cluster.fault_plan(), nullptr);
  cluster.transport().reset();
  cluster.run([](mp::Process& p) {
    if (p.rank() == 0) p.send_value(1, 1, 9);
    if (p.rank() == 1) {
      EXPECT_EQ(p.recv_value<int>(0, 1), 9);
    }
  });
  EXPECT_TRUE(cluster.dead_ranks().empty());
}

// --- frame faults -------------------------------------------------------------

TEST(FaultPlanCluster, DroppedFrameNeverHangsARank) {
  // The dropped message leaves rank 1 blocked. On the real backends the
  // receive deadline declares the silent peer dead (PeerFailed/kTimeout and
  // a clean shrink to {1}); the virtual oracle has no failure detector, so
  // the run watchdog must fail the job instead. Either way: no hang.
  auto cluster = make_cluster(2);
  cluster.set_fault_plan(FaultPlan{
      .kills = {},
      .frames = {FrameRule{.from = 0, .to = 1, .fault = FrameFault::kDrop}}});
  if (cluster.transport_kind() == mp::TransportKind::kVirtual) {
    ScopedEnv deadline("STANCE_RUN_DEADLINE_MS", "2000");
    try {
      cluster.run([](mp::Process& p) {
        if (p.rank() == 0) p.send_value(1, /*tag=*/7, 42);
        if (p.rank() == 1) (void)p.recv_value<int>(0, 7);
      });
      FAIL() << "watchdog did not fire";
    } catch (const mp::RunDeadlineExceeded& e) {
      EXPECT_NE(std::string(e.what()).find("rank 1: blocked"), std::string::npos)
          << e.what();
    }
    return;
  }
  cluster.transport().set_peer_timeout_ms(150);
  cluster.run([](mp::Process& p) {
    if (p.rank() == 0) {
      p.send_value(1, /*tag=*/7, 42);
      return;  // finished; its liveness stamp freezes
    }
    try {
      (void)p.recv_value<int>(0, 7);
      FAIL() << "dropped frame was delivered";
    } catch (const mp::PeerFailed& e) {
      EXPECT_EQ(e.peer(), 0);
      EXPECT_EQ(e.cause(), FailCause::kTimeout);
      const auto agreement = p.agree_on_survivors();
      EXPECT_EQ(agreement.survivors, (std::vector<mp::Rank>{1}));
    }
  });
  EXPECT_EQ(cluster.dead_ranks(), (std::vector<mp::Rank>{0}));
}

TEST(FaultPlanCluster, DelayedFrameArrivesLateButIntact) {
  constexpr double kDelay = 2.5;
  auto cluster = make_cluster(2);
  cluster.set_fault_plan(FaultPlan{
      .kills = {},
      .frames = {FrameRule{.from = 0, .to = 1, .fault = FrameFault::kDelay,
                           .delay_seconds = kDelay}}});
  cluster.run([&](mp::Process& p) {
    if (p.rank() == 0) p.send_value(1, /*tag=*/3, 1234);
    if (p.rank() == 1) {
      EXPECT_EQ(p.recv_value<int>(0, 3), 1234);
      EXPECT_GE(p.now(), kDelay);  // the delay is charged as arrival latency
    }
  });
}

TEST(FaultPlanCluster, TruncatedFrameSurfacesAsAttributedTransportError) {
  // A payload-damaging plan makes every backend untrusted: the shape check
  // must surface as a recoverable TransportError naming the sender, not an
  // internal assertion.
  auto cluster = make_cluster(2);
  cluster.set_fault_plan(FaultPlan{
      .kills = {},
      .frames = {FrameRule{.from = 0, .to = 1, .fault = FrameFault::kTruncate,
                           .truncate_to = 4}}});
  EXPECT_FALSE(cluster.transport().trusted());
  try {
    cluster.run([](mp::Process& p) {
      if (p.rank() == 0) {
        const std::vector<int> three{1, 2, 3};
        p.send(1, /*tag=*/4, three);
      }
      if (p.rank() == 1) {
        std::vector<int> out(3);
        p.recv_into(0, /*tag=*/4, std::span<int>(out));
      }
    });
    FAIL() << "truncated frame passed the shape check";
  } catch (const mp::TransportError& e) {
    EXPECT_EQ(e.peer(), 0);
    EXPECT_EQ(e.cause(), FailCause::kPayloadMismatch);
  }
}

TEST(FaultPlanCluster, CorruptedFrameDeliversDeterministicallyDamagedBytes) {
  auto cluster = make_cluster(2);
  cluster.set_fault_plan(FaultPlan{
      .kills = {},
      .frames = {FrameRule{.from = 0, .to = 1, .fault = FrameFault::kCorrupt}}});
  cluster.run([](mp::Process& p) {
    constexpr std::uint32_t kSent = 0x11223344u;
    if (p.rank() == 0) p.send_value(1, /*tag=*/2, kSent);
    if (p.rank() == 1) {
      // Corruption XORs every payload byte with 0xA5 — deterministic, so the
      // damage is assertable, and size-preserving, so it passes shape checks
      // and must be caught by application-level validation.
      EXPECT_EQ(p.recv_value<std::uint32_t>(0, 2), kSent ^ 0xA5A5A5A5u);
    }
  });
}

// --- watchdog -----------------------------------------------------------------

TEST(Watchdog, DeadlockedRunFailsWithRankStateDump) {
  auto cluster = make_cluster(2);
  ScopedEnv deadline("STANCE_RUN_DEADLINE_MS", "300");
  try {
    cluster.run([](mp::Process& p) {
      if (p.rank() == 0) (void)p.recv_raw(1, /*tag=*/9);  // nobody sends
    });
    FAIL() << "watchdog did not fire";
  } catch (const mp::RunDeadlineExceeded& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("STANCE_RUN_DEADLINE_MS"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0: blocked"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1: finished"), std::string::npos) << what;
  }
  // The abort resets the transport: the same cluster must run again.
  cluster.run([](mp::Process& p) {
    if (p.rank() == 0) p.send_value(1, 1, 5);
    if (p.rank() == 1) {
      EXPECT_EQ(p.recv_value<int>(0, 1), 5);
    }
  });
}

// --- timeout-based failure detection (real backends) -------------------------

TEST(FailureDetection, SilentPeerIsDeclaredDeadWithinTheDeadline) {
  auto cluster = make_cluster(2);
  if (cluster.transport_kind() == mp::TransportKind::kVirtual) {
    GTEST_SKIP() << "the virtual oracle has no failure detector (watchdog covers it)";
  }
  cluster.transport().set_peer_timeout_ms(100);
  cluster.run([](mp::Process& p) {
    if (p.rank() == 0) return;  // never sends: indistinguishable from hung
    try {
      (void)p.recv_raw(0, /*tag=*/1);
      FAIL() << "receive completed without a sender";
    } catch (const mp::PeerFailed& e) {
      EXPECT_EQ(e.peer(), 0);
      EXPECT_EQ(e.cause(), FailCause::kTimeout);
      const auto agreement = p.agree_on_survivors();
      EXPECT_EQ(agreement.survivors, (std::vector<mp::Rank>{1}));
    }
  });
  EXPECT_EQ(cluster.dead_ranks(), (std::vector<mp::Rank>{0}));
}

}  // namespace
}  // namespace stance
