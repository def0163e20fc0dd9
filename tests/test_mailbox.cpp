// Unit tests for mp::Mailbox and mp::Rendezvous, including threaded blocking
// behaviour and shutdown (failure-injection) paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "mp/errors.hpp"
#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "mp/rendezvous.hpp"

namespace stance::mp {
namespace {

RawMessage make_msg(Rank src, Tag tag, std::initializer_list<int> vals, double arrival) {
  std::vector<int> v(vals);
  return RawMessage{src, tag, to_bytes(std::span<const int>(v)), arrival};
}

TEST(Bytes, RoundTripInts) {
  std::vector<int> v{1, -2, 3, 2000000000};
  const auto bytes = to_bytes(std::span<const int>(v));
  EXPECT_EQ(bytes.size(), v.size() * sizeof(int));
  EXPECT_EQ(from_bytes<int>(bytes), v);
}

TEST(Bytes, RoundTripDoublesAndEmpty) {
  std::vector<double> v{1.5, -2.25, 0.0};
  EXPECT_EQ(from_bytes<double>(to_bytes(std::span<const double>(v))), v);
  std::vector<double> empty;
  EXPECT_TRUE(from_bytes<double>(to_bytes(std::span<const double>(empty))).empty());
}

TEST(Mailbox, TakeMatchesSourceAndTag) {
  Mailbox box;
  box.deposit(make_msg(1, 10, {111}, 0.0));
  box.deposit(make_msg(2, 10, {222}, 0.0));
  box.deposit(make_msg(1, 20, {333}, 0.0));
  const auto m = box.take(2, 10);
  EXPECT_EQ(from_bytes<int>(m.payload)[0], 222);
  EXPECT_EQ(box.pending(), 2u);
}

TEST(Mailbox, FifoPerSenderAndTag) {
  Mailbox box;
  box.deposit(make_msg(3, 7, {1}, 0.0));
  box.deposit(make_msg(3, 7, {2}, 0.0));
  box.deposit(make_msg(3, 7, {3}, 0.0));
  EXPECT_EQ(from_bytes<int>(box.take(3, 7).payload)[0], 1);
  EXPECT_EQ(from_bytes<int>(box.take(3, 7).payload)[0], 2);
  EXPECT_EQ(from_bytes<int>(box.take(3, 7).payload)[0], 3);
}

TEST(Mailbox, TryTakeReturnsEmptyWhenNoMatch) {
  Mailbox box;
  box.deposit(make_msg(1, 1, {9}, 0.0));
  EXPECT_FALSE(box.try_take(1, 2).has_value());
  EXPECT_FALSE(box.try_take(2, 1).has_value());
  EXPECT_TRUE(box.try_take(1, 1).has_value());
}

TEST(Mailbox, BlockingTakeWakesOnDeposit) {
  Mailbox box;
  std::atomic<bool> got{false};
  std::thread taker([&] {
    const auto m = box.take(5, 5);
    EXPECT_EQ(from_bytes<int>(m.payload)[0], 55);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  box.deposit(make_msg(5, 5, {55}, 1.0));
  taker.join();
  EXPECT_TRUE(got.load());
}

TEST(Mailbox, ShutdownReleasesBlockedTaker) {
  Mailbox box;
  std::atomic<bool> aborted{false};
  std::thread taker([&] {
    try {
      (void)box.take(1, 1);
    } catch (const ClusterAborted&) {
      aborted = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.shutdown();
  taker.join();
  EXPECT_TRUE(aborted.load());
}

TEST(Mailbox, DepositAfterShutdownIsDropped) {
  Mailbox box;
  box.shutdown();
  box.deposit(make_msg(1, 1, {1}, 0.0));
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, ClearKeepsShutdownSticky) {
  // A mailbox that released blocked takers must not be silently revived by
  // clear(): a still-unwinding peer's late deposit would leak into the next
  // run. Only the explicit reset() re-opens it.
  Mailbox box;
  box.shutdown();
  box.clear();
  box.deposit(make_msg(1, 1, {1}, 0.0));
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_THROW((void)box.try_take(1, 1), ClusterAborted);
}

TEST(Mailbox, ResetReenablesAfterShutdown) {
  Mailbox box;
  box.shutdown();
  box.reset();
  box.deposit(make_msg(1, 1, {1}, 0.0));
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_TRUE(box.try_take(1, 1).has_value());
}

TEST(Mailbox, TryTakeThrowsAfterShutdown) {
  Mailbox box;
  box.deposit(make_msg(1, 1, {9}, 0.0));
  box.shutdown();
  EXPECT_THROW((void)box.try_take(1, 1), ClusterAborted);
}

TEST(Mailbox, TakeThrowsImmediatelyWhenAlreadyDown) {
  // The non-blocking arm of the shutdown path: a taker that arrives after
  // shutdown must not wait for a deposit that can never come.
  Mailbox box;
  box.shutdown();
  EXPECT_THROW((void)box.take(2, 2), ClusterAborted);
}

TEST(Mailbox, ShutdownReleasesSeveralBlockedTakers) {
  Mailbox box;
  std::atomic<int> aborted{0};
  std::vector<std::thread> takers;
  for (int t = 0; t < 3; ++t) {
    takers.emplace_back([&, t] {
      try {
        (void)box.take(t, 7);
      } catch (const ClusterAborted&) {
        ++aborted;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.shutdown();
  for (auto& t : takers) t.join();
  EXPECT_EQ(aborted.load(), 3);
}

TEST(Mailbox, ClearDropsQueuedMessagesButKeepsPool) {
  Mailbox box;
  box.deposit(make_msg(1, 1, {1}, 0.0));
  box.deposit(make_msg(1, 2, {2}, 0.0));
  ASSERT_TRUE(box.prefill(1, 64));
  box.clear();
  EXPECT_EQ(box.pending(), 0u);
  // The pool survives a clear: prior prefill guarantees still hold, so this
  // acquire reuses pooled capacity rather than allocating fresh.
  const auto buffer = box.acquire(64);
  EXPECT_EQ(buffer.size(), 64u);
}

TEST(Mailbox, PrefillReportsTruncationAtPoolCap) {
  Mailbox box;
  EXPECT_TRUE(box.prefill(10, 32));
  // Asking beyond the pool cap must be reported, not silently satisfied.
  EXPECT_FALSE(box.prefill(100000, 32));
}

TEST(Mailbox, PrefillGrowsBufferCapacityAtPoolCap) {
  // Regression: once the pool sat at kMaxPooled with undersized buffers, a
  // request for the same count at bigger bytes could never be satisfied —
  // nothing could be appended and nothing was grown — so the executor's
  // prewarm retried (and failed) forever. The pool now grows buffers in
  // place when it is at the cap.
  Mailbox box;
  ASSERT_TRUE(box.prefill(BufferPool::kMaxPooled, 32));
  EXPECT_TRUE(box.prefill(BufferPool::kMaxPooled, 4096));
  // The grown capacity is real: acquiring at the new size reuses pooled
  // storage (allocation-freedom itself is asserted by test_exec_alloc).
  const auto buffer = box.acquire(4096);
  EXPECT_EQ(buffer.size(), 4096u);
}

TEST(Mailbox, RingOverflowPreservesFifoAndCount) {
  // Deposits beyond the lock-free ring's capacity spill to the overflow
  // queue; the consumer must still see every message, in per-sender order,
  // with cross-source matching intact.
  Mailbox box;
  const int total = static_cast<int>(Mailbox::kRingSlots) * 2 + 17;
  for (int i = 0; i < total; ++i) {
    box.deposit(make_msg(i % 2, 9, {i}, 0.0));
  }
  EXPECT_EQ(box.pending(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    const auto m = box.take(i % 2, 9);
    EXPECT_EQ(from_bytes<int>(m.payload)[0], i) << "out of order at " << i;
  }
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, FenceDropsQueuedClearsPoisonAndFiltersStaleEpochs) {
  Mailbox box;
  box.deposit(make_msg(1, 1, {1}, 0.0), /*epoch=*/0);
  box.poison(FailNotice{.what = "peer died", .peer = 2, .peer_failed = true});
  box.fence(/*floor=*/1);
  EXPECT_EQ(box.pending(), 0u);
  // Stale pre-recovery traffic is dropped; current-epoch deposits flow.
  box.deposit(make_msg(1, 1, {2}, 0.0), /*epoch=*/0);
  EXPECT_EQ(box.pending(), 0u);
  box.deposit(make_msg(1, 1, {3}, 0.0), /*epoch=*/1);
  const auto m = box.take(1, 1);
  EXPECT_EQ(from_bytes<int>(m.payload)[0], 3);
}

TEST(Mailbox, PoisonReleasesBlockedTakerWithTransportError) {
  Mailbox box;
  std::atomic<bool> got_error{false};
  std::thread taker([&] {
    try {
      (void)box.take(0, 1);
    } catch (const TransportError& e) {
      got_error = std::string(e.what()).find("bad wire") != std::string::npos;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.poison(FailNotice{.what = "bad wire", .cause = FailCause::kMalformedFrame});
  taker.join();
  EXPECT_TRUE(got_error.load());
  // Sticky across clear, revived by reset — and the first poison wins.
  box.poison(FailNotice{.what = "second reason"});
  box.clear();
  try {
    (void)box.take(0, 1);
    FAIL() << "poison did not survive clear()";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("bad wire"), std::string::npos) << e.what();
  }
  box.reset();
  box.deposit(make_msg(0, 1, {3}, 0.0));
  EXPECT_EQ(from_bytes<int>(box.take(0, 1).payload)[0], 3);
}

TEST(Mailbox, TakeForTimesOutEmpty) {
  Mailbox box;
  box.deposit(make_msg(1, 2, {7}, 0.0));  // wrong tag: must not match
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.take_for(1, 1, std::chrono::milliseconds(30)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(30));
  EXPECT_FALSE(box.take_for(1, 1, std::chrono::milliseconds(0)).has_value());
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, TakeForReturnsMessageDepositedDuringWait) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.deposit(make_msg(4, 4, {44}, 0.0));
  });
  const auto m = box.take_for(4, 4, std::chrono::seconds(30));
  producer.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(from_bytes<int>(m->payload)[0], 44);
}

TEST(Mailbox, TakeForRaisesPoisonDuringWait) {
  Mailbox box;
  std::thread poisoner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.poison(FailNotice{.what = "peer died",
                          .peer = 3,
                          .cause = FailCause::kTimeout,
                          .peer_failed = true});
  });
  try {
    (void)box.take_for(3, 1, std::chrono::seconds(30));
    ADD_FAILURE() << "poison did not release the bounded wait";
  } catch (const PeerFailed& e) {
    EXPECT_EQ(e.peer(), 3);
    EXPECT_EQ(e.cause(), FailCause::kTimeout);
  }
  poisoner.join();
}

TEST(Mailbox, TakeForRaisesClusterAbortedOnShutdownDuringWait) {
  Mailbox box;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.shutdown();
  });
  EXPECT_THROW((void)box.take_for(1, 1, std::chrono::seconds(30)), ClusterAborted);
  closer.join();
}

TEST(Rendezvous, SingleParticipantCompletesImmediately) {
  Rendezvous rv(1);
  std::vector<int> data{42};
  const auto round = rv.enter(0, 3.5, to_bytes(std::span<const int>(data)));
  ASSERT_EQ(round.blobs.size(), 1u);
  EXPECT_EQ(from_bytes<int>(round.blobs[0])[0], 42);
  EXPECT_DOUBLE_EQ(round.max_time, 3.5);
}

TEST(Rendezvous, CollectsAllBlobsAndMaxTime) {
  constexpr int kN = 4;
  Rendezvous rv(kN);
  std::vector<std::thread> threads;
  std::vector<Rendezvous::Round> rounds(kN);
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      std::vector<int> mine{r * 100};
      rounds[static_cast<std::size_t>(r)] =
          rv.enter(r, static_cast<double>(r), to_bytes(std::span<const int>(mine)));
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < kN; ++r) {
    const auto& round = rounds[static_cast<std::size_t>(r)];
    EXPECT_DOUBLE_EQ(round.max_time, 3.0);
    for (int s = 0; s < kN; ++s) {
      EXPECT_EQ(from_bytes<int>(round.blobs[static_cast<std::size_t>(s)])[0], s * 100);
    }
  }
}

TEST(Rendezvous, ReusableAcrossRounds) {
  constexpr int kN = 3;
  Rendezvous rv(kN);
  for (int round_no = 0; round_no < 5; ++round_no) {
    std::vector<std::thread> threads;
    std::vector<double> maxes(kN);
    for (int r = 0; r < kN; ++r) {
      threads.emplace_back([&, r] {
        std::vector<int> mine{round_no * 10 + r};
        const auto round =
            rv.enter(r, static_cast<double>(round_no), to_bytes(std::span<const int>(mine)));
        maxes[static_cast<std::size_t>(r)] = round.max_time;
        for (int s = 0; s < kN; ++s) {
          EXPECT_EQ(from_bytes<int>(round.blobs[static_cast<std::size_t>(s)])[0],
                    round_no * 10 + s);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const double m : maxes) EXPECT_DOUBLE_EQ(m, static_cast<double>(round_no));
  }
}

TEST(Rendezvous, ShutdownReleasesWaiters) {
  Rendezvous rv(2);
  std::atomic<bool> aborted{false};
  std::thread waiter([&] {
    try {
      (void)rv.enter(0, 0.0, {});
    } catch (const ClusterAborted&) {
      aborted = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rv.shutdown();
  waiter.join();
  EXPECT_TRUE(aborted.load());
}

}  // namespace
}  // namespace stance::mp
