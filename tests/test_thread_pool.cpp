// ThreadPool (support/thread_pool.hpp): chunk coverage, deterministic chunk
// boundaries, reuse, and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace stance {
namespace {

using support::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{2047}, std::size_t{2048}, std::size_t{65536}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfScheduling) {
  // The same (n, threads) always yields the same chunking: record the chunk
  // a writing thread was given for each index and compare two runs.
  ThreadPool pool(4);
  const std::size_t n = 10000;
  auto chunk_of = [&] {
    std::vector<std::size_t> begin_of(n);
    pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) begin_of[i] = b;
    });
    return begin_of;
  };
  EXPECT_EQ(chunk_of(), chunk_of());
}

TEST(ThreadPool, ReusableAcrossManyRuns) {
  ThreadPool pool(3);
  std::vector<std::int64_t> data(4096);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(data.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) data[i] = static_cast<std::int64_t>(i) + round;
    });
    EXPECT_EQ(data[0], round);
    EXPECT_EQ(data[4095], 4095 + round);
  }
}

// --- exception safety ---------------------------------------------------------
// parallel_for(T, ...) on a T-thread pool hands chunk i (index i) to thread
// i: chunk 0 is the caller's, the rest run on workers.

/// Runs one call where `throwing` chunks throw their index; returns the
/// index carried by the exception that escaped and checks that every chunk
/// ran to completion before the call returned.
int throw_from_chunks(ThreadPool& pool, const std::vector<bool>& throwing) {
  const std::size_t n = pool.threads();
  std::vector<std::atomic<int>> finished(n);
  int caught = -1;
  try {
    pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        if (throwing[i]) throw std::runtime_error(std::to_string(i));
        // Outlive the throwing chunks: the call must still wait for us.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        finished[i].store(1);
      }
    });
  } catch (const std::runtime_error& e) {
    caught = std::stoi(e.what());
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(finished[i].load(), throwing[i] ? 0 : 1) << "chunk " << i;
  }
  return caught;
}

TEST(ThreadPool, ThrowOnCallersChunkWaitsForWorkersThenRethrows) {
  ThreadPool pool(4);
  EXPECT_EQ(throw_from_chunks(pool, {true, false, false, false}), 0);
}

TEST(ThreadPool, ThrowOnWorkerChunkReachesTheCaller) {
  ThreadPool pool(4);
  EXPECT_EQ(throw_from_chunks(pool, {false, false, true, false}), 2);
}

TEST(ThreadPool, LowestIndexChunkExceptionWins) {
  ThreadPool pool(4);
  EXPECT_EQ(throw_from_chunks(pool, {false, true, false, true}), 1);
  EXPECT_EQ(throw_from_chunks(pool, {true, true, true, true}), 0);
}

TEST(ThreadPool, UsableAfterAThrow) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<bool> throwing(3, false);
    throwing[static_cast<std::size_t>(round % 3)] = true;
    EXPECT_EQ(throw_from_chunks(pool, throwing), round % 3);
    // A clean call right after: no stale exception resurfaces.
    std::vector<int> v(3000, 0);
    pool.parallel_for(v.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) v[i] = 1;
    });
    EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 3000);
  }
}

TEST(ThreadPool, InlineRunPropagatesExceptions) {
  ThreadPool pool(1);  // no workers: runs on the caller
  const auto throwing = [](std::size_t, std::size_t) { throw std::runtime_error("inline"); };
  EXPECT_THROW(pool.parallel_for(10, throwing), std::runtime_error);
}

}  // namespace
}  // namespace stance
