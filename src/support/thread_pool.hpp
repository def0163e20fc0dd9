// Fixed-size fork/join pool for data-parallel loops.
//
// parallel_for(n, f) splits [0, n) into one contiguous chunk per thread
// (the workers plus the calling thread) and blocks until every chunk ran.
// Chunk boundaries depend only on n and the thread count, and chunks are
// disjoint, so any kernel that writes each index at most once produces
// results byte-identical to the serial loop for every pool size — the
// property spectral ordering's subtree fan-out relies on (verified by
// tests/test_thread_pool.cpp and tests/test_ordering.cpp).
//
// Steady-state calls perform no heap allocation: the kernel is passed by
// reference (type-erased into a function pointer + context that outlive the
// blocking call), and synchronization is a mutex/condvar generation scheme
// whose state lives in fixed members. Constructing the pool (spawning
// workers) is the only allocating operation.
//
// A kernel may throw. Every chunk's exception is caught where it ran, the
// call still waits for all chunks (the kernel's context lives in the
// caller's frame), and then rethrows the exception of the lowest-index chunk
// that threw; the others are dropped. The pool stays usable afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"

namespace stance::support {

class ThreadPool {
 public:
  /// `threads` is the total parallelism including the caller: a pool of k
  /// spawns k-1 workers; a pool of 1 spawns none and runs kernels inline.
  explicit ThreadPool(unsigned threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threads() const noexcept { return nthreads_; }

  /// Run f(begin, end) over disjoint chunks covering [0, n); returns when
  /// all chunks finished. f is invoked concurrently from pool threads and
  /// the caller; everything it wrote happens-before the return. If chunks
  /// threw, the lowest-index chunk's exception is rethrown after all
  /// chunks finished.
  template <typename F>
  void parallel_for(std::size_t n, F&& f) {
    using Fn = std::remove_reference_t<F>;
    run(n,
        [](void* ctx, std::size_t b, std::size_t e) { (*static_cast<Fn*>(ctx))(b, e); },
        const_cast<void*>(static_cast<const void*>(&f)));
  }

 private:
  using Kernel = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// Chunk i of t equal chunks over [0, n).
  static constexpr std::size_t chunk_bound(std::size_t n, unsigned t, unsigned i) {
    return n * i / t;
  }

  /// The serial fast path stays inline; the fork/join lives in
  /// thread_pool.cpp so callers' hot loops do not carry it.
  void run(std::size_t n, Kernel kernel, void* ctx) {
    if (n == 0) return;
    if (nthreads_ == 1) {
      kernel(ctx, 0, n);
      return;
    }
    run_threaded(n, kernel, ctx);
  }

  void run_threaded(std::size_t n, Kernel kernel, void* ctx);

  /// Chunk `index` of the current call; an escaping exception is parked in
  /// errors_[index] for run_threaded() to rethrow once every chunk finished.
  void run_chunk(unsigned index, Kernel kernel, void* ctx, std::size_t n) noexcept;

  void worker_loop(unsigned index);

  const unsigned nthreads_;
  std::vector<std::exception_ptr> errors_;  ///< one slot per chunk (= thread)
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  Kernel kernel_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  unsigned pending_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace stance::support
