#include "support/thread_pool.hpp"

namespace stance::support {

ThreadPool::ThreadPool(unsigned threads)
    : nthreads_(threads == 0 ? 1 : threads), errors_(nthreads_) {
  workers_.reserve(nthreads_ - 1);
  for (unsigned i = 1; i < nthreads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_threaded(std::size_t n, Kernel kernel, void* ctx) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    kernel_ = kernel;
    ctx_ = ctx;
    n_ = n;
    pending_ = nthreads_ - 1;
    ++epoch_;
  }
  start_cv_.notify_all();
  run_chunk(0, kernel, ctx, n);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  // Every worker published its slot before decrementing pending_, so the
  // slots are stable here; clear them all so the next call starts clean.
  std::exception_ptr first;
  for (auto& e : errors_) {
    if (!e) continue;
    if (!first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::run_chunk(unsigned index, Kernel kernel, void* ctx, std::size_t n) noexcept {
  try {
    kernel(ctx, chunk_bound(n, nthreads_, index), chunk_bound(n, nthreads_, index + 1));
  } catch (...) {
    errors_[index] = std::current_exception();
  }
}

void ThreadPool::worker_loop(unsigned index) {
  std::uint64_t seen = 0;
  for (;;) {
    Kernel kernel = nullptr;
    void* ctx = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      kernel = kernel_;
      ctx = ctx_;
      n = n_;
    }
    run_chunk(index, kernel, ctx, n);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace stance::support
