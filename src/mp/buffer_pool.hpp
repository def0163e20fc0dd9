// Bounded pool of payload buffers behind each Mailbox, the message delivery
// queue. Senders acquire their payload storage from the *receiver's* pool
// and the receiver recycles it after consuming the message, so steady-state
// exchanges perform no heap allocations.
//
// The pool is NOT internally synchronized: its Mailbox guards it with a
// dedicated mutex, so buffer recycling never contends with message matching.
#pragma once

#include <cstddef>
#include <vector>

namespace stance::mp {

class BufferPool {
 public:
  /// A buffer of exactly `size` bytes: take(size), resized. Caller must
  /// hold the owner's lock.
  [[nodiscard]] std::vector<std::byte> acquire(std::size_t size) {
    std::vector<std::byte> buffer = take(size);
    buffer.resize(size);
    return buffer;
  }

  /// A pooled buffer with capacity >= `size` when one fits, else the newest
  /// pooled buffer (the caller grows it — each circulating buffer converges
  /// to the largest payload it services, after which acquires stop
  /// allocating), else a new empty one. Its length is whatever it was
  /// recycled with. Caller must hold the owner's lock.
  [[nodiscard]] std::vector<std::byte> take(std::size_t size) {
    for (auto it = buffers_.rbegin(); it != buffers_.rend(); ++it) {
      if (it->capacity() < size) continue;
      std::vector<std::byte> buffer = std::move(*it);
      *it = std::move(buffers_.back());
      buffers_.pop_back();
      return buffer;
    }
    if (!buffers_.empty()) {
      std::vector<std::byte> buffer = std::move(buffers_.back());
      buffers_.pop_back();
      return buffer;
    }
    return {};
  }

  /// Return a consumed buffer (bounded; excess buffers are simply freed).
  void recycle(std::vector<std::byte> buffer) {
    if (buffers_.size() < kMaxPooled) buffers_.push_back(std::move(buffer));
  }

  /// Ensure the pool holds at least `count` buffers of capacity >= `bytes`.
  /// Returns false when the kMaxPooled cap truncated the request — the
  /// zero-alloc guarantee then degrades to best-effort and callers must not
  /// memoize the requirement as satisfied.
  [[nodiscard]] bool prefill(std::size_t count, std::size_t bytes) {
    std::size_t fitting = 0;
    for (const auto& b : buffers_) fitting += b.capacity() >= bytes ? 1 : 0;
    while (fitting < count && buffers_.size() < kMaxPooled) {
      buffers_.emplace_back(bytes);
      ++fitting;
    }
    // At the cap the pool can no longer add buffers, but it can still grow
    // the ones it has: a later request with the same count and bigger bytes
    // (the executor's prewarm after a schedule grows) must not fail forever
    // just because kMaxPooled undersized buffers already circulate.
    for (auto it = buffers_.begin(); fitting < count && it != buffers_.end(); ++it) {
      if (it->capacity() >= bytes) continue;
      it->reserve(bytes);
      ++fitting;
    }
    return fitting >= count;
  }

  void reserve() { buffers_.reserve(kMaxPooled); }

  static constexpr std::size_t kMaxPooled = 256;

 private:
  std::vector<std::vector<std::byte>> buffers_;
};

}  // namespace stance::mp
