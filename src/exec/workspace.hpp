// Persistent executor workspace (paper §3.3).
//
// The executor's inner loop — gather, compute, scatter, every iteration —
// must run at memory speed; the seed's per-call `std::vector` payload
// buffers paid an allocation per peer per iteration. ExecWorkspace owns two
// byte arenas (send-side packing, receive-side unpacking) that grow to the
// steady-state high-water mark once and are then reused for every
// subsequent call, so gather/scatter perform zero heap allocations in
// steady state (verified by tests/test_exec_alloc.cpp).
//
// The pack and unpack copy loops run serially on the rank's own thread.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <vector>

#include "mp/process.hpp"

namespace stance::exec {

class ExecWorkspace {
 public:
  /// Idempotent pre-provisioning, called by gather/scatter with the
  /// schedule's worst-case concurrent inbound message pattern. The first
  /// call (or a call that raises the requirement) prefills this rank's
  /// mailbox pool; afterwards steady-state exchanges through this
  /// workspace never allocate — deterministically, not merely once the
  /// pool has warmed up by chance. Count and bytes are tracked
  /// independently: a call that only raises one dimension re-provisions
  /// and re-memoizes that dimension (regression-tested — the old code
  /// could wedge the memo when the pool sat at its cap). The memo is
  /// monotone and survives an executor's rebind(): the pool never gives
  /// buffers back, so a new schedule that needs no more than the memo is
  /// already covered, and one that needs more re-provisions the growth.
  void prewarm(mp::Process& p, std::size_t count, std::size_t bytes) {
    if (count <= prewarm_count_ && bytes <= prewarm_bytes_) return;
    const std::size_t want_count = std::max(count, prewarm_count_);
    const std::size_t want_bytes = std::max(bytes, prewarm_bytes_);
    // Memoize only what the pool actually satisfied; a capped request is
    // retried on later calls instead of being silently recorded as met.
    if (p.prefill_recv_buffers(want_count, want_bytes)) {
      prewarm_count_ = want_count;
      prewarm_bytes_ = want_bytes;
    }
  }

  /// Satisfied prewarm high-water marks (diagnostics + regression tests).
  [[nodiscard]] std::size_t prewarm_count() const noexcept { return prewarm_count_; }
  [[nodiscard]] std::size_t prewarm_bytes() const noexcept { return prewarm_bytes_; }

  /// Typed view over the send-side arena, at least `n` elements. Valid
  /// until the next send_buffer() call.
  template <mp::WireType T>
  [[nodiscard]] std::span<T> send_buffer(std::size_t n) {
    return carve<T>(send_arena_, n);
  }

  /// Typed view over the receive-side arena, at least `n` elements. Valid
  /// until the next recv_buffer() call; independent of the send arena, so
  /// one of each may be live at once.
  template <mp::WireType T>
  [[nodiscard]] std::span<T> recv_buffer(std::size_t n) {
    return carve<T>(recv_arena_, n);
  }

  /// Bytes currently held (diagnostics; stable once warmed up).
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return send_arena_.size() + recv_arena_.size();
  }

 private:
  template <typename T>
  static std::span<T> carve(std::vector<std::byte>& arena, std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    // Monotone growth to the next power of two: a handful of reallocations
    // while warming up, none afterwards.
    if (arena.size() < bytes) arena.resize(std::bit_ceil(bytes));
    // The arena comes from operator new, so it is aligned for every
    // fundamental type; each call uses a single element type end to end.
    return {reinterpret_cast<T*>(arena.data()), n};
  }

  std::vector<std::byte> send_arena_;
  std::vector<std::byte> recv_arena_;
  std::size_t prewarm_count_ = 0;
  std::size_t prewarm_bytes_ = 0;
};

}  // namespace stance::exec
