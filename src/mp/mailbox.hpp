// Per-process incoming message queue with (source, tag) matching — the one
// delivery queue under every transport backend. The virtual backend's
// senders deposit directly; the TCP backend's co-resident senders deposit
// directly too, and its reader threads deposit frames received from remote
// nodes.
//
// Sends are buffered (deposit never blocks), mirroring P4's buffered send;
// receives block until a matching message arrives. Matching picks the
// oldest message with the requested source and tag, so per-sender FIFO
// order is preserved. A shutdown flag releases blocked receivers with
// ClusterAborted when a peer process fails.
//
// Delivery structure: deposits land in a bounded lock-free MPSC ring
// (support/mpsc_ring.hpp) — the fast path is a CAS plus a store, with no
// producer ever touching a mutex — and spill to a mutex-guarded overflow
// queue only when the ring is full, preserving the unbounded buffered-send
// contract. The consumer drains both into a private stash keyed by
// (source, tag) — matching is a hash lookup plus a front pop, O(1) even
// under a deep backlog — and a global deposit ticket restores per-key
// deposit order when ring and overflow interleave. A key's bucket starts
// small and grows to the key's concurrent depth during warm-up; its
// capacity survives clear()/fence()/reset(), so the steady state never
// reallocates it. Blocking takes park on a condvar slow path armed by a
// Dekker-style sleeping flag (producers only notify when a consumer is
// actually asleep). Takes serialize on a consumer mutex, so several
// threads may block in take() concurrently and shutdown() releases all of
// them — but clear()/fence()/reset() also need that mutex and must not be
// called while a taker is blocked (their call sites — the consumer thread
// itself, or the cluster between runs — already satisfy this).
//
// The mailbox also pools payload buffers: senders targeting this mailbox
// acquire their payload storage from here, and the receiver recycles it
// after consuming a message, so steady-state exchanges (the executor's
// gather/scatter iterations) perform no heap allocations. The pool has its
// own lock: buffer recycling never contends with message matching.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mp/buffer_pool.hpp"
#include "mp/errors.hpp"
#include "mp/message.hpp"
#include "support/mpsc_ring.hpp"

namespace stance::mp {

class Mailbox {
 public:
  /// Ring slots per mailbox. Sized past any schedule's concurrent inbound
  /// message count (two phases, two iterations deep, kMaxPooled buffers);
  /// bursts beyond it overflow to the mutex path, never block, never drop.
  static constexpr std::size_t kRingSlots = 512;

  Mailbox() : ring_(kRingSlots) {
    pool_.reserve();
  }

  /// Enqueue a message; never blocks, lock-free unless the ring is full.
  /// Safe from any thread. `epoch` is the wire epoch the message was sent
  /// in: deposits below the fence() floor are stale traffic from before a
  /// recovery and are dropped.
  void deposit(RawMessage msg, std::uint32_t epoch = 0);

  /// Block until a message with this (source, tag) is available and return
  /// it. Throws ClusterAborted after shutdown(); raises the stored notice
  /// after poison().
  RawMessage take(Rank source, Tag tag);

  /// Bounded-wait take: wait at most `timeout` for a match. Empty optional
  /// on timeout (the caller owns retry/backoff/liveness policy); the same
  /// exceptions as take() on shutdown/poison.
  std::optional<RawMessage> take_for(Rank source, Tag tag,
                                     std::chrono::milliseconds timeout);

  /// Non-blocking variant; empty optional if no match is queued.
  std::optional<RawMessage> try_take(Rank source, Tag tag);

  /// A payload buffer of exactly `size` bytes, reusing a recycled buffer's
  /// capacity when one is pooled. Senders to this mailbox call this so the
  /// buffer's storage round-trips instead of being reallocated per message.
  [[nodiscard]] std::vector<std::byte> acquire(std::size_t size);

  /// The buffer acquire(size) would reuse, with its length left as it was
  /// recycled: for a payload still arriving, which the caller sizes as its
  /// bytes come in, so a size claimed but never sent commits no memory.
  [[nodiscard]] std::vector<std::byte> acquire_unsized(std::size_t size);

  /// Return a consumed payload buffer to the pool (bounded; excess buffers
  /// are simply freed).
  void recycle(std::vector<std::byte> buffer);

  /// Ensure the pool holds at least `count` buffers of capacity >= `bytes`.
  /// Executors call this (through Process::prefill_recv_buffers) with their
  /// schedule's worst-case inbound message pattern, which makes steady-state
  /// sends to this mailbox deterministically allocation-free. Returns false
  /// when the kMaxPooled cap truncated the request — the zero-alloc
  /// guarantee then degrades to best-effort and callers must not memoize
  /// the requirement as satisfied.
  [[nodiscard]] bool prefill(std::size_t count, std::size_t bytes);

  /// Number of queued messages (diagnostics only; racy by nature).
  [[nodiscard]] std::size_t pending() const;

  /// Release all blocked takers with ClusterAborted; subsequent takes throw
  /// immediately. deposit() becomes a no-op. Safe from any thread, even
  /// while takers are blocked.
  void shutdown();

  /// Mark the mailbox failed: blocked and future takers raise `notice`
  /// (mp::PeerFailed for peer deaths, mp::TransportError for a malformed
  /// wire frame). Sticky until reset() or fence(); the first poison wins.
  /// Safe from any thread.
  void poison(FailNotice notice);

  /// Recovery epoch fence: drop every queued message, clear poison, and
  /// only accept deposits with epoch >= `floor` from now on. Does NOT clear
  /// shutdown (a down cluster stays down). Consumer-side: called by the
  /// owning rank's thread during recovery, never while that thread is
  /// blocked in take().
  void fence(std::uint32_t floor);

  /// Drop queued messages. Shutdown is *sticky*: a mailbox that released
  /// blocked takers stays down across clear() so late deposits from a
  /// still-unwinding peer cannot be observed by the next run. Only reset()
  /// revives it. Consumer-side (see fence()).
  void clear();

  /// Drop queued messages and clear the shutdown flag (cluster reuse after
  /// an aborted run). The buffer pool survives: it is an optimization
  /// cache, not run state, and dropping it would silently void prior
  /// prefill() guarantees. Consumer-side; the cluster calls it between runs.
  void reset();

 private:
  struct Entry {
    RawMessage msg;
    std::uint64_t ticket = 0;  ///< global deposit order, for oldest-first matching
    std::uint32_t epoch = 0;   ///< wire epoch, re-checked against the fence floor
  };

  /// Pop everything from the ring and overflow into the per-key stash,
  /// dropping entries below the fence floor and restoring a bucket's ticket
  /// order when ring/overflow interleaving delivered out of order. Caller
  /// holds consumer_mutex_.
  void drain_locked();
  /// Oldest stash entry with this (source, tag), if any: a hash lookup and
  /// a front pop — O(1) regardless of how deep other keys' backlogs are.
  /// Caller holds consumer_mutex_.
  std::optional<RawMessage> match_locked(Rank source, Tag tag);
  /// The loop behind every take: match, else park until a deposit or state
  /// change, else give up at `deadline` (never, for time_point::max();
  /// after one pass, for time_point::min()). Takes consumer_mutex_.
  std::optional<RawMessage> wait_take(Rank source, Tag tag,
                                      std::chrono::steady_clock::time_point deadline);
  /// Drain, then drop every stashed message (stash capacity is kept).
  /// Caller holds consumer_mutex_.
  void purge_locked();
  /// Clear the poison notice and flag.
  void unpoison();
  /// Raise poison / ClusterAborted if the mailbox is failed or down.
  void raise_if_failed();
  /// Wake any parked consumer after a state change (shutdown/poison/fence).
  void notify_consumers();

  // --- producer side (lock-free fast path) ---
  support::MpscRing<Entry> ring_;
  std::atomic<std::uint64_t> ticket_counter_{0};
  std::atomic<std::size_t> undrained_{0};  ///< deposited, not yet stashed
  std::mutex overflow_mutex_;
  std::deque<Entry> overflow_;
  std::atomic<bool> overflow_nonempty_{false};

  /// One (source, tag) key's drained, unmatched messages in deposit order.
  /// Live entries are [head, q.size()); the front pops by advancing `head`
  /// (no O(backlog) shift per take) and an append to a full bucket whose
  /// dead prefix is at least half of it compacts instead of growing,
  /// preserving capacity — steady state stays allocation-free after warmup.
  /// Slots before the head are moved-from.
  struct Stash {
    std::vector<Entry> q;
    std::size_t head = 0;
  };
  /// A new key's initial bucket capacity; deeper keys grow it on demand.
  static constexpr std::size_t kInitialBucket = 8;

  static std::uint64_t stash_key(Rank source, Tag tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  // --- consumer side ---
  std::mutex consumer_mutex_;  ///< serializes matching + drains across takers
  std::unordered_map<std::uint64_t, Stash> stash_;
  std::atomic<std::size_t> stashed_{0};

  // --- blocking slow path ---
  std::mutex wake_mutex_;
  std::condition_variable cv_;
  std::atomic<bool> sleeping_{false};

  // --- failure / recovery state ---
  std::atomic<bool> down_{false};
  std::atomic<bool> poisoned_{false};
  std::atomic<std::uint32_t> epoch_floor_{0};
  std::mutex state_mutex_;  ///< guards the poison payload only
  std::optional<FailNotice> poison_;

  // --- payload buffer pool (own lock: never contends with matching) ---
  mutable std::mutex pool_mutex_;
  BufferPool pool_;
};

}  // namespace stance::mp
