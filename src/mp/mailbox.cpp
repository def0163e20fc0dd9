#include "mp/mailbox.hpp"

#include <algorithm>
#include <utility>

#include "mp/errors.hpp"

namespace stance::mp {

void Mailbox::deposit(RawMessage msg, std::uint32_t epoch) {
  if (down_.load(std::memory_order_acquire) ||
      poisoned_.load(std::memory_order_acquire) ||
      epoch < epoch_floor_.load(std::memory_order_acquire)) {
    return;
  }
  Entry e{std::move(msg), ticket_counter_.fetch_add(1, std::memory_order_relaxed),
          epoch};
  if (!ring_.try_push(std::move(e))) {
    const std::lock_guard<std::mutex> lock(overflow_mutex_);
    overflow_.push_back(std::move(e));
    overflow_nonempty_.store(true, std::memory_order_release);
  }
  // seq_cst pairs with the consumer's sleeping_-then-undrained_ sequence
  // (Dekker): either we observe sleeping_ and notify, or the consumer's
  // recheck observes this increment and skips the wait.
  undrained_.fetch_add(1, std::memory_order_seq_cst);
  if (sleeping_.load(std::memory_order_seq_cst)) {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    cv_.notify_all();
  }
}

void Mailbox::drain_locked() {
  const std::uint32_t floor = epoch_floor_.load(std::memory_order_acquire);
  const auto accept = [&](Entry&& e) {
    undrained_.fetch_sub(1, std::memory_order_relaxed);
    if (e.epoch < floor) return;  // stale pre-recovery traffic
    Stash& s = stash_[stash_key(e.msg.source, e.msg.tag)];
    if (s.q.capacity() == 0) {
      // First message on this key: a small bucket, grown on demand. Buckets
      // keep their capacity across clear()/fence()/purge, so growth to the
      // key's concurrent depth happens during warm-up only and the steady
      // state never reallocates.
      s.q.reserve(kInitialBucket);
    } else if (s.q.size() == s.q.capacity() && 2 * s.head >= s.q.size()) {
      // Full, and at least half of it is consumed prefix: reuse that space
      // instead of growing. A sender that stays ahead keeps the bucket from
      // ever emptying; this stops it growing after warm-up. Moving at most
      // half the capacity per compaction keeps appends amortized O(1).
      s.q.erase(s.q.begin(), s.q.begin() + static_cast<std::ptrdiff_t>(s.head));
      s.head = 0;
    }
    // Ring and overflow are each ticket-ascending, but interleave (a sender
    // that claimed a ticket can land in either path, in either order), so
    // an append that arrived out of order is inserted at its ticket's place
    // in the bucket's live region, which is sorted before every append.
    // Overflow is the burst path only; steady-state drains append in order
    // and skip the insertion.
    const bool unordered = s.q.size() > s.head && e.ticket < s.q.back().ticket;
    s.q.push_back(std::move(e));
    if (unordered) {
      const auto live = s.q.begin() + static_cast<std::ptrdiff_t>(s.head);
      const auto last = s.q.end() - 1;
      const auto at = std::upper_bound(live, last, *last, [](const Entry& a, const Entry& b) {
        return a.ticket < b.ticket;
      });
      std::rotate(at, last, s.q.end());
    }
    stashed_.fetch_add(1, std::memory_order_relaxed);
  };
  Entry e;
  while (ring_.try_pop(e)) accept(std::move(e));
  if (overflow_nonempty_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(overflow_mutex_);
    for (auto& o : overflow_) accept(std::move(o));
    overflow_.clear();
    overflow_nonempty_.store(false, std::memory_order_release);
  }
}

std::optional<RawMessage> Mailbox::match_locked(Rank source, Tag tag) {
  const auto it = stash_.find(stash_key(source, tag));
  if (it == stash_.end()) return std::nullopt;
  Stash& s = it->second;
  if (s.head == s.q.size()) return std::nullopt;
  RawMessage msg = std::move(s.q[s.head].msg);
  ++s.head;
  stashed_.fetch_sub(1, std::memory_order_relaxed);
  if (s.head == s.q.size()) {
    s.q.clear();
    s.head = 0;
  }
  return msg;
}

void Mailbox::purge_locked() {
  drain_locked();
  for (auto& [key, s] : stash_) {
    s.q.clear();  // keeps capacity: prefilled steady state survives the purge
    s.head = 0;
  }
  stashed_.store(0, std::memory_order_relaxed);
}

void Mailbox::unpoison() {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    poison_.reset();
  }
  poisoned_.store(false, std::memory_order_seq_cst);
}

void Mailbox::raise_if_failed() {
  if (poisoned_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (poison_) poison_->raise();
  }
  if (down_.load(std::memory_order_acquire)) throw ClusterAborted();
}

void Mailbox::notify_consumers() {
  const std::lock_guard<std::mutex> lock(wake_mutex_);
  cv_.notify_all();
}

RawMessage Mailbox::take(Rank source, Tag tag) {
  return *wait_take(source, tag, std::chrono::steady_clock::time_point::max());
}

std::optional<RawMessage> Mailbox::take_for(Rank source, Tag tag,
                                            std::chrono::milliseconds timeout) {
  return wait_take(source, tag, std::chrono::steady_clock::now() + timeout);
}

std::optional<RawMessage> Mailbox::wait_take(
    Rank source, Tag tag, std::chrono::steady_clock::time_point deadline) {
  const bool bounded = deadline != std::chrono::steady_clock::time_point::max();
  const std::lock_guard<std::mutex> consumer(consumer_mutex_);
  for (;;) {
    raise_if_failed();
    drain_locked();
    if (auto msg = match_locked(source, tag)) return msg;
    // Timed out: the pass above already re-checked failure state and
    // deposits that raced the expiry.
    if (bounded && std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    // Arm the sleeping flag, then re-check for deposits that raced the
    // drain; only park when the box is verifiably idle (see deposit()).
    std::unique_lock<std::mutex> wake(wake_mutex_);
    sleeping_.store(true, std::memory_order_seq_cst);
    if (undrained_.load(std::memory_order_seq_cst) == 0 &&
        !down_.load(std::memory_order_acquire) &&
        !poisoned_.load(std::memory_order_acquire)) {
      // Spurious wakeups and timeouts just re-run the loop.
      if (bounded) {
        cv_.wait_until(wake, deadline);
      } else {
        cv_.wait(wake);
      }
    }
    sleeping_.store(false, std::memory_order_relaxed);
  }
}

std::optional<RawMessage> Mailbox::try_take(Rank source, Tag tag) {
  return wait_take(source, tag, std::chrono::steady_clock::time_point::min());
}

std::vector<std::byte> Mailbox::acquire(std::size_t size) {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.acquire(size);
}

std::vector<std::byte> Mailbox::acquire_unsized(std::size_t size) {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.take(size);
}

void Mailbox::recycle(std::vector<std::byte> buffer) {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.recycle(std::move(buffer));
}

bool Mailbox::prefill(std::size_t count, std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.prefill(count, bytes);
}

std::size_t Mailbox::pending() const {
  return undrained_.load(std::memory_order_acquire) +
         stashed_.load(std::memory_order_acquire);
}

void Mailbox::shutdown() {
  down_.store(true, std::memory_order_seq_cst);
  notify_consumers();
}

void Mailbox::poison(FailNotice notice) {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (!poison_) poison_ = std::move(notice);
  }
  // Payload before flag: a taker that observes the flag finds the notice.
  poisoned_.store(true, std::memory_order_seq_cst);
  notify_consumers();
}

void Mailbox::fence(std::uint32_t floor) {
  {
    const std::lock_guard<std::mutex> consumer(consumer_mutex_);
    // Raise the floor first so the purge drain below already filters, then
    // drop everything stashed. Deposits that raced the floor update carry
    // their epoch and are re-filtered at the next drain.
    std::uint32_t cur = epoch_floor_.load(std::memory_order_relaxed);
    while (floor > cur &&
           !epoch_floor_.compare_exchange_weak(cur, floor, std::memory_order_acq_rel)) {
    }
    purge_locked();
    unpoison();
    // down_ survives: the fence revives a *poisoned* mailbox for recovery,
    // not a shut-down cluster.
  }
  notify_consumers();
}

void Mailbox::clear() {
  const std::lock_guard<std::mutex> consumer(consumer_mutex_);
  purge_locked();
  // down_/poison_ deliberately survive: failure state is sticky until reset().
}

void Mailbox::reset() {
  const std::lock_guard<std::mutex> consumer(consumer_mutex_);
  purge_locked();
  down_.store(false, std::memory_order_seq_cst);
  unpoison();
  epoch_floor_.store(0, std::memory_order_seq_cst);
}

}  // namespace stance::mp
