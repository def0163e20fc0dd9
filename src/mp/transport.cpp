#include "mp/transport.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "mp/fault.hpp"
#include "mp/node_map.hpp"
#include "mp/transport_inproc.hpp"
#include "mp/transport_tcp.hpp"
#include "support/assert.hpp"
#include "support/env.hpp"

namespace stance::mp {
namespace {

int env_peer_timeout_ms() {
  // Strict parse: "STANCE_PEER_TIMEOUT_MS=abc" must fail loudly, not silently
  // disable failure detection by decaying to 0.
  return support::env_int("STANCE_PEER_TIMEOUT_MS");
}

}  // namespace

Transport::Transport(int nprocs)
    : nprocs_(nprocs),
      rendezvous_(static_cast<std::size_t>(nprocs)),
      dead_(static_cast<std::size_t>(nprocs), 0),
      boxes_(static_cast<std::size_t>(nprocs)),
      liveness_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(nprocs)]),
      peer_timeout_ms_(env_peer_timeout_ms()) {
  STANCE_REQUIRE(nprocs > 0, "transport needs at least one rank");
  for (int r = 0; r < nprocs; ++r) {
    liveness_[static_cast<std::size_t>(r)].store(0, std::memory_order_relaxed);
  }
}

Rendezvous::Round Transport::collective(Rank self, double time,
                                        std::vector<std::byte> blob) {
  heartbeat(self);
  return rendezvous_.enter(self, time, std::move(blob));
}

void Transport::mark_dead(Rank rank, FailCause cause) {
  STANCE_REQUIRE(rank >= 0 && rank < nprocs_, "mark_dead: rank out of range");
  FailNotice notice;
  {
    std::lock_guard<std::mutex> lock(dead_mutex_);
    if (dead_[static_cast<std::size_t>(rank)]) return;  // idempotent
    dead_[static_cast<std::size_t>(rank)] = 1;
    notice = FailNotice{.what = "peer rank " + std::to_string(rank) + " failed (" +
                                fail_cause_name(cause) + ")",
                        .peer = rank,
                        .peer_node = -1,
                        .epoch = epoch(),
                        .cause = cause,
                        .peer_failed = true};
    pending_notice_ = notice;
  }
  // Ordering matters for the epoch fence: a sender reads the epoch BEFORE
  // its guard_send check. Publishing any_dead_/fail_pending_ before the
  // bump means a sender that slipped past the guard carries the OLD epoch —
  // its frame is dropped by the fence floor or purged by the fence itself,
  // never delivered into the recovered run.
  any_dead_.store(true, std::memory_order_seq_cst);
  fail_pending_.store(true, std::memory_order_seq_cst);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  rendezvous_.mark_dead(rank, notice);
  poison_all(notice);
}

std::vector<Rank> Transport::dead_ranks() const {
  std::lock_guard<std::mutex> lock(dead_mutex_);
  std::vector<Rank> out;
  for (int r = 0; r < nprocs_; ++r) {
    if (dead_[static_cast<std::size_t>(r)]) out.push_back(r);
  }
  return out;
}

bool Transport::is_dead(Rank rank) const {
  if (rank < 0 || rank >= nprocs_) return false;
  std::lock_guard<std::mutex> lock(dead_mutex_);
  return dead_[static_cast<std::size_t>(rank)] != 0;
}

Transport::SurvivorAgreement Transport::agree_on_survivors(Rank self, double time) {
  STANCE_REQUIRE(self >= 0 && self < nprocs_, "agree_on_survivors: rank out of range");
  heartbeat(self);
  // Round 1 — agree: completes once every live rank is here (throws
  // RankKilled if this rank was itself declared dead). The member set read
  // afterwards is the agreed one: every mark_dead that triggered this
  // recovery happened before its observer entered the round.
  const Rendezvous::Round r1 = rendezvous_.enter_recovery(self, time, {});
  std::vector<Rank> survivors = rendezvous_.live_ranks();
  // Re-arm sends. Safe before the fences: no survivor leaves the protocol
  // (and resumes sending) until round 2 below, by which point every queue
  // is fenced.
  fail_pending_.store(false, std::memory_order_seq_cst);
  // Fence — each survivor purges its own delivery queue and raises its
  // epoch floor, dropping pre-failure traffic including frames a TCP reader
  // is still draining from a socket.
  const std::uint32_t floor = epoch();
  box(self).fence(floor);
  // Round 2 — ack: nobody resumes until every queue is clean.
  const Rendezvous::Round r2 =
      rendezvous_.enter_recovery(self, std::max(time, r1.max_time), {});
  return SurvivorAgreement{std::move(survivors), std::max(r1.max_time, r2.max_time),
                           floor};
}

void Transport::guard_send(Rank from) {
  heartbeat(from);
  if (!any_dead_.load(std::memory_order_seq_cst)) return;
  std::lock_guard<std::mutex> lock(dead_mutex_);
  if (dead_[static_cast<std::size_t>(from)]) throw RankKilled(from);
  if (fail_pending_.load(std::memory_order_seq_cst)) pending_notice_.raise();
}

void Transport::shutdown() {
  for (auto& b : boxes_) b.shutdown();
  rendezvous_.shutdown();
}

void Transport::reset() {
  for (auto& b : boxes_) b.reset();
  {
    std::lock_guard<std::mutex> lock(dead_mutex_);
    std::fill(dead_.begin(), dead_.end(), 0);
    pending_notice_ = FailNotice{};
  }
  fail_pending_.store(false, std::memory_order_seq_cst);
  any_dead_.store(false, std::memory_order_seq_cst);
  // Bump the epoch so traffic of the dead run (still in flight on a wire or
  // queued behind a reader) can never surface in the next one.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  rendezvous_.reset();
}

bool Transport::injector_untrusts() const noexcept {
  return injector_ != nullptr && injector_->untrusts();
}

bool Transport::apply_frame_faults(Rank from, Rank to, std::span<const std::byte>& data,
                                   double& arrival, std::vector<std::byte>& scratch) {
  if (injector_ == nullptr) return true;
  const FrameAction action = injector_->on_frame(from, to);
  if (!action.touched()) return true;
  if (action.drop) return false;
  arrival += action.extra_delay;
  if (action.truncate_to >= 0 &&
      static_cast<std::size_t>(action.truncate_to) < data.size()) {
    data = data.first(static_cast<std::size_t>(action.truncate_to));
  }
  if (action.corrupt) {
    scratch.assign(data.begin(), data.end());
    for (auto& b : scratch) b ^= std::byte{0xA5};
    data = std::span<const std::byte>(scratch);
  }
  return true;
}

void Transport::deliver_local(Rank from, Rank to, Tag tag,
                              std::span<const std::byte> data, double arrival,
                              std::uint32_t epoch) {
  Mailbox& dest = box(to);
  std::vector<std::byte> payload = dest.acquire(data.size());
  std::copy(data.begin(), data.end(), payload.begin());
  dest.deposit(RawMessage{from, tag, std::move(payload), arrival}, epoch);
}

void Transport::poison_all(const FailNotice& notice) {
  for (auto& b : boxes_) b.poison(notice);
}

RawMessage Transport::deadline_take(Mailbox& inbox, Rank self, Rank from, Tag tag) {
  const int deadline_ms = peer_timeout_ms_;
  if (deadline_ms <= 0) return inbox.take(from, tag);
  // Bounded retry with exponential backoff: wait slices grow 2x from
  // deadline/8 up to the full deadline. The peer's liveness stamp re-arms
  // the budget — only a peer silent for a full cumulative deadline is
  // declared dead, however long this rank legitimately waits overall.
  std::uint64_t stamp =
      liveness_[static_cast<std::size_t>(from)].load(std::memory_order_relaxed);
  const std::int64_t initial_slice = std::max<std::int64_t>(1, deadline_ms / 8);
  std::int64_t budget_ms = deadline_ms;
  std::int64_t slice_ms = initial_slice;
  for (;;) {
    heartbeat(self);  // a blocked-but-alive taker keeps its own stamp fresh
    const std::int64_t wait_ms = std::min(slice_ms, budget_ms);
    auto msg = inbox.take_for(from, tag, std::chrono::milliseconds(wait_ms));
    if (msg.has_value()) return std::move(*msg);
    const std::uint64_t now_stamp =
        liveness_[static_cast<std::size_t>(from)].load(std::memory_order_relaxed);
    if (now_stamp != stamp) {
      stamp = now_stamp;
      budget_ms = deadline_ms;
      slice_ms = initial_slice;
      continue;
    }
    budget_ms -= wait_ms;
    if (budget_ms <= 0) {
      mark_dead(from, FailCause::kTimeout);
      throw PeerFailed(from, -1, epoch(), FailCause::kTimeout);
    }
    slice_ms = std::min<std::int64_t>(slice_ms * 2, deadline_ms);
  }
}

TransportKind resolve_transport_kind(TransportKind requested) {
  if (requested != TransportKind::kDefault) return requested;
  const char* env = std::getenv("STANCE_TRANSPORT");
  if (env == nullptr || *env == '\0') return TransportKind::kVirtual;
  const std::string value(env);
  if (value == "virtual" || value == "inproc") return TransportKind::kVirtual;
  if (value == "tcp") return TransportKind::kTcp;
  STANCE_REQUIRE(false, "STANCE_TRANSPORT must be one of: virtual, inproc, tcp");
  return TransportKind::kVirtual;  // unreachable
}

std::unique_ptr<Transport> make_transport(TransportKind kind, int nprocs,
                                          const NodeMap& nodes) {
  switch (kind) {
    case TransportKind::kVirtual:
      return std::make_unique<VirtualTransport>(nprocs);
    case TransportKind::kTcp:
      return std::make_unique<TcpTransport>(nprocs, nodes);
    case TransportKind::kDefault:
      break;
  }
  STANCE_REQUIRE(false, "make_transport: kind must be concrete");
  return nullptr;  // unreachable
}

}  // namespace stance::mp
