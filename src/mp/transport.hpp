// Transport: the data plane under mp::Process.
//
// The simulator's programming surface (Process) owns ALL timing: it charges
// VirtualClocks with the NetworkModel's cost terms and stamps each message
// with its virtual arrival time before handing the bytes to the transport.
// A transport only moves bytes and preserves per-(source, tag) FIFO order —
// which is why the same SPMD program produces bit-identical virtual times
// on every backend, and why the whole virtual-cluster test suite doubles as
// a conformance suite for the real (tcp) backend.
//
// Every backend delivers into the same per-rank Mailboxes (mp/mailbox.hpp),
// owned by this base class together with everything that only touches
// them: buffer pools, pending counts, shutdown/reset, poisoning on
// mark_dead, the recovery fence, and the co-resident deliver. Backends
// differ only in how bytes reach a remote rank's mailbox and in whether a
// receive honors the peer deadline:
//   kVirtual — every send is a co-resident deliver. The deterministic
//              oracle; trusted (peers are this process). Receives block
//              forever (hangs are the watchdog's job).
//   kTcp     — co-resident delivers between ranks on one NodeMap node plus
//              framed TCP sockets between nodes, whose reader threads
//              deposit into the same mailboxes. Frames carry
//              (source, tag, size) headers so coalesced frames travel
//              unchanged. Untrusted: malformed peer frames surface as
//              mp::TransportError, not assertions. Receives honor the
//              peer deadline. A one-node NodeMap is the all-co-resident
//              layout: no sockets at all.
//
// Collectives ride a shared in-process Rendezvous on every backend: they
// are control-plane synchronization whose cost Process models explicitly
// (finish_collective), so distributing them buys no fidelity for this
// simulator's experiments.
//
// Failure model (fail-stop): the base class owns the membership state every
// backend shares. mark_dead() declares a rank dead — it is excluded from
// collectives, its queued messages are dropped, and every blocked operation
// cluster-wide raises mp::PeerFailed naming it. Survivors then run
// agree_on_survivors(), a two-round epoch-fenced recovery collective:
// round 1 agrees on the member set, each survivor fences its own delivery
// queue (purging pre-failure traffic; the epoch floor drops stale frames a
// TCP reader may still be draining), and round 2 acknowledges the fence so
// no survivor resumes sending before every queue is clean. Deterministic
// fault injection (FaultPlan) and real failure detection (receive deadlines
// with liveness-stamp heartbeats, $STANCE_PEER_TIMEOUT_MS) both funnel into
// this one mark_dead/agree path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "mp/rendezvous.hpp"

namespace stance::mp {

class NodeMap;
class FaultInjector;

enum class TransportKind {
  kDefault,  ///< resolve from $STANCE_TRANSPORT (virtual|tcp); virtual if unset
  kVirtual,
  kTcp,
};

class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual TransportKind kind() const noexcept = 0;

  /// True when every frame this transport delivers was produced inside this
  /// process: size mismatches on receive are then internal invariants
  /// (assertions). Untrusted backends (TCP) must instead surface them as
  /// recoverable mp::TransportError. A fault injector with payload-damaging
  /// rules makes ANY backend untrusted (its frames really may be wrong).
  [[nodiscard]] virtual bool trusted() const noexcept { return !injector_untrusts(); }

  /// Deliver `data` from rank `from` to rank `to` under `tag`, stamped with
  /// the virtual `arrival` time Process computed. Buffered: never blocks on
  /// the receiver. Preserves FIFO order per (from, tag). Raises the pending
  /// PeerFailed while a failure is being recovered (a survivor must join
  /// the recovery before it may keep sending).
  virtual void send(Rank from, Rank to, Tag tag, std::span<const std::byte> data,
                    double arrival) = 0;

  /// Block until a message from `from` with `tag` is available for `self`.
  /// Throws ClusterAborted after shutdown(), TransportError/PeerFailed on
  /// failure. The real backend (tcp) honors the peer timeout: a silent
  /// peer is declared dead (mark_dead) and raised as PeerFailed.
  [[nodiscard]] virtual RawMessage recv(Rank self, Rank from, Tag tag) = 0;

  /// Return a consumed payload buffer to `self`'s receive pool.
  void recycle(Rank self, std::vector<std::byte> buffer) {
    box(self).recycle(std::move(buffer));
  }

  /// Pre-provision `self`'s receive pool: `count` buffers of `bytes` each.
  /// False when the pool cap truncated the request.
  [[nodiscard]] bool prefill(Rank self, std::size_t count, std::size_t bytes) {
    return box(self).prefill(count, bytes);
  }

  /// Messages queued for `self` (diagnostics; in-flight wire frames of the
  /// TCP backend are not counted until their reader deposits them).
  [[nodiscard]] std::size_t pending(Rank self) const { return box(self).pending(); }

  /// All-to-all rendezvous implementing the collectives. Completes over the
  /// live member set; raises PeerFailed while a failure is pending.
  [[nodiscard]] virtual Rendezvous::Round collective(Rank self, double time,
                                                     std::vector<std::byte> blob);

  /// Release every blocked receive/collective with ClusterAborted. Sticky:
  /// the transport stays down until reset().
  void shutdown();

  /// Drop queued messages and revive after an aborted run (receive pools
  /// survive; the epoch bump fences out stale in-flight frames). Also
  /// revives dead ranks and clears any pending failure.
  virtual void reset();

  // --- failure detection & recovery ----------------------------------------

  /// Install (or clear, with nullptr) the deterministic fault injector. Not
  /// owned. Must not be swapped while an SPMD run is in flight.
  void set_fault_injector(FaultInjector* injector) noexcept { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept { return injector_; }

  /// Declare `rank` dead (fail-stop): drop its queued messages, exclude it
  /// from collectives, and release every blocked operation cluster-wide
  /// with PeerFailed{rank, epoch, cause}. Also bumps the wire epoch so
  /// in-flight frames from before the failure are fenced out. Idempotent.
  void mark_dead(Rank rank, FailCause cause);

  /// Ranks declared dead since construction/reset, ascending.
  [[nodiscard]] std::vector<Rank> dead_ranks() const;
  [[nodiscard]] bool is_dead(Rank rank) const;

  /// Current wire epoch (bumped by mark_dead and reset).
  [[nodiscard]] std::uint32_t epoch() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }

  struct SurvivorAgreement {
    std::vector<Rank> survivors;  ///< ascending; includes the caller
    double max_time = 0.0;        ///< latest clock among survivors at entry
    std::uint32_t epoch = 0;      ///< post-recovery wire epoch
  };

  /// The recovery collective: blocks until every live rank has called it,
  /// agrees on the survivor set, epoch-fences every survivor's delivery
  /// queue, and acknowledges the fence (two rendezvous rounds). After it
  /// returns the transport is clean: no pre-failure traffic can be
  /// delivered, and ordinary sends/collectives work again among the
  /// survivors. Throws RankKilled when the caller itself was declared dead
  /// (excommunicated by a peer's failure detector).
  [[nodiscard]] SurvivorAgreement agree_on_survivors(Rank self, double time);

  /// Receive deadline for the tcp backend, in milliseconds; <= 0 disables
  /// (block forever). Initialized from $STANCE_PEER_TIMEOUT_MS. A blocked
  /// receive whose peer's liveness stamp stops advancing for a full
  /// deadline (checked with bounded exponential-backoff waits) declares the
  /// peer dead. The virtual backend ignores it (deterministic oracle).
  void set_peer_timeout_ms(int ms) noexcept { peer_timeout_ms_ = ms; }
  [[nodiscard]] int peer_timeout_ms() const noexcept { return peer_timeout_ms_; }

 protected:
  explicit Transport(int nprocs);

  /// Send-path guard, called by every backend send before depositing
  /// anything: stamps `from`'s liveness, throws RankKilled when `from` was
  /// declared dead (an excommunicated rank must not pollute survivors'
  /// queues), and raises the pending PeerFailed while a failure is being
  /// recovered. Steady-state cost is one relaxed atomic load.
  void guard_send(Rank from);

  /// True when an installed fault plan contains payload-damaging rules;
  /// the default trusted() is its negation.
  [[nodiscard]] bool injector_untrusts() const noexcept;

  /// Apply the installed frame-fault rules to one outbound frame. Returns
  /// false when the frame must be dropped; may redirect `data` to a
  /// truncated/corrupted copy in `scratch` and add virtual delay to
  /// `arrival`.
  bool apply_frame_faults(Rank from, Rank to, std::span<const std::byte>& data,
                          double& arrival, std::vector<std::byte>& scratch);

  /// Liveness heartbeat: every transport operation stamps its rank.
  void heartbeat(Rank rank) noexcept {
    liveness_[static_cast<std::size_t>(rank)].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] Mailbox& box(Rank rank) { return boxes_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] const Mailbox& box(Rank rank) const {
    return boxes_[static_cast<std::size_t>(rank)];
  }

  /// Co-resident deliver: copy `data` into a buffer from `to`'s pool and
  /// deposit it stamped with wire epoch `epoch` (read before guard_send).
  void deliver_local(Rank from, Rank to, Tag tag, std::span<const std::byte> data,
                     double arrival, std::uint32_t epoch);

  /// Poison every mailbox with `notice` (any thread).
  void poison_all(const FailNotice& notice);

  /// Deadline-honoring take: blocks like Mailbox::take when no deadline is
  /// set; otherwise waits in bounded exponentially-backed-off slices,
  /// re-arming whenever `from`'s liveness stamp advances, and declares
  /// `from` dead when a full deadline passes without progress.
  RawMessage deadline_take(Mailbox& inbox, Rank self, Rank from, Tag tag);

  const int nprocs_;
  Rendezvous rendezvous_;

 private:
  FaultInjector* injector_ = nullptr;
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> fail_pending_{false};
  std::atomic<bool> any_dead_{false};
  mutable std::mutex dead_mutex_;
  std::vector<char> dead_;
  FailNotice pending_notice_;  ///< valid while fail_pending_
  std::vector<Mailbox> boxes_;  ///< one delivery queue per rank
  std::unique_ptr<std::atomic<std::uint64_t>[]> liveness_;
  int peer_timeout_ms_ = 0;
};

/// Resolve kDefault to a concrete backend via $STANCE_TRANSPORT
/// ("virtual"/"inproc", "tcp"; unset or empty means virtual).
/// Throws std::invalid_argument on an unknown value. Concrete kinds pass
/// through unchanged.
[[nodiscard]] TransportKind resolve_transport_kind(TransportKind requested);

/// Construct a backend for `nprocs` ranks laid out by `nodes`. `kind` must
/// be concrete (call resolve_transport_kind first).
[[nodiscard]] std::unique_ptr<Transport> make_transport(TransportKind kind, int nprocs,
                                                        const NodeMap& nodes);

}  // namespace stance::mp
