// Error types raised by the message-passing layer.
//
// The failure model is fail-stop with attribution: every transport-level
// failure carries *who* failed (peer rank or node), *when* (the wire epoch
// it was observed in), and *why* (a FailCause). Recovery code keys off
// those fields — a string-only error cannot drive delegate re-election or
// survivor agreement.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "mp/message.hpp"

namespace stance::mp {

/// Thrown in every still-running process when any process of the SPMD
/// program fails: blocked receives and collectives are released with this
/// exception so the cluster can shut down instead of deadlocking. Cluster::
/// run() rethrows the *original* failure, not this.
class ClusterAborted : public std::runtime_error {
 public:
  ClusterAborted() : std::runtime_error("cluster aborted: a peer process failed") {}
};

/// Why a transport operation or a peer failed.
enum class FailCause : std::uint8_t {
  kUnknown = 0,
  kKilled,           ///< deterministic fault injection (FaultPlan kill rule)
  kTimeout,          ///< peer exceeded the receive deadline / stopped heartbeating
  kSocket,           ///< wire write failed after bounded retries
  kMalformedFrame,   ///< frame failed header validation (desynced stream)
  kPayloadMismatch,  ///< payload shape wrong on an untrusted backend
  kCorrupt,          ///< payload bytes failed an application-level check
};

[[nodiscard]] const char* fail_cause_name(FailCause cause) noexcept;

/// Recoverable transport failure: a malformed frame from a peer, a broken
/// socket, or a size mismatch on an untrusted backend. Trusted in-process
/// backends treat the same conditions as internal invariants (assertions) —
/// only data that crossed a real wire may be wrong without the program
/// being wrong. Attribution fields are best-effort: -1 / kUnknown when the
/// failing entity cannot be identified (e.g. a desynced byte stream names
/// the peer *node*, not a rank).
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}

  TransportError(const std::string& what, Rank peer, int peer_node,
                 std::uint32_t epoch, FailCause cause)
      : std::runtime_error(what),
        peer_(peer),
        peer_node_(peer_node),
        epoch_(epoch),
        cause_(cause) {}

  /// Failing peer rank, or -1 when only the node (or nothing) is known.
  [[nodiscard]] Rank peer() const noexcept { return peer_; }
  /// Failing peer's physical node, or -1 when unknown.
  [[nodiscard]] int peer_node() const noexcept { return peer_node_; }
  /// Wire epoch the failure was observed in.
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] FailCause cause() const noexcept { return cause_; }

 private:
  Rank peer_ = -1;
  int peer_node_ = -1;
  std::uint32_t epoch_ = 0;
  FailCause cause_ = FailCause::kUnknown;
};

/// A specific peer rank was detected dead (killed, timed out, or its node's
/// wire failed). Subclasses TransportError so pre-recovery call sites that
/// catch the base keep working; recovery-aware code catches this first and
/// runs the survivor protocol (Process::agree_on_survivors).
class PeerFailed : public TransportError {
 public:
  PeerFailed(Rank peer, int peer_node, std::uint32_t epoch, FailCause cause)
      : TransportError("peer rank " + std::to_string(peer) + " failed (" +
                           fail_cause_name(cause) + ") at epoch " +
                           std::to_string(epoch),
                       peer, peer_node, epoch, cause) {}
};

/// Thrown inside a rank that has been killed (by a FaultPlan rule) or
/// excommunicated (declared dead by a peer's failure detector). The thread
/// unwinds and Cluster::run records the rank as dead *without* aborting the
/// survivors — this is the one exception that is a rank death, not a
/// program failure.
class RankKilled : public std::runtime_error {
 public:
  explicit RankKilled(Rank rank)
      : std::runtime_error("rank " + std::to_string(rank) + " killed"),
        rank_(rank) {}

  [[nodiscard]] Rank rank() const noexcept { return rank_; }

 private:
  Rank rank_;
};

/// Cluster::run exceeded the STANCE_RUN_DEADLINE_MS watchdog deadline. The
/// message carries the per-rank state dump taken at expiry.
class RunDeadlineExceeded : public std::runtime_error {
 public:
  explicit RunDeadlineExceeded(const std::string& what) : std::runtime_error(what) {}
};

/// Failure description threaded through the delivery structures (Mailbox /
/// Rendezvous): poisoning a queue stores one of these, and every
/// blocked or future taker rematerializes it as PeerFailed (peer_failed set,
/// peer known) or plain TransportError.
struct FailNotice {
  std::string what;
  Rank peer = -1;
  int peer_node = -1;
  std::uint32_t epoch = 0;
  FailCause cause = FailCause::kUnknown;
  bool peer_failed = false;

  [[noreturn]] void raise() const {
    if (peer_failed) throw PeerFailed(peer, peer_node, epoch, cause);
    throw TransportError(what, peer, peer_node, epoch, cause);
  }
};

inline const char* fail_cause_name(FailCause cause) noexcept {
  switch (cause) {
    case FailCause::kUnknown: return "unknown";
    case FailCause::kKilled: return "killed";
    case FailCause::kTimeout: return "timeout";
    case FailCause::kSocket: return "socket";
    case FailCause::kMalformedFrame: return "malformed-frame";
    case FailCause::kPayloadMismatch: return "payload-mismatch";
    case FailCause::kCorrupt: return "corrupt";
  }
  return "unknown";
}

}  // namespace stance::mp
