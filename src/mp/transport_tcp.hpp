// TCP transport backend: real sockets between NodeMap nodes.
//
// Co-resident ranks exchange through the base class's per-rank Mailboxes
// exactly like the virtual backend. Ranks on different nodes exchange
// framed messages over loopback TCP connections — one full-duplex
// connection per node pair, established at construction. Every frame
// carries a fixed header (magic, epoch, source, dest, tag, size, arrival):
// source/tag let the receiver match without inspecting the payload, so
// coalesced frames (sched::CoalescePlan's tag-transformed messages) travel
// unchanged; the arrival stamp carries Process's virtual-time accounting
// across the wire, keeping virtual clocks bit-identical to the virtual
// backend.
//
// Concurrency: co-resident senders share their node's connection to each
// peer node under a per-connection write mutex — each frame is written
// atomically, so TCP's in-order delivery preserves per-(source, tag) FIFO.
// One reader thread per connection endpoint validates headers and deposits
// frames into the destination rank's mailbox (a lock-free MPSC ring: reader
// threads and co-resident senders are its producers).
//
// Trust: this backend is untrusted. A frame that fails validation (bad
// magic, out-of-range ranks, oversized payload) poisons the mailboxes —
// blocked receivers throw mp::TransportError attributing the sending node
// with FailCause::kMalformedFrame instead of aborting the process — and
// permanently fails the transport (a desynced byte stream cannot be
// re-framed). Socket write failures surface as kSocket errors after a
// bounded retry with backoff; receives honor the peer deadline, declaring
// a silent peer dead.
//
// Epochs: the base class bumps the wire epoch on reset() and on every
// mark_dead(); reader threads drop in-flight frames from a previous epoch,
// so neither a reused Cluster nor a recovered survivor set ever observes a
// dead run's traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "mp/transport.hpp"

namespace stance::mp {

class TcpTransport final : public Transport {
 public:
  TcpTransport(int nprocs, const NodeMap& nodes);
  ~TcpTransport() override;

  [[nodiscard]] const char* name() const noexcept override { return "tcp"; }
  [[nodiscard]] TransportKind kind() const noexcept override {
    return TransportKind::kTcp;
  }
  [[nodiscard]] bool trusted() const noexcept override { return false; }

  void send(Rank from, Rank to, Tag tag, std::span<const std::byte> data,
            double arrival) override;
  [[nodiscard]] RawMessage recv(Rank self, Rank from, Tag tag) override;
  /// Base reset, then re-poison every mailbox if the wire desynced (a
  /// desynced byte stream cannot be re-framed).
  void reset() override;

  /// Test hook (malformed-frame injection): write raw `junk` bytes on the
  /// wire from `from_node` to `to_node`, desyncing the framing exactly like
  /// a buggy or hostile peer would.
  void corrupt_wire(int from_node, int to_node, std::span<const std::byte> junk);

  /// Fixed wire frame header preceding every payload.
  struct WireHeader {
    std::uint32_t magic;
    std::uint32_t epoch;
    std::int32_t source;
    std::int32_t dest;
    std::int32_t tag;
    std::uint32_t size;
    double arrival;
  };
  static_assert(sizeof(WireHeader) == 32, "wire header must be packed");

  static constexpr std::uint32_t kMagic = 0x53'54'4e'43u;  // "STNC"
  static constexpr std::uint32_t kMaxFrameBytes = 1u << 28;

 private:
  /// One endpoint of a node-pair connection: this node's fd for traffic to
  /// and from `peer` node. Senders serialize on `write_mutex`; the reader
  /// thread owns the receive direction.
  struct Link {
    int fd = -1;
    std::mutex write_mutex;
  };

  [[nodiscard]] Link& link(int from_node, int to_node) {
    return links_[static_cast<std::size_t>(from_node) * static_cast<std::size_t>(nnodes_) +
                  static_cast<std::size_t>(to_node)];
  }

  void reader_loop(int node, int peer, int fd);

  const int nnodes_;
  std::vector<int> node_of_;  ///< rank -> node, frozen at construction
  std::vector<Link> links_;  ///< nnodes x nnodes, diagonal unused
  std::vector<std::thread> readers_;
  std::atomic<bool> wire_dead_{false};
};

}  // namespace stance::mp
