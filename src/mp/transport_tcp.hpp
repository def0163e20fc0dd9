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
// Framing: a sender writes each frame — header and payload — with one
// gathered sendmsg(), so under TCP_NODELAY a small frame is one segment.
// Each connection endpoint's reader thread owns one fixed decoder buffer
// of kDecodeBufferBytes, allocated at construction: it receives whatever
// the socket holds and decodes every complete frame in it, copying each
// payload into a buffer from the destination mailbox's pool, then shifts
// the leftover partial frame to the front and receives again. A frame
// larger than the decoder buffer is the one exception: its payload is
// received straight into its pooled mailbox buffer.
//
// Memory bound: the decoder buffer is the reader's only fixed cost. A
// large payload's buffer grows only as its bytes arrive: to one decoder
// buffer, then to twice the bytes received so far (unless its pooled
// buffer already had the capacity). A header that claims kMaxFrameBytes
// and then goes silent commits no memory for the bytes it never sent.
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
// bounded retry with backoff, which only happens while no byte of the
// frame reached the wire; receives honor the peer deadline, declaring a
// silent peer dead.
//
// Epochs: the base class bumps the wire epoch on reset() and on every
// mark_dead(); reader threads drop in-flight frames from a previous epoch,
// so neither a reused Cluster nor a recovered survivor set ever observes a
// dead run's traffic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// Per-endpoint decoder buffer. Frames average well under 1 KiB, so one
  /// receive usually carries several; a frame (header included) larger
  /// than this is received straight into its mailbox buffer.
  static constexpr std::size_t kDecodeBufferBytes = 16 * 1024;

 private:
  /// One endpoint of a node-pair connection: this node's fd for traffic to
  /// and from `peer` node. Senders serialize on `write_mutex`; the reader
  /// thread owns the receive direction and `decode_buffer`.
  struct Link {
    int fd = -1;
    std::mutex write_mutex;
    std::unique_ptr<std::byte[]> decode_buffer;  ///< kDecodeBufferBytes
  };

  [[nodiscard]] Link& link(int from_node, int to_node) {
    return links_[static_cast<std::size_t>(from_node) * static_cast<std::size_t>(nnodes_) +
                  static_cast<std::size_t>(to_node)];
  }

  /// Receive and decode frames from `peer` node on this node's endpoint
  /// until EOF or a malformed frame.
  void reader_loop(int node, int peer, Link& l);
  /// Hand one received frame to its mailbox, or recycle a stale one.
  void deliver_frame(const WireHeader& header, std::vector<std::byte> payload);

  const int nnodes_;
  std::vector<int> node_of_;  ///< rank -> node, frozen at construction
  std::vector<Link> links_;  ///< nnodes x nnodes, diagonal unused
  std::vector<std::thread> readers_;
  std::atomic<bool> wire_dead_{false};
};

}  // namespace stance::mp
