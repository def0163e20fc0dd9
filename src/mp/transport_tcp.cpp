#include "mp/transport_tcp.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "mp/errors.hpp"
#include "mp/node_map.hpp"
#include "support/assert.hpp"

namespace stance::mp {
namespace {

constexpr int kWriteRetries = 3;

/// Write every byte of `iov` with gathered sendmsg() calls (one, unless the
/// socket takes a partial write); false on an unrecoverable error, with the
/// bytes already on the wire accumulated into `progress` (a partially
/// written frame has desynced the stream and must NOT be retried).
/// Consumes `iov`. MSG_NOSIGNAL turns a write to a closed peer into EPIPE
/// instead of killing the process.
bool write_all(int fd, std::span<iovec> iov, std::size_t& progress) {
  while (!iov.empty()) {
    if (iov.front().iov_len == 0) {
      iov = iov.subspan(1);
      continue;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = iov.size();
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    progress += static_cast<std::size_t>(n);
    for (auto left = static_cast<std::size_t>(n); left > 0;) {
      iovec& v = iov.front();
      const std::size_t step = std::min(left, v.iov_len);
      v.iov_base = static_cast<char*>(v.iov_base) + step;
      v.iov_len -= step;
      left -= step;
      if (v.iov_len == 0) iov = iov.subspan(1);
    }
  }
  return true;
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

TcpTransport::TcpTransport(int nprocs, const NodeMap& nodes)
    : Transport(nprocs),
      nnodes_(nodes.nnodes()),
      links_(static_cast<std::size_t>(nnodes_) * static_cast<std::size_t>(nnodes_)) {
  STANCE_REQUIRE(nodes.nprocs() == nprocs, "tcp transport: node map mismatch");
  node_of_.reserve(static_cast<std::size_t>(nprocs));
  for (Rank r = 0; r < nprocs; ++r) node_of_.push_back(nodes.node_of(r));
  if (nnodes_ < 2) return;  // single node: all co-resident, no sockets

  // Loopback listener on an ephemeral port; one connection per node pair,
  // established sequentially (we are the only connector, so accept order
  // matches connect order).
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  STANCE_REQUIRE(listener >= 0, "tcp transport: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  bool ok = ::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  socklen_t addr_len = sizeof(addr);
  ok = ok && ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0;
  ok = ok && ::listen(listener, nnodes_ * nnodes_) == 0;
  if (!ok) {
    close_quietly(listener);
    STANCE_REQUIRE(false, "tcp transport: failed to set up loopback listener");
  }

  for (int i = 0; i < nnodes_; ++i) {
    for (int j = i + 1; j < nnodes_; ++j) {
      const int client = ::socket(AF_INET, SOCK_STREAM, 0);
      bool pair_ok = client >= 0 &&
                     ::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                               sizeof(addr)) == 0;
      const int accepted = pair_ok ? ::accept(listener, nullptr, nullptr) : -1;
      if (!pair_ok || accepted < 0) {
        close_quietly(client);
        close_quietly(listener);
        for (auto& l : links_) close_quietly(l.fd);
        STANCE_REQUIRE(false, "tcp transport: failed to connect node pair");
      }
      set_nodelay(client);
      set_nodelay(accepted);
      link(i, j).fd = client;    // node i's endpoint toward node j
      link(j, i).fd = accepted;  // node j's endpoint toward node i
      for (Link* l : {&link(i, j), &link(j, i)}) {
        l->decode_buffer = std::make_unique_for_overwrite<std::byte[]>(kDecodeBufferBytes);
      }
    }
  }
  close_quietly(listener);

  readers_.reserve(static_cast<std::size_t>(nnodes_) *
                   static_cast<std::size_t>(nnodes_ - 1));
  for (int n = 0; n < nnodes_; ++n) {
    for (int m = 0; m < nnodes_; ++m) {
      if (n == m) continue;
      readers_.emplace_back([this, n, m, &l = link(n, m)] { reader_loop(n, m, l); });
    }
  }
}

TcpTransport::~TcpTransport() {
  // Half-close every connection so blocked readers see EOF and exit.
  for (auto& l : links_) {
    if (l.fd >= 0) ::shutdown(l.fd, SHUT_RDWR);
  }
  for (auto& t : readers_) t.join();
  for (auto& l : links_) close_quietly(l.fd);
}

void TcpTransport::send(Rank from, Rank to, Tag tag, std::span<const std::byte> data,
                        double arrival) {
  // Epoch is read BEFORE the failure guard (see Transport::mark_dead): a
  // send racing a failure either sees it here or carries the stale epoch
  // and is dropped at the receiving end.
  const std::uint32_t e = epoch();
  guard_send(from);
  std::vector<std::byte> scratch;
  if (!apply_frame_faults(from, to, data, arrival, scratch)) return;
  const int from_node = node_of_[static_cast<std::size_t>(from)];
  const int to_node = node_of_[static_cast<std::size_t>(to)];
  if (from_node == to_node) {
    deliver_local(from, to, tag, data, arrival, e);
    return;
  }
  STANCE_REQUIRE(data.size() <= kMaxFrameBytes, "tcp transport: frame too large");
  const WireHeader header{kMagic,
                          e,
                          from,
                          to,
                          tag,
                          static_cast<std::uint32_t>(data.size()),
                          arrival};
  Link& l = link(from_node, to_node);
  // One atomic frame per lock acquisition: co-resident senders interleave
  // frames, never bytes, so in-order TCP delivery keeps per-sender FIFO.
  std::lock_guard<std::mutex> lock(l.write_mutex);
  // Bounded retry with exponential backoff — but only while NOTHING of this
  // frame reached the wire: a partial frame has desynced the stream, and
  // re-sending it would corrupt the peer's framing, so that case fails
  // immediately.
  int backoff_ms = 1;
  for (int attempt = 0;; ++attempt) {
    std::array<iovec, 2> iov{
        iovec{const_cast<WireHeader*>(&header), sizeof(header)},
        iovec{const_cast<std::byte*>(data.data()), data.size()}};
    std::size_t progress = 0;
    if (write_all(l.fd, iov, progress)) return;
    const int saved_errno = errno;
    if (progress == 0 && attempt < kWriteRetries) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
      continue;
    }
    throw TransportError(std::string("tcp transport: wire write toward node ") +
                             std::to_string(to_node) + " failed: " +
                             std::strerror(saved_errno),
                         /*peer=*/-1, to_node, e, FailCause::kSocket);
  }
}

RawMessage TcpTransport::recv(Rank self, Rank from, Tag tag) {
  return deadline_take(box(self), self, from, tag);
}

void TcpTransport::reset() {
  // The base reset bumps the wire epoch, fencing out in-flight traffic of
  // the aborted run: readers drop frames stamped with the old epoch as they
  // drain the sockets.
  Transport::reset();
  if (wire_dead_.load()) {
    // A desynced byte stream cannot be re-framed; stay failed.
    poison_all(
        FailNotice{.what = "tcp transport: wire permanently failed "
                           "(malformed frame seen)",
                   .peer = -1,
                   .peer_node = -1,
                   .epoch = epoch(),
                   .cause = FailCause::kMalformedFrame,
                   .peer_failed = false});
  }
}

void TcpTransport::corrupt_wire(int from_node, int to_node,
                                std::span<const std::byte> junk) {
  STANCE_REQUIRE(from_node >= 0 && from_node < nnodes_ && to_node >= 0 &&
                     to_node < nnodes_ && from_node != to_node,
                 "corrupt_wire: bad node pair");
  Link& l = link(from_node, to_node);
  std::lock_guard<std::mutex> lock(l.write_mutex);
  std::array<iovec, 1> iov{iovec{const_cast<std::byte*>(junk.data()), junk.size()}};
  std::size_t progress = 0;
  if (!write_all(l.fd, iov, progress)) {
    throw TransportError(std::string("tcp transport: wire write failed: ") +
                             std::strerror(errno),
                         /*peer=*/-1, to_node, epoch(), FailCause::kSocket);
  }
}

void TcpTransport::reader_loop(int node, int peer, Link& l) {
  const int fd = l.fd;
  std::byte* const buf = l.decode_buffer.get();
  std::size_t begin = 0;  // buf[begin, end) is received but not yet decoded
  std::size_t end = 0;
  for (;;) {
    // Decode every complete frame in the buffer.
    while (end - begin >= sizeof(WireHeader)) {
      WireHeader header;
      std::memcpy(&header, buf + begin, sizeof(header));
      const bool header_ok =
          header.magic == kMagic && header.size <= kMaxFrameBytes &&
          header.source >= 0 && header.source < nprocs_ && header.dest >= 0 &&
          header.dest < nprocs_ &&
          node_of_[static_cast<std::size_t>(header.source)] == peer &&
          node_of_[static_cast<std::size_t>(header.dest)] == node;
      if (!header_ok) {
        wire_dead_.store(true);
        poison_all(FailNotice{.what = "tcp transport: malformed frame from node " +
                                      std::to_string(peer) + " (bad header)",
                              .peer = -1,
                              .peer_node = peer,
                              .epoch = epoch(),
                              .cause = FailCause::kMalformedFrame,
                              .peer_failed = false});
        return;  // stream is desynced; stop reading this wire
      }
      const std::size_t size = header.size;
      const std::byte* const body = buf + begin + sizeof(header);
      const std::size_t buffered = end - begin - sizeof(header);
      Mailbox& dest = box(header.dest);
      if (sizeof(header) + size <= kDecodeBufferBytes) {
        if (size > buffered) break;  // the rest of this frame is still on the wire
        std::vector<std::byte> payload = dest.acquire(size);
        std::copy_n(body, size, payload.begin());
        begin += sizeof(header) + size;
        deliver_frame(header, std::move(payload));
        continue;
      }
      // Larger than the decoder buffer: receive the rest of the payload
      // straight into its pooled buffer, growing it only as bytes arrive.
      std::vector<std::byte> payload = dest.acquire_unsized(size);
      payload.resize(std::min(size, std::max(payload.capacity(), kDecodeBufferBytes)));
      std::copy_n(body, buffered, payload.begin());
      std::size_t got = buffered;
      while (got < size) {
        if (got == payload.size()) payload.resize(std::min(size, 2 * got));
        const ssize_t n = ::recv(fd, payload.data() + got, payload.size() - got, 0);
        if (n > 0) {
          got += static_cast<std::size_t>(n);
        } else if (n == 0 || errno != EINTR) {
          return;  // EOF or socket failure: shutting down
        }
      }
      begin = end = 0;
      deliver_frame(header, std::move(payload));
    }
    // Keep the partial frame, at the front, and receive more behind it.
    if (begin > 0) {
      std::memmove(buf, buf + begin, end - begin);
      end -= begin;
      begin = 0;
    }
    const ssize_t n = ::recv(fd, buf + end, kDecodeBufferBytes - end, 0);
    if (n > 0) {
      end += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      return;  // EOF: shutting down
    }
  }
}

void TcpTransport::deliver_frame(const WireHeader& header, std::vector<std::byte> payload) {
  Mailbox& dest = box(header.dest);
  if (header.epoch != epoch()) {
    dest.recycle(std::move(payload));  // stale frame from before a reset/failure
    return;
  }
  // The mailbox's epoch floor re-checks staleness at deposit and again at
  // drain, closing the race where the epoch advances between the check
  // above and here.
  dest.deposit(RawMessage{header.source, header.tag, std::move(payload), header.arrival},
               header.epoch);
}

}  // namespace stance::mp
