// Per-process communication/computation accounting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace stance::mp {

struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_recv = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t collectives = 0;
  std::uint64_t multicasts = 0;

  /// Point-to-point traffic split by physical-node topology (mp/node_map.hpp):
  /// inter-node messages cross the wire, intra-node ones move through shared
  /// memory between co-resident ranks. Sent and received counts both split,
  /// so messages_sent == intra_node_sent + inter_node_sent (multicasts count
  /// as inter-node — they are wire transmissions by definition).
  std::uint64_t intra_node_sent = 0;
  std::uint64_t inter_node_sent = 0;
  std::uint64_t intra_node_bytes_sent = 0;
  std::uint64_t inter_node_bytes_sent = 0;

  /// Coalesced frames shipped on behalf of co-resident ranks (a subset of
  /// inter_node_sent; see sched/coalesce.hpp), and the payload bytes they
  /// carried. frame_bytes_sent is what the frame-aware load balancer
  /// (lb/delegate_balancer.hpp) reads to price the delegate role: those
  /// bytes serialize on this rank's CPU on behalf of the whole node.
  std::uint64_t frames_sent = 0;
  std::uint64_t frame_bytes_sent = 0;

  /// One destination node's share of this rank's coalesced frames: count,
  /// payload bytes, and the virtual seconds this rank's clock spent sending
  /// them (setup + serialization at the delegate's *actual* speed and
  /// availability — what the a-priori frame_profitable estimate cannot
  /// know). The measured-cost feedback path (sched::MeasuredPairCosts)
  /// reads these to re-price node pairs from observation.
  struct PairFrames {
    int dest_node = -1;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    double seconds = 0.0;
  };

  /// Per-destination-node frame traffic (delegates only; a handful of
  /// entries, kept ascending by dest_node).
  std::vector<PairFrames> pair_frames;

  /// Record one coalesced frame to `dest_node` (updates frames_sent /
  /// frame_bytes_sent and the per-pair entry).
  void record_frame(int dest_node, std::uint64_t bytes, double seconds) {
    ++frames_sent;
    frame_bytes_sent += bytes;
    auto& entry = pair_entry(dest_node);
    ++entry.frames;
    entry.bytes += bytes;
    entry.seconds += seconds;
  }

  /// The receive side of the same coalescing: pieces this rank demuxed out
  /// of inbound frames and *forwarded* to co-resident ranks (destination
  /// delegates only), their payload bytes, and the virtual seconds the
  /// forwards cost this rank's clock. This is the measured counterpart of
  /// frame_profitable's dst_penalty terms — the last a-priori term in the
  /// framing verdict — keyed by the frames' source node.
  struct PairForwards {
    int src_node = -1;
    std::uint64_t pieces = 0;
    std::uint64_t bytes = 0;
    double seconds = 0.0;
  };

  std::uint64_t pieces_forwarded = 0;
  std::uint64_t forward_bytes = 0;
  /// Per-source-node forward traffic (destination delegates only; ascending
  /// by src_node).
  std::vector<PairForwards> pair_forwards;

  /// Record one piece forwarded to a co-resident while demuxing a frame
  /// that arrived from `src_node`.
  void record_frame_recv(int src_node, std::uint64_t bytes, double seconds) {
    ++pieces_forwarded;
    forward_bytes += bytes;
    auto& entry = forward_entry(src_node);
    ++entry.pieces;
    entry.bytes += bytes;
    entry.seconds += seconds;
  }

  /// Frame counters of one measurement interval. Controllers that re-decide
  /// per interval (lb::AdaptiveExecutor) price from windows, not from the
  /// cumulative totals — cumulative counters accumulate across intervals and
  /// would bias lb::frame_seconds toward historical load.
  struct FrameWindow {
    std::uint64_t frames_sent = 0;
    std::uint64_t frame_bytes_sent = 0;
    std::vector<PairFrames> pair_frames;
    std::uint64_t pieces_forwarded = 0;
    std::uint64_t forward_bytes = 0;
    std::vector<PairForwards> pair_forwards;
  };

  /// Frame traffic recorded since the previous take_frame_window() call (or
  /// since construction/reset), then re-arm the window. Cumulative totals
  /// are unaffected. Every window value is cumulative − mark, never a
  /// separately summed window (which would round differently); pairs silent
  /// in the window are dropped.
  FrameWindow take_frame_window() {
    FrameWindow now{frames_sent,      frame_bytes_sent, pair_frames,
                    pieces_forwarded, forward_bytes,    pair_forwards};
    const FrameWindow& mark = frame_mark_;
    FrameWindow window{
        now.frames_sent - mark.frames_sent,
        now.frame_bytes_sent - mark.frame_bytes_sent,
        pair_delta<&PairFrames::dest_node, &PairFrames::frames>(now.pair_frames,
                                                              mark.pair_frames),
        now.pieces_forwarded - mark.pieces_forwarded,
        now.forward_bytes - mark.forward_bytes,
        pair_delta<&PairForwards::src_node, &PairForwards::pieces>(now.pair_forwards,
                                                                  mark.pair_forwards)};
    frame_mark_ = std::move(now);
    return window;
  }

  /// Virtual-time breakdown: seconds spent computing vs. communicating
  /// (sends, receives, waits in collectives).
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;

  void reset() { *this = CommStats{}; }

  CommStats& operator+=(const CommStats& o) {
    messages_sent += o.messages_sent;
    messages_recv += o.messages_recv;
    bytes_sent += o.bytes_sent;
    bytes_recv += o.bytes_recv;
    collectives += o.collectives;
    multicasts += o.multicasts;
    intra_node_sent += o.intra_node_sent;
    inter_node_sent += o.inter_node_sent;
    intra_node_bytes_sent += o.intra_node_bytes_sent;
    inter_node_bytes_sent += o.inter_node_bytes_sent;
    frames_sent += o.frames_sent;
    frame_bytes_sent += o.frame_bytes_sent;
    for (const auto& pf : o.pair_frames) {
      auto& entry = pair_entry(pf.dest_node);
      entry.frames += pf.frames;
      entry.bytes += pf.bytes;
      entry.seconds += pf.seconds;
    }
    pieces_forwarded += o.pieces_forwarded;
    forward_bytes += o.forward_bytes;
    for (const auto& pf : o.pair_forwards) {
      auto& entry = forward_entry(pf.src_node);
      entry.pieces += pf.pieces;
      entry.bytes += pf.bytes;
      entry.seconds += pf.seconds;
    }
    compute_seconds += o.compute_seconds;
    comm_seconds += o.comm_seconds;
    return *this;
  }

 private:
  /// The pair_frames entry for `dest_node`, inserted zeroed if absent
  /// (ascending dest_node order preserved).
  PairFrames& pair_entry(int dest_node) {
    auto it = pair_frames.begin();
    while (it != pair_frames.end() && it->dest_node < dest_node) ++it;
    if (it == pair_frames.end() || it->dest_node != dest_node) {
      it = pair_frames.insert(it, PairFrames{dest_node, 0, 0, 0.0});
    }
    return *it;
  }

  /// The pair_forwards entry for `src_node`, inserted zeroed if absent
  /// (ascending src_node order preserved).
  PairForwards& forward_entry(int src_node) {
    auto it = pair_forwards.begin();
    while (it != pair_forwards.end() && it->src_node < src_node) ++it;
    if (it == pair_forwards.end() || it->src_node != src_node) {
      it = pair_forwards.insert(it, PairForwards{src_node, 0, 0, 0.0});
    }
    return *it;
  }

  /// Per-pair now − mark, keyed by `Key`; pairs whose `Count` did not move
  /// are dropped.
  template <auto Key, auto Count, class Pair>
  static std::vector<Pair> pair_delta(const std::vector<Pair>& now,
                                      const std::vector<Pair>& mark) {
    std::vector<Pair> out;
    for (Pair delta : now) {
      const auto it = std::find_if(mark.begin(), mark.end(),
                                   [&](const Pair& m) { return m.*Key == delta.*Key; });
      if (it != mark.end()) {
        delta.*Count -= (*it).*Count;
        delta.bytes -= it->bytes;
        delta.seconds -= it->seconds;
      }
      if (delta.*Count > 0) out.push_back(delta);
    }
    return out;
  }

  /// Frame counters at the last take_frame_window() (cumulative values).
  FrameWindow frame_mark_;
};

}  // namespace stance::mp
