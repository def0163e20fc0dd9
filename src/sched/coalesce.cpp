#include "sched/coalesce.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <utility>

#include "support/assert.hpp"

namespace stance::sched {
namespace {

using mp::NodeMap;
using mp::Rank;

/// Wire record of the plan exchange — the same PeerCount the plan retains.
/// Outbound reports read "I send `count` elements to `rank`", inbound ones
/// "I receive `count` elements from `rank`"; report diffs reuse the type with
/// count 0 as the removal tombstone (real reports never carry 0 — the base
/// schedule's lists are compacted non-empty).
using PeerCount = DirectionPlan::PeerCount;
using Report = DirectionPlan::Report;
static_assert(mp::WireType<PeerCount>);

constexpr mp::Tag kGatherOutTag = 0x7d000001;
constexpr mp::Tag kGatherInTag = 0x7d000002;
constexpr mp::Tag kScatterOutTag = 0x7d000003;
constexpr mp::Tag kScatterInTag = 0x7d000004;

/// Delegate -> co-resident replies carrying the adaptive framing verdicts
/// (the framed node ids); reports and replies share a phase but flow in
/// opposite directions, so a derived tag keeps the matching unambiguous.
constexpr mp::Tag verdict_tag(mp::Tag report_tag) { return report_tag ^ 0x00000010; }

/// One (source, target, count) piece of a node pair's traffic. src_index is
/// the base-source index of an inbound piece the delegate receives itself,
/// kNoIndex otherwise.
struct Piece {
  Rank source = -1;
  Rank target = -1;
  std::uint32_t count = 0;
  std::uint32_t src_index = DirectionPlan::kNoIndex;
};

/// Aggregate one node pair's pieces into the symmetric traffic summary
/// frame_profitable prices. `src_delegate` / `dst_delegate` are the pair's
/// endpoints; pieces may arrive in any order and sources/targets may repeat.
PairTraffic summarize_pair(const std::vector<Piece>& pieces, Rank src_delegate,
                           Rank dst_delegate) {
  PairTraffic t;
  std::vector<Rank> bundle_srcs;
  for (const auto& e : pieces) {
    ++t.messages;
    t.elems += e.count;
    if (e.source == src_delegate) {
      ++t.src_delegate_msgs;
    } else {
      t.src_off_delegate_elems += e.count;
      bundle_srcs.push_back(e.source);
    }
    if (e.target == dst_delegate) {
      ++t.dst_delegate_msgs;
    } else {
      t.dst_off_delegate_elems += e.count;
    }
  }
  std::sort(bundle_srcs.begin(), bundle_srcs.end());
  t.bundle_sends = static_cast<std::size_t>(
      std::unique(bundle_srcs.begin(), bundle_srcs.end()) - bundle_srcs.begin());
  return t;
}

/// True when the S→D frame described by `parts` would carry exactly one
/// piece, sent by S's delegate to D's delegate — nothing to demux on either
/// side, so both endpoints independently demote it to a direct message.
bool demotes(const std::vector<DirectionPlan::FramePart>& parts, Rank src_delegate,
             const std::vector<Rank>& peers, Rank dst_delegate) {
  return parts.size() == 1 && parts[0].source == src_delegate &&
         parts[0].peer_idx.size() == 1 &&
         peers[parts[0].peer_idx[0]] == dst_delegate;
}

/// Frame or demote one node pair, from measurement when a table is
/// supplied (a node the table does not cover prices at slowdown 1.0, the
/// a-priori estimate). Both endpoint delegates call this with identical
/// inputs (the summary is the same multiset, the table is allgathered), so
/// the verdict stays consistent across the pair.
bool pair_framed(const PairTraffic& t, const sim::NetworkModel& net,
                 const CoalesceOptions& opts, int src_node, int dst_node) {
  static const MeasuredPairCosts kNoMeasurements;
  const auto& m = opts.measured != nullptr ? *opts.measured : kNoMeasurements;
  return frame_profitable(t, net, opts.bytes_per_elem, m.node_slowdown(src_node, net),
                          m.dst_node_slowdown(dst_node, net));
}

// ---------------------------------------------------------------------------
// Classification and assembly. Given the same reports and framing verdicts,
// a fresh plan and a patched one run the exact same code, which is what
// makes a patched plan byte-identical to a from-scratch build by
// construction.

void demote_to_direct(DirectionPlan& d, const std::vector<std::size_t>& out_counts,
                      std::uint32_t i) {
  d.direct_peers.insert(
      std::upper_bound(d.direct_peers.begin(), d.direct_peers.end(), i), i);
  d.max_outbound_elems = std::max(d.max_outbound_elems, out_counts[i]);
}

/// Outbound classification: direct for co-residents; everything off-node is
/// grouped by destination node and reported as (target, count), ascending.
void classify_outbound(const NodeMap& nodes, int my_node,
                       const std::vector<Rank>& peers,
                       const std::vector<std::size_t>& out_counts, DirectionPlan& d,
                       std::map<int, std::vector<std::uint32_t>>& off_node,
                       std::vector<PeerCount>& out_report) {
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (nodes.node_of(peers[i]) == my_node) {
      d.direct_peers.push_back(static_cast<std::uint32_t>(i));
      d.max_outbound_elems = std::max(d.max_outbound_elems, out_counts[i]);
    } else {
      off_node[nodes.node_of(peers[i])].push_back(static_cast<std::uint32_t>(i));
      out_report.push_back(
          PeerCount{peers[i], static_cast<std::uint32_t>(out_counts[i])});
    }
  }
}

/// Non-delegate outbound assembly: bundles to the delegate for framed
/// destination nodes, direct sends for demoted ones.
void assemble_outbound_nondelegate(
    DirectionPlan& d, const std::map<int, std::vector<std::uint32_t>>& off_node,
    const std::vector<std::size_t>& out_counts, const std::vector<std::int32_t>& framed,
    bool adaptive) {
  for (const auto& [dest_node, idx] : off_node) {
    if (adaptive && !std::binary_search(framed.begin(), framed.end(), dest_node)) {
      for (const auto i : idx) demote_to_direct(d, out_counts, i);
      continue;
    }
    DirectionPlan::Bundle b;
    b.dest_node = dest_node;
    b.peer_idx = idx;
    for (const auto i : idx) b.elems += out_counts[i];
    d.max_outbound_elems = std::max(d.max_outbound_elems, b.elems);
    d.bundles.push_back(std::move(b));
  }
}

/// One node pair's traffic per destination node, from the delegate's
/// retained reports (map iteration is dest-node ascending).
std::map<int, std::vector<Piece>> group_pairs(const NodeMap& nodes,
                                              const std::vector<Report>& reports) {
  std::map<int, std::vector<Piece>> pair_pieces;
  for (const auto& report : reports) {
    for (const auto& e : report.entries) {
      pair_pieces[nodes.node_of(e.rank)].push_back(Piece{report.rank, e.rank, e.count});
    }
  }
  return pair_pieces;
}

/// Delegate outbound assembly: frame recipes from the co-residents' reports
/// (my own parts carry peer indices), demotions for unframed nodes and
/// delegate-to-delegate singleton frames.
void assemble_outbound_delegate(DirectionPlan& d, const NodeMap& nodes, Rank me,
                                const std::vector<Rank>& peers,
                                const std::vector<std::size_t>& out_counts,
                                const std::map<int, std::vector<std::uint32_t>>& off_node,
                                const std::vector<Report>& reports,
                                const std::vector<std::int32_t>& framed) {
  auto is_framed = [&](int node) {
    return std::binary_search(framed.begin(), framed.end(), node);
  };

  // Assemble the frame recipes: my own parts plus one bundle part per
  // co-resident rank with traffic to that node, ascending by source.
  std::map<int, DirectionPlan::SendFrame> frames;  // keyed by dest node
  auto add_part = [&](Rank source, std::span<const PeerCount> entries,
                      const std::map<int, std::vector<std::uint32_t>>* own_idx) {
    // One part per framed destination node touched by `source`, preserving
    // the sender's ascending-target packing order.
    std::map<int, DirectionPlan::FramePart> parts;
    for (const auto& e : entries) {
      const int dest_node = nodes.node_of(e.rank);
      if (!is_framed(dest_node)) continue;
      auto& part = parts[dest_node];
      part.source = source;
      part.elems += e.count;
    }
    if (own_idx != nullptr) {
      for (const auto& [dest_node, idx] : *own_idx) {
        if (is_framed(dest_node)) parts[dest_node].peer_idx = idx;
      }
    }
    for (auto& [dest_node, part] : parts) {
      auto& f = frames[dest_node];
      f.dest_node = dest_node;
      f.wire_dest = nodes.delegate_of(dest_node);
      f.elems += part.elems;
      f.parts.push_back(std::move(part));
    }
  };
  for (const auto& report : reports) {
    add_part(report.rank, report.entries, report.rank == me ? &off_node : nullptr);
  }
  // The delegate's own traffic to demoted nodes reverts to direct sends.
  for (const auto& [dest_node, idx] : off_node) {
    if (!is_framed(dest_node)) {
      for (const auto i : idx) demote_to_direct(d, out_counts, i);
    }
  }
  for (auto& [dest_node, frame] : frames) {
    if (demotes(frame.parts, me, peers, frame.wire_dest)) {
      // Singleton delegate-to-delegate frame: re-insert as a direct peer.
      demote_to_direct(d, out_counts, frame.parts[0].peer_idx[0]);
      continue;
    }
    d.max_outbound_elems = std::max(d.max_outbound_elems, frame.elems);
    d.send_frames.push_back(std::move(frame));
  }
}

/// Inbound classification: co-resident sources stay direct; off-node ones
/// are provisionally frame/forward and reported as (source, count),
/// ascending, with the base-source index kept alongside.
void classify_inbound(const NodeMap& nodes, int my_node, Rank me, Rank delegate,
                      const std::vector<Rank>& sources,
                      const std::vector<std::size_t>& in_counts, DirectionPlan& d,
                      std::vector<PeerCount>& in_report,
                      std::vector<std::uint32_t>& in_report_idx) {
  d.source_via.resize(sources.size(), DirectionPlan::Via::kDirect);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    if (nodes.node_of(sources[j]) == my_node) continue;  // stays direct
    d.source_via[j] = me == delegate ? DirectionPlan::Via::kFrame
                                     : DirectionPlan::Via::kForward;
    in_report.push_back(
        PeerCount{sources[j], static_cast<std::uint32_t>(in_counts[j])});
    in_report_idx.push_back(static_cast<std::uint32_t>(j));
  }
}

/// Non-delegate: sources on demoted nodes arrive direct, not forwarded.
void apply_inbound_verdicts_nondelegate(DirectionPlan& d, const NodeMap& nodes,
                                        const std::vector<PeerCount>& in_report,
                                        const std::vector<std::uint32_t>& in_report_idx,
                                        const std::vector<std::int32_t>& framed) {
  for (std::size_t k = 0; k < in_report.size(); ++k) {
    const int src_node = nodes.node_of(in_report[k].rank);
    if (!std::binary_search(framed.begin(), framed.end(), src_node)) {
      d.source_via[in_report_idx[k]] = DirectionPlan::Via::kDirect;
    }
  }
}

/// The node's inbound pieces grouped per source node in global (source,
/// target) order. src_index is only meaningful for the delegate's own
/// pieces, whose report entries align with `own_idx` by construction.
std::map<int, std::vector<Piece>> group_pieces(const NodeMap& nodes, Rank me,
                                               const std::vector<Report>& reports,
                                               const std::vector<std::uint32_t>& own_idx) {
  std::vector<Piece> pieces;
  for (const auto& report : reports) {
    const bool own = report.rank == me;
    STANCE_ASSERT(!own || report.entries.size() == own_idx.size());
    for (std::size_t k = 0; k < report.entries.size(); ++k) {
      pieces.push_back(Piece{report.entries[k].rank, report.rank,
                             report.entries[k].count,
                             own ? own_idx[k] : DirectionPlan::kNoIndex});
    }
  }
  // Frame layout is source-major ascending, target-ascending within one
  // source — exactly how the sending delegate assembles it.
  std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
    return a.source != b.source ? a.source < b.source : a.target < b.target;
  });
  std::map<int, std::vector<Piece>> by_node;
  for (const auto& piece : pieces) {
    by_node[nodes.node_of(piece.source)].push_back(piece);
  }
  return by_node;
}

/// Delegate inbound assembly: demoted pairs flip the delegate's own pieces
/// back to direct, singleton delegate-to-delegate frames mirror the sender
/// demotion, surviving pairs become buffered frames with demux tables.
/// Requires the outbound side already assembled (bundle parts count toward
/// inbound_msgs).
void assemble_inbound_delegate(DirectionPlan& d, const NodeMap& nodes, Rank me,
                               const std::map<int, std::vector<Piece>>& by_node,
                               const std::vector<std::int32_t>& framed) {
  for (const auto& [src_node, node_pieces] : by_node) {
    const Rank src_delegate = nodes.delegate_of(src_node);
    if (!std::binary_search(framed.begin(), framed.end(), src_node)) {
      // Demoted pair: my own pieces arrive as direct messages (the
      // co-residents flip theirs from the verdict reply).
      for (const auto& piece : node_pieces) {
        if (piece.src_index != DirectionPlan::kNoIndex) {
          d.source_via[piece.src_index] = DirectionPlan::Via::kDirect;
        }
      }
      continue;
    }
    if (node_pieces.size() == 1 && node_pieces[0].source == src_delegate &&
        node_pieces[0].target == me) {
      // Mirror of the sender-side demotion: this frame arrives direct.
      d.source_via[node_pieces[0].src_index] = DirectionPlan::Via::kDirect;
      continue;
    }
    DirectionPlan::RecvFrame f;
    f.src_node = src_node;
    f.wire_source = src_delegate;
    f.arena_offset = d.frame_arena_elems;
    std::size_t off = f.arena_offset;
    for (const auto& piece : node_pieces) {
      d.demux.push_back(DirectionPlan::Demux{piece.source, piece.target, piece.count,
                                             piece.src_index, off});
      off += piece.count;
      f.elems += piece.count;
    }
    d.frame_arena_elems += f.elems;
    d.max_inbound_elems = std::max(d.max_inbound_elems, f.elems);
    d.recv_frames.push_back(std::move(f));
  }
  // Frames were grouped per source node, but the executor demuxes in
  // global (source, target) order across all of them.
  std::sort(d.demux.begin(), d.demux.end(),
            [](const DirectionPlan::Demux& a, const DirectionPlan::Demux& b) {
              return a.source != b.source ? a.source < b.source : a.target < b.target;
            });
  d.inbound_msgs += d.recv_frames.size();
  // Bundles from co-residents arrive during frame assembly.
  for (const auto& f : d.send_frames) {
    for (const auto& part : f.parts) {
      if (part.source == me) continue;
      d.max_inbound_elems = std::max(d.max_inbound_elems, part.elems);
      ++d.inbound_msgs;
    }
  }
}

/// Direct and forwarded inbound messages (every rank).
void finish_inbound_sizing(DirectionPlan& d, const std::vector<std::size_t>& in_counts) {
  for (std::size_t j = 0; j < in_counts.size(); ++j) {
    if (d.source_via[j] == DirectionPlan::Via::kFrame) continue;  // counted above
    d.max_nonframe_inbound_elems = std::max(d.max_nonframe_inbound_elems, in_counts[j]);
    ++d.inbound_msgs;
  }
  d.max_inbound_elems = std::max(d.max_inbound_elems, d.max_nonframe_inbound_elems);
}

// ---------------------------------------------------------------------------
// The plan exchange: report diffs, spliced on the delegate.

/// A rank's off-node (peer, count) report for one base list — what
/// classify_outbound/classify_inbound reported when the base plan was
/// built, recomputed from the schedule lists so the protocol needs no
/// retained state on non-delegates.
std::vector<PeerCount> off_node_report(const NodeMap& nodes, int my_node,
                                       const std::vector<Rank>& ranks,
                                       const std::vector<std::size_t>& counts) {
  std::vector<PeerCount> report;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (nodes.node_of(ranks[i]) == my_node) continue;
    report.push_back(PeerCount{ranks[i], static_cast<std::uint32_t>(counts[i])});
  }
  return report;
}

/// Entry-level diff between two ascending reports: changed/added entries
/// carry the new count, removed ones the 0 tombstone. Empty means unchanged;
/// against an empty `before` the diff is `after` itself.
std::vector<PeerCount> diff_report(const std::vector<PeerCount>& before,
                                   const std::vector<PeerCount>& after) {
  std::vector<PeerCount> diff;
  std::size_t a = 0, b = 0;
  while (a < before.size() || b < after.size()) {
    if (b == after.size() ||
        (a < before.size() && before[a].rank < after[b].rank)) {
      diff.push_back(PeerCount{before[a].rank, 0});
      ++a;
    } else if (a == before.size() || after[b].rank < before[a].rank) {
      STANCE_ASSERT_MSG(after[b].count != 0, "a 0 count would read as a tombstone");
      diff.push_back(after[b]);
      ++b;
    } else {
      if (before[a].count != after[b].count) diff.push_back(after[b]);
      ++a;
      ++b;
    }
  }
  return diff;
}

/// Splice a diff into a retained report, keeping it ascending.
void apply_diff(std::vector<PeerCount>& report, const std::vector<PeerCount>& diff) {
  if (diff.empty()) return;
  std::vector<PeerCount> merged;
  merged.reserve(report.size() + diff.size());
  std::size_t a = 0, b = 0;
  while (a < report.size() || b < diff.size()) {
    if (b == diff.size() || (a < report.size() && report[a].rank < diff[b].rank)) {
      merged.push_back(report[a]);
      ++a;
    } else if (a == report.size() || diff[b].rank < report[a].rank) {
      if (diff[b].count != 0) merged.push_back(diff[b]);
      ++b;
    } else {
      if (diff[b].count != 0) merged.push_back(diff[b]);
      ++a;
      ++b;
    }
  }
  report = std::move(merged);
}

/// Non-delegate half of one exchange round: ship the report diff to the
/// delegate and, under the adaptive policy, wait for its verdicts.
std::vector<std::int32_t> send_diff(mp::Process& p, Rank delegate,
                                    const std::vector<PeerCount>& diff, mp::Tag tag,
                                    bool adaptive) {
  p.send(delegate, tag, std::span<const PeerCount>(diff));
  if (!adaptive) return {};
  return p.recv<std::int32_t>(delegate, verdict_tag(tag));
}

/// Delegate half of one exchange round. Collects every co-resident's report
/// diff (its own is `my_diff`) and splices it into `reports`; `group` splits
/// the spliced reports per node pair. A pair the diffs touch is re-priced by
/// `price`; an untouched one keeps its base verdict (both endpoint delegates
/// saw no diff for it, so both keep it). Under the adaptive policy the
/// framed node ids go back to the co-residents. Returns the groups; the
/// verdicts land in `framed`, ascending (maps iterate in key order).
template <class Group, class Price>
auto delegate_round(mp::Process& p, const NodeMap& nodes, std::vector<Report>& reports,
                    const std::vector<PeerCount>& my_diff, mp::Tag tag, bool adaptive,
                    const std::vector<std::int32_t>& base_framed,
                    std::vector<std::int32_t>& framed, std::uint64_t& splice_ops,
                    Group group, Price price) {
  std::vector<int> touched;
  for (auto& report : reports) {
    const auto diff =
        report.rank == p.rank() ? my_diff : p.recv<PeerCount>(report.rank, tag);
    splice_ops += diff.size();
    for (const auto& e : diff) touched.push_back(nodes.node_of(e.rank));
    apply_diff(report.entries, diff);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  auto groups = group(reports);
  for (const auto& [node, pieces] : groups) {
    if (std::binary_search(touched.begin(), touched.end(), node)
            ? price(node, pieces)
            : std::binary_search(base_framed.begin(), base_framed.end(), node)) {
      framed.push_back(node);
    }
  }
  if (adaptive) {
    for (const Rank q : nodes.ranks_on(nodes.node_of(p.rank()))) {
      if (q != p.rank()) p.send(q, verdict_tag(tag), framed);
    }
  }
  return groups;
}

/// One rank's base-schedule lists for one direction: outbound peers and
/// their element counts, inbound sources and theirs.
struct DirectionLists {
  const std::vector<Rank>& peers;
  const std::vector<std::size_t>& out_counts;
  const std::vector<Rank>& sources;
  const std::vector<std::size_t>& in_counts;
};

/// Build one direction of the plan for the lists `now` as a patch of `base`,
/// built for the lists `old`. Collective across the rank's node: everyone
/// ships its off-node report diff to the delegate, which splices the
/// retained reports, re-prices the touched node pairs (replying the framed
/// node ids under the adaptive policy) and derives the frame layouts.
/// Delegates retain the spliced reports and verdicts in the plan for the
/// next patch. A fresh plan passes base == nullptr and empty `old` lists:
/// every report diff is then the whole report (real reports carry no 0
/// count), the delegate splices into one empty report per co-resident, and
/// every node pair is touched and priced.
DirectionPlan plan_direction(mp::Process& p, const NodeMap& nodes,
                             const DirectionPlan* base, const DirectionLists& old,
                             const DirectionLists& now, mp::Tag out_tag, mp::Tag in_tag,
                             const sim::CpuCostModel& costs,
                             const CoalesceOptions& opts) {
  const Rank me = p.rank();
  const int my_node = nodes.node_of(me);
  const Rank delegate = nodes.delegate_of(my_node);
  const bool adaptive = opts.policy == CoalescePolicy::kAdaptive;
  const bool fresh = base == nullptr;
  DirectionPlan empty;  // a fresh plan's base: one empty report per co-resident
  if (fresh && me == delegate) {
    for (const Rank q : nodes.ranks_on(my_node)) empty.out_reports.push_back(Report{q, {}});
    empty.in_reports = empty.out_reports;
  }
  if (fresh) base = &empty;
  DirectionPlan d;
  std::uint64_t splice_ops = 0;  // diff entries + re-priced pair entries

  // --- outbound: direct for co-residents; everything off-node is grouped
  // by destination node, as bundles (non-delegate) or frame parts.
  std::map<int, std::vector<std::uint32_t>> off_node;  // dest node -> peer indices
  std::vector<PeerCount> out_report;                   // off-node (target, count), asc
  classify_outbound(nodes, my_node, now.peers, now.out_counts, d, off_node, out_report);
  const auto out_diff = diff_report(
      off_node_report(nodes, my_node, old.peers, old.out_counts), out_report);
  splice_ops += out_diff.size();

  if (me != delegate) {
    // Adaptive: traffic to the destination nodes the delegate demoted
    // reverts to direct wire messages.
    const auto framed = send_diff(p, delegate, out_diff, out_tag, adaptive);
    assemble_outbound_nondelegate(d, off_node, now.out_counts, framed, adaptive);
  } else {
    // The framing decision needs the whole node pair's traffic, so every
    // report is spliced before any pair is priced.
    d.out_reports = base->out_reports;
    delegate_round(
        p, nodes, d.out_reports, out_diff, out_tag, adaptive, base->framed_out,
        d.framed_out, splice_ops,
        [&](const std::vector<Report>& reports) { return group_pairs(nodes, reports); },
        [&](int dest_node, const std::vector<Piece>& pieces) {
          splice_ops += pieces.size();
          return !adaptive ||
                 pair_framed(summarize_pair(pieces, me, nodes.delegate_of(dest_node)),
                             p.net(), opts, my_node, dest_node);
        });
    assemble_outbound_delegate(d, nodes, me, now.peers, now.out_counts, off_node,
                               d.out_reports, d.framed_out);
  }

  // --- inbound: classify sources, report off-node ones to the delegate,
  // and (on the delegate) derive the frame demux tables.
  std::vector<PeerCount> in_report;  // off-node (source, count), ascending
  std::vector<std::uint32_t> in_report_idx;
  classify_inbound(nodes, my_node, me, delegate, now.sources, now.in_counts, d, in_report,
                   in_report_idx);
  const auto in_diff = diff_report(
      off_node_report(nodes, my_node, old.sources, old.in_counts), in_report);
  splice_ops += in_diff.size();

  if (me != delegate) {
    const auto framed = send_diff(p, delegate, in_diff, in_tag, adaptive);
    if (adaptive) {
      apply_inbound_verdicts_nondelegate(d, nodes, in_report, in_report_idx, framed);
    }
  } else {
    // Each source node is priced with the same summary the sending delegate
    // computed from its own reports — identical multiset, identical verdict.
    d.in_reports = base->in_reports;
    const auto by_node = delegate_round(
        p, nodes, d.in_reports, in_diff, in_tag, adaptive, base->framed_in, d.framed_in,
        splice_ops,
        [&](const std::vector<Report>& reports) {
          return group_pieces(nodes, me, reports, in_report_idx);
        },
        [&](int src_node, const std::vector<Piece>& pieces) {
          if (!adaptive) return true;
          splice_ops += pieces.size();
          return pair_framed(summarize_pair(pieces, nodes.delegate_of(src_node), me),
                             p.net(), opts, src_node, my_node);
        });
    assemble_inbound_delegate(d, nodes, me, by_node, d.framed_in);
  }

  finish_inbound_sizing(d, now.in_counts);

  // Inspector-style bookkeeping charge: every peer/source entry is touched
  // once while classifying. A fresh build's delegate touches every reported
  // piece; a patch pays for the diffed entries and the re-priced pairs'
  // entries only. (The simulator re-derives a patch's assembly from the
  // retained reports for byte-identity, but charges the incremental work a
  // production patch would perform.)
  const std::uint64_t delegate_ops = fresh ? d.demux.size() : splice_ops;
  p.compute(costs.per_list_op *
            static_cast<double>(now.peers.size() + now.sources.size() + delegate_ops));
  return d;
}

std::vector<std::size_t> list_sizes(const std::vector<std::vector<Vertex>>& lists) {
  std::vector<std::size_t> sizes(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) sizes[i] = lists[i].size();
  return sizes;
}

/// Both directions of the plan for `s`, patched from `base` (built for
/// `old_s`); base == nullptr with an empty `old_s` builds a fresh plan.
CoalescePlan plan_schedule(mp::Process& p, const CoalescePlan* base,
                           const CommSchedule& old_s, const CommSchedule& s,
                           const sim::CpuCostModel& costs, const CoalesceOptions& opts) {
  const NodeMap& nodes = p.nodes();
  CoalescePlan plan;
  plan.my_delegate = nodes.delegate_of_rank(p.rank());
  plan.schedule_fingerprint = coalesce_fingerprint(s);
  plan.map_generation = nodes.generation();
  const auto old_send = list_sizes(old_s.send_items);
  const auto old_recv = list_sizes(old_s.recv_slots);
  const auto send_sizes = list_sizes(s.send_items);
  const auto recv_sizes = list_sizes(s.recv_slots);
  // Gather: data flows along the send lists; scatter: along the receive
  // lists with roles swapped.
  plan.gather = plan_direction(
      p, nodes, base != nullptr ? &base->gather : nullptr,
      {old_s.send_procs, old_send, old_s.recv_procs, old_recv},
      {s.send_procs, send_sizes, s.recv_procs, recv_sizes}, kGatherOutTag, kGatherInTag,
      costs, opts);
  plan.scatter = plan_direction(
      p, nodes, base != nullptr ? &base->scatter : nullptr,
      {old_s.recv_procs, old_recv, old_s.send_procs, old_send},
      {s.recv_procs, recv_sizes, s.send_procs, send_sizes}, kScatterOutTag, kScatterInTag,
      costs, opts);
  return plan;
}

}  // namespace

std::uint64_t coalesce_fingerprint(const CommSchedule& s) {
  // FNV-1a over exactly the inputs the plan exchange consumes: sizes, peer
  // ranks, and per-peer element counts. O(peers) — cheap enough for the
  // executors to assert on every call.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(s.nlocal));
  mix(static_cast<std::uint64_t>(s.nghost));
  for (std::size_t i = 0; i < s.send_procs.size(); ++i) {
    mix(static_cast<std::uint64_t>(s.send_procs[i]));
    mix(s.send_items[i].size());
  }
  mix(0xfeedu);  // separate the directions
  for (std::size_t i = 0; i < s.recv_procs.size(); ++i) {
    mix(static_cast<std::uint64_t>(s.recv_procs[i]));
    mix(s.recv_slots[i].size());
  }
  return h;
}

double MeasuredPairCosts::node_slowdown(int node, const sim::NetworkModel& net) const {
  double measured = 0.0;
  double modeled = 0.0;
  for (const auto& e : pairs) {
    if (e.src_node != node) continue;
    measured += e.seconds;
    modeled += static_cast<double>(e.frames) * net.send_overhead +
               net.serialization_cost(static_cast<std::size_t>(e.bytes));
  }
  if (modeled <= 0.0 || measured <= 0.0) return 1.0;
  return measured / modeled;
}

double MeasuredPairCosts::dst_node_slowdown(int node,
                                            const sim::NetworkModel& net) const {
  double measured = 0.0;
  double modeled = 0.0;
  for (const auto& e : pairs) {
    if (e.dst_node != node || e.dst_pieces == 0) continue;
    measured += e.dst_seconds;
    modeled += static_cast<double>(e.dst_pieces) * net.intra_overhead +
               static_cast<double>(e.dst_bytes) / net.intra_bandwidth;
  }
  if (modeled <= 0.0 || measured <= 0.0) return 1.0;
  return measured / modeled;
}

bool frame_profitable(const PairTraffic& t, const sim::NetworkModel& net,
                      double bytes_per_elem, double src_slowdown,
                      double dst_slowdown) {
  auto bytes = [&](std::size_t elems) {
    return static_cast<std::size_t>(static_cast<double>(elems) * bytes_per_elem);
  };
  // Direct messages cost each rank only its own traffic — their setups run
  // in parallel across the node. The frame runs on the delegates' clocks, so
  // only the setups the delegates THEMSELVES shed count as saving: the
  // source delegate sends one frame instead of src_delegate_msgs messages,
  // the dest delegate receives one instead of dst_delegate_msgs. (A pair the
  // delegates barely touch can make the saving negative — framing would add
  // wire work to both.) Every term is charged at its endpoint's slowdown.
  const double saving =
      src_slowdown * (static_cast<double>(t.src_delegate_msgs) - 1.0) *
          net.send_overhead +
      dst_slowdown * (static_cast<double>(t.dst_delegate_msgs) - 1.0) *
          net.recv_overhead;
  // What framing loads onto the delegates instead: the co-residents' bytes
  // now serialize on the source delegate's CPU (they were parallel before),
  // which also absorbs one bundle handoff per co-resident sender; the dest
  // delegate pushes every non-delegate piece through shared memory.
  const double src_penalty =
      src_slowdown * (net.serialization_cost(bytes(t.src_off_delegate_elems)) +
                      static_cast<double>(t.bundle_sends) * net.intra_overhead);
  const double dst_penalty =
      dst_slowdown *
      (static_cast<double>(t.messages - t.dst_delegate_msgs) * net.intra_overhead +
       static_cast<double>(bytes(t.dst_off_delegate_elems)) / net.intra_bandwidth);
  return saving >= src_penalty + dst_penalty;
}

CoalescePlan coalesce(mp::Process& p, const CommSchedule& s,
                      const sim::CpuCostModel& costs, const CoalesceOptions& opts) {
  STANCE_REQUIRE(p.nodes().nprocs() == p.nprocs(),
                 "coalesce: node map does not cover every rank");
  return plan_schedule(p, nullptr, CommSchedule{}, s, costs, opts);
}

CoalescePlan patch_coalesce(mp::Process& p, const CoalescePlan& old_plan,
                            const CommSchedule& old_s, const CommSchedule& new_s,
                            const sim::CpuCostModel& costs,
                            const CoalesceOptions& opts) {
  const NodeMap& nodes = p.nodes();
  STANCE_REQUIRE(nodes.nprocs() == p.nprocs(),
                 "patch_coalesce: node map does not cover every rank");
  STANCE_REQUIRE(old_plan.matches(old_s, nodes),
                 "patch_coalesce: base plan is stale (schedule changed under it, or "
                 "delegates rotated since it was built) — rebuild with coalesce()");
  return plan_schedule(p, &old_plan, old_s, new_s, costs, opts);
}

}  // namespace stance::sched
