// Node-aware message coalescing (paper §3.6, applied to unicast traffic).
//
// The paper's multicast argument — one transmission amortizes per-message
// setup across many receivers — applies to the unicast side of the executor
// too: when several ranks share a physical node (mp/node_map.hpp), ALL
// payloads one node sends to another can travel as a *single framed wire
// message* per phase. Each rank hands its off-node payloads to its node's
// delegate (mp::NodeMap's per-node frame endpoint — the lowest co-resident
// rank unless the frame-aware balancer reassigned it) as cheap shared-memory
// bundles;
// the delegate concatenates them into one frame per destination node; the
// receiving delegate splits the frame and hands each co-resident rank its
// pieces through shared memory. The wire then carries one message setup
// per node pair per phase instead of one per rank pair — with g ranks per
// node, a g²-fold cut in wire messages on dense patterns, exactly the
// amortization the paper's multicast buys broadcasts.
//
// Framing is not always a win: the delegate serializes the whole node's
// payload on its own CPU and every payload pays two shared-memory hops, so
// byte-bound pairs lose what setup-bound pairs gain (the honest regression
// the node_coalescing_mesh bench documents). Coalescing is therefore a
// per-node-pair *decision*, not a mode: under CoalescePolicy::kAdaptive the
// plan prices each pair from the NetworkModel's setup/funnel/serialization
// terms (frame_profitable) and demotes the losing pairs to the base
// schedule's direct per-peer messages — the paper's cost-model-driven
// scheduling philosophy applied to message strategy selection.
//
// Like everything else in this library the framing is inspector/executor
// split: coalesce() is a collective inspector pass that precomputes, per
// rank, which peers stay direct (co-resident), how its bundles and frames
// are laid out, and — on the delegate — how each inbound frame demuxes
// into per-target pieces. The executors (exec::gather_coalesced /
// exec::scatter_coalesced) are then driven entirely by the plan, with no
// in-band headers and no per-call allocation or lookup.
//
// Correctness contract (tests/test_coalesce.cpp): executing a coalesced
// plan yields byte-identical ghost regions (gather) and accumulators
// (scatter) to the uncoalesced schedule. For scatter this requires the
// combine order per element to be preserved; the receiving delegate
// therefore buffers every inbound frame first and demuxes in ascending
// (source rank, target rank) order, and each rank merges direct receives,
// frame pieces, and forwards in ascending source-rank order — the same
// order the uncoalesced path uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mp/node_map.hpp"
#include "mp/process.hpp"
#include "sched/schedule.hpp"
#include "sim/cpu_costs.hpp"
#include "sim/network_model.hpp"

namespace stance::sched {

/// One direction of node-aware communication. For gather, data flows along
/// the schedule's send lists (peers = send_procs, sources = recv_procs);
/// for scatter it flows along its receive lists with the roles swapped.
struct DirectionPlan {
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  /// How a base source's payload reaches this rank: a direct message
  /// (co-resident source, or a demoted singleton frame), a piece of a frame
  /// this rank receives as delegate, or a forward from this rank's delegate
  /// after demuxing.
  enum class Via : std::uint8_t { kDirect, kFrame, kForward };

  /// Indices into the base peer list whose payloads stay direct messages
  /// (co-resident peers, plus demoted delegate-to-delegate singletons),
  /// ascending.
  std::vector<std::uint32_t> direct_peers;

  /// Non-delegates: one shared-memory bundle per destination node, handed
  /// to this rank's delegate for frame assembly; ascending by dest_node.
  /// peer_idx lists the packed base peers in ascending rank order.
  struct Bundle {
    int dest_node = -1;
    std::vector<std::uint32_t> peer_idx;
    std::size_t elems = 0;

    friend bool operator==(const Bundle&, const Bundle&) = default;
  };
  std::vector<Bundle> bundles;

  /// Delegates: one wire frame per destination node, ascending by
  /// dest_node. Parts are ordered by ascending source rank; a part is
  /// either this rank's own payload (peer_idx nonempty) or a bundle to be
  /// received from the co-resident `source`.
  struct FramePart {
    mp::Rank source = -1;
    std::size_t elems = 0;
    std::vector<std::uint32_t> peer_idx;  ///< only when source is this rank

    friend bool operator==(const FramePart&, const FramePart&) = default;
  };
  struct SendFrame {
    int dest_node = -1;
    mp::Rank wire_dest = -1;  ///< delegate rank of dest_node
    std::vector<FramePart> parts;
    std::size_t elems = 0;

    friend bool operator==(const SendFrame&, const SendFrame&) = default;
  };
  std::vector<SendFrame> send_frames;

  /// Transport of each base source, parallel to the base source list.
  std::vector<Via> source_via;

  /// Delegates: one inbound frame per source node, ascending by src_node.
  /// Frames are received into the workspace arena back to back (at
  /// arena_offset) before any demuxing, so pieces can be replayed in
  /// global source order.
  struct RecvFrame {
    int src_node = -1;
    mp::Rank wire_source = -1;  ///< delegate rank of src_node
    std::size_t elems = 0;
    std::size_t arena_offset = 0;  ///< element offset in the frame arena

    friend bool operator==(const RecvFrame&, const RecvFrame&) = default;
  };
  std::vector<RecvFrame> recv_frames;

  /// Delegates: demux table over the buffered frames, ascending by
  /// (source, target) — the order that preserves the uncoalesced combine
  /// order on every target. src_index is the base-source index when the
  /// piece is for this rank itself, kNoIndex when it is forwarded.
  struct Demux {
    mp::Rank source = -1;
    mp::Rank target = -1;
    std::uint32_t count = 0;
    std::uint32_t src_index = kNoIndex;
    std::size_t arena_offset = 0;  ///< element offset of this piece

    friend bool operator==(const Demux&, const Demux&) = default;
  };
  std::vector<Demux> demux;

  /// Retained plan-exchange state (delegates only; empty elsewhere): every
  /// co-resident's off-node (rank, count) report, rank-ascending, plus the
  /// node ids the framing verdicts kept framed. patch_coalesce() diffs a new
  /// schedule's reports against these and re-derives only the node pairs the
  /// diff touches; the fields participate in operator== so the byte-identity
  /// oracle covers them too.
  struct PeerCount {
    std::int32_t rank = 0;
    std::uint32_t count = 0;

    friend bool operator==(const PeerCount&, const PeerCount&) = default;
  };
  struct Report {
    mp::Rank rank = -1;
    std::vector<PeerCount> entries;  ///< ascending by rank

    friend bool operator==(const Report&, const Report&) = default;
  };
  std::vector<Report> out_reports;       ///< co-residents' outbound reports
  std::vector<Report> in_reports;        ///< co-residents' inbound reports
  std::vector<std::int32_t> framed_out;  ///< framed destination nodes, ascending
  std::vector<std::int32_t> framed_in;   ///< framed source nodes, ascending

  /// Workspace sizing (elements): largest single outbound message, total
  /// inbound frame arena, largest non-frame inbound message, largest single
  /// inbound message of any kind, and the number of inbound messages per
  /// executor call (bundles + frames + directs + forwards).
  std::size_t max_outbound_elems = 0;
  std::size_t frame_arena_elems = 0;
  std::size_t max_nonframe_inbound_elems = 0;
  std::size_t max_inbound_elems = 0;
  std::size_t inbound_msgs = 0;

  /// Messages this rank posts on the wire per executor call; the
  /// uncoalesced executor posts one per off-node base peer.
  [[nodiscard]] std::size_t outbound_msgs() const noexcept {
    return direct_peers.size() + bundles.size() + send_frames.size();
  }

  friend bool operator==(const DirectionPlan&, const DirectionPlan&) = default;
};

/// Fingerprint of exactly the schedule inputs a coalesce plan consumes:
/// nlocal/nghost, the peer lists, and the per-peer message sizes. A plan is
/// valid for any schedule with the same fingerprint (frames carry the same
/// element counts between the same endpoints); a remap that changes the
/// communication pattern changes the fingerprint, which is how stale plans
/// are detected.
[[nodiscard]] std::uint64_t coalesce_fingerprint(const CommSchedule& s);

/// The per-rank coalescing plan for one CommSchedule on one node topology.
struct CoalescePlan {
  mp::Rank my_delegate = -1;  ///< delegate of this rank's node (may be self)
  DirectionPlan gather;
  DirectionPlan scatter;

  /// Staleness stamps, filled by coalesce(): the schedule fingerprint and
  /// the NodeMap delegate generation the plan was built against.
  std::uint64_t schedule_fingerprint = 0;
  std::uint64_t map_generation = 0;

  /// True when this plan still routes correctly for `s` under `nodes`:
  /// same communication pattern (fingerprint) and same delegate
  /// assignment (generation). The coalesced executors assert this — a
  /// remap or a delegate rotation without a plan rebuild is the classic
  /// stale-plan bug: frames silently keep pre-remap routing.
  [[nodiscard]] bool matches(const CommSchedule& s, const mp::NodeMap& nodes) const {
    return schedule_fingerprint == coalesce_fingerprint(s) &&
           map_generation == nodes.generation();
  }

  /// Member-wise equality, stamps included — the cache oracle's proof that
  /// a warm plan is byte-identical to a cold rebuild.
  friend bool operator==(const CoalescePlan&, const CoalescePlan&) = default;
};

/// Whether a node pair's traffic travels as one frame or as direct per-peer
/// messages. kAlwaysFrame is the original all-or-nothing mode; kAdaptive
/// prices each node pair with frame_profitable() and demotes the pairs where
/// the frame's funnel costs outweigh the setups it saves — mixed plans (some
/// pairs framed, some direct) stay byte-identical to the uncoalesced
/// schedule.
enum class CoalescePolicy : std::uint8_t {
  kAlwaysFrame,
  kAdaptive,
};

/// Measured cost of the coalesced frames one delegate shipped to one
/// destination node over an observation interval (from
/// mp::CommStats::PairFrames): what the frames *actually* cost on that
/// delegate's clock, speed and availability included.
struct MeasuredPairCost {
  std::int32_t src_node = -1;
  std::int32_t dst_node = -1;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;  ///< virtual seconds on the source delegate's clock
  /// Receive side, recorded by the *destination* delegate: pieces it
  /// forwarded to co-residents while demuxing this pair's frames, their
  /// bytes, and what the forwards cost on its clock. Zero until the
  /// destination delegate has observed a window; the send-side fields of
  /// the same entry then keep pricing the source end.
  std::uint64_t dst_pieces = 0;
  std::uint64_t dst_bytes = 0;
  double dst_seconds = 0.0;
};

/// The cluster-wide measured table fed back into coalesce() (the
/// inspector/executor loop's analogue of the LB controller feeding measured
/// time-per-item into MCR). Every rank must hold the identical table — the
/// caller allgathers the per-rank windows — so both endpoint delegates of a
/// pair derive the same verdict from it.
struct MeasuredPairCosts {
  std::vector<MeasuredPairCost> pairs;

  [[nodiscard]] bool empty() const noexcept { return pairs.empty(); }

  /// Observed slowdown of `node`'s delegate on frame work: measured seconds
  /// over what the NetworkModel predicts for the same frames at reference
  /// speed. 1.0 when the node shipped nothing (or the model predicts zero
  /// cost) — the a-priori estimate then stands.
  [[nodiscard]] double node_slowdown(int node, const sim::NetworkModel& net) const;

  /// Receive-side analogue: `node`'s delegate's measured demux/forward
  /// seconds over the model's prediction for the same pieces (one intra-node
  /// setup per forwarded piece plus the bytes through shared memory — the
  /// dst_penalty terms of frame_profitable). 1.0 until that delegate has
  /// observed forwards, so the a-priori destination estimate stands exactly
  /// as long as it has to.
  [[nodiscard]] double dst_node_slowdown(int node, const sim::NetworkModel& net) const;
};

struct CoalesceOptions {
  CoalescePolicy policy = CoalescePolicy::kAlwaysFrame;
  /// Payload element width assumed by the crossover estimate. The plan is
  /// built from element counts before the executor picks its wire type; the
  /// default prices the library's double-valued executors.
  double bytes_per_elem = 8.0;
  /// When set (kAdaptive only), per-pair verdicts come from observation:
  /// frame_profitable's delegate terms are scaled by each endpoint's
  /// measured slowdown instead of assuming reference speed. Must point at
  /// an identical table on every rank (see MeasuredPairCosts); pairs and
  /// nodes without measurements fall back to the a-priori estimate.
  const MeasuredPairCosts* measured = nullptr;
};

/// One node pair's traffic in one direction, aggregated from the plan
/// exchange. Both endpoint delegates can derive the identical summary from
/// their own side's reports (sender reports name targets, receiver reports
/// name sources — the same (source, target, count) multiset), so the framing
/// decision is computed independently yet consistently on both nodes.
struct PairTraffic {
  std::size_t messages = 0;           ///< rank-pair messages the frame would merge
  std::size_t elems = 0;              ///< total payload elements
  std::size_t src_delegate_msgs = 0;  ///< messages the source delegate sends itself
  std::size_t dst_delegate_msgs = 0;  ///< messages addressed to the dest delegate
  std::size_t bundle_sends = 0;       ///< non-delegate source ranks (bundles in)
  std::size_t src_off_delegate_elems = 0;  ///< elements funneled into the frame
  std::size_t dst_off_delegate_elems = 0;  ///< elements forwarded after demux
};

/// The per-node-pair crossover (the `node_coalescing_*` benches expose it).
/// Direct messages spread their costs across the node's ranks in parallel;
/// a frame concentrates the pair's whole cost on the two delegates — the
/// likely clock bottlenecks — so the decision compares the *delegates'*
/// critical paths, not wire totals. Framing saves the delegates their own
/// per-message setups but costs them the funnel: every co-resident's bytes
/// serialize on the source delegate's CPU (NetworkModel::serialization_cost),
/// which also absorbs one bundle handoff per co-resident sender, while the
/// dest delegate forwards every non-delegate piece through shared memory.
/// True when the saving covers the cost — ties frame, so a zero-cost
/// network reproduces kAlwaysFrame exactly.
///
/// Every term that runs on a delegate's clock is scaled by that endpoint's
/// observed slowdown (src_slowdown for the source delegate's setups,
/// serialization and bundle handoffs, dst_slowdown for the destination's
/// receive setups and forwards). The 1.0 defaults give the a-priori,
/// reference-speed verdict bit for bit (x * 1.0 is exact); an asymmetric
/// slowdown (one endpoint's delegate on a slow or loaded CPU) can flip it —
/// the verdict then comes from observation, not the model.
[[nodiscard]] bool frame_profitable(const PairTraffic& t, const sim::NetworkModel& net,
                                    double bytes_per_elem, double src_slowdown = 1.0,
                                    double dst_slowdown = 1.0);

/// Collective (like the inspector): every rank calls this with its own
/// schedule. Co-resident ranks report their off-node outbound and inbound
/// lists to their node's delegate, which learns the frame layouts it will
/// assemble and demux; the exchange is intra-node traffic and its cost is
/// charged to p's clock, as are the list-processing costs via `costs`. With
/// a trivial node map (one rank per node) every frame demotes to a direct
/// message and the coalesced executors behave exactly like the plain ones.
///
/// Under CoalescePolicy::kAdaptive the delegates additionally price every
/// node pair against p.net() and reply the per-pair verdicts to their
/// co-residents; demoted pairs keep the base schedule's direct per-peer
/// messages. The default options give the original all-or-nothing framing
/// (CoalescePolicy::kAlwaysFrame).
///
/// A fresh plan is patch_coalesce() from an empty base: no old lists, so
/// every report diff is the whole report and every node pair is priced.
/// Only the compute charge differs — a fresh build's delegate pays for
/// every demux entry, a patch for the diffed and re-priced entries.
[[nodiscard]] CoalescePlan coalesce(mp::Process& p, const CommSchedule& s,
                                    const sim::CpuCostModel& costs,
                                    const CoalesceOptions& opts = {});

/// Collective: patch `old_plan` (built for `old_s`) into a plan for `new_s`
/// without re-exchanging or re-pricing the whole node's traffic. Every rank
/// diffs its new off-node reports against the old ones entry by entry and
/// ships only the diff to its delegate, which splices the retained reports,
/// re-prices exactly the node pairs the diff touches (reusing the stored
/// verdicts everywhere else — both endpoint delegates see the same diffed
/// multiset, so verdicts stay pairwise consistent), and re-derives the frame
/// layouts. This is the one plan exchange: coalesce() runs it from an empty
/// base. Byte-identical to coalesce(p, new_s, costs, opts) when `opts`
/// (policy, bytes_per_elem, measured table) matches what `old_plan` was
/// built with — the precondition the oracle tests pin; under the adaptive
/// executor the table may have drifted, in which case unchanged pairs keep
/// their old (still pairwise-consistent) verdicts, which is exactly the
/// "don't replan on silence" retention rule.
///
/// The exchange ships diff-sized payloads and the compute charge covers the
/// classification plus the diffed entries only, so the virtual clock sees
/// the splice's saving; throws (STANCE_REQUIRE) when `old_plan` no longer
/// matches `old_s` under the current delegate assignment — a delegate
/// rotation invalidates the plan and demands a full coalesce().
[[nodiscard]] CoalescePlan patch_coalesce(mp::Process& p, const CoalescePlan& old_plan,
                                          const CommSchedule& old_s,
                                          const CommSchedule& new_s,
                                          const sim::CpuCostModel& costs,
                                          const CoalesceOptions& opts);

/// Tag transforms giving frames, bundles, and delegate forwards their own
/// matching space, so a coalesced phase can never cross-match a direct
/// message of the same executor tag.
inline constexpr mp::Tag frame_tag(mp::Tag t) { return t ^ 0x00100000; }
inline constexpr mp::Tag forward_tag(mp::Tag t) { return t ^ 0x00200000; }
inline constexpr mp::Tag bundle_tag(mp::Tag t) { return t ^ 0x00400000; }

}  // namespace stance::sched
