// Executor primitives (paper §3.3): gather fetches off-processor elements
// into the local ghost buffer; scatter pushes ghost contributions back to
// their owners with a combining operator. Both are driven entirely by a
// CommSchedule — the executor never consults a translation table.
//
// Steady-state calls are allocation-free: payloads are packed into a
// persistent ExecWorkspace and received via Process::recv_into, whose
// buffers round-trip through the mailbox pool. Each executor phase uses a
// distinct message tag so interleaved phases (e.g. a sweep's gather racing
// an operator's gather on a buffered-send cluster) can never cross-match.
//
// Pack (payload[k] = values[list[k]]), unpack and combine are plain loops;
// per-element combine order is part of the determinism contract.
#pragma once

#include <algorithm>
#include <functional>
#include <span>

#include "exec/workspace.hpp"
#include "mp/process.hpp"
#include "sched/coalesce.hpp"
#include "sched/schedule.hpp"
#include "sim/cpu_costs.hpp"
#include "support/assert.hpp"

namespace stance::exec {

using sched::CommSchedule;
using sched::Vertex;

inline constexpr mp::Tag kGatherTag = 0x7e000001;
inline constexpr mp::Tag kScatterTag = 0x7e000002;
// Per-phase tags for the executors built on gather/scatter. Keeping every
// call site on its own tag means a message can only ever match the phase
// that posted it.
inline constexpr mp::Tag kLoopGatherTag = 0x7e000011;
inline constexpr mp::Tag kSweepGatherTag = 0x7e000012;
inline constexpr mp::Tag kSweepScatterTag = 0x7e000013;
inline constexpr mp::Tag kOperatorGatherTag = 0x7e000014;

/// dst[k] = src[idx[k]] for k in [0, n): the pack loop of every executor.
template <typename T>
inline void pack_indexed(const T* src, const Vertex* idx, std::size_t n, T* dst) {
  for (std::size_t k = 0; k < n; ++k) {
    dst[k] = src[static_cast<std::size_t>(idx[k])];
  }
}

/// Collective. `local` is this rank's owned values (size nlocal); on return
/// `ghost` (size nghost) holds the referenced off-processor values. `ws`
/// provides the packing/unpacking buffers and is typically owned by the
/// calling executor for the lifetime of the schedule.
template <mp::WireType T>
void gather(mp::Process& p, const CommSchedule& s, std::span<const T> local,
            std::span<T> ghost, ExecWorkspace& ws,
            const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
            mp::Tag tag = kGatherTag) {
  STANCE_REQUIRE(local.size() == static_cast<std::size_t>(s.nlocal),
                 "gather: local buffer size mismatch");
  STANCE_REQUIRE(ghost.size() == static_cast<std::size_t>(s.nghost),
                 "gather: ghost buffer size mismatch");
  const std::size_t max_send = s.max_send_elems();
  const std::size_t max_recv = s.max_recv_elems();
  // Cover both this gather's inbound messages and the matching scatter's
  // (which arrive on the send lists), two iterations deep.
  ws.prewarm(p, 2 * (s.send_procs.size() + s.recv_procs.size()),
             std::max(max_send, max_recv) * sizeof(T));
  // Pack and post every send first (sends are buffered), then receive in
  // ascending peer order.
  const std::span<T> payload = ws.send_buffer<T>(max_send);
  for (std::size_t i = 0; i < s.send_procs.size(); ++i) {
    const auto& items = s.send_items[i];
    pack_indexed(local.data(), items.data(), items.size(), payload.data());
    p.compute(costs.per_copy_element * static_cast<double>(items.size()));
    p.send(s.send_procs[i], tag,
           std::span<const T>(payload.data(), items.size()));
  }
  const std::span<T> incoming = ws.recv_buffer<T>(max_recv);
  for (std::size_t i = 0; i < s.recv_procs.size(); ++i) {
    const auto& slots = s.recv_slots[i];
    p.recv_into(s.recv_procs[i], tag, incoming.subspan(0, slots.size()));
    for (std::size_t k = 0; k < slots.size(); ++k) {
      ghost[static_cast<std::size_t>(slots[k])] = incoming[k];
    }
    p.compute(costs.per_copy_element * static_cast<double>(slots.size()));
  }
}

/// Workspace-free convenience overload (allocates a transient workspace;
/// prefer the workspace form inside iteration loops).
template <mp::WireType T>
void gather(mp::Process& p, const CommSchedule& s, std::span<const T> local,
            std::span<T> ghost,
            const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
            mp::Tag tag = kGatherTag) {
  ExecWorkspace ws;
  gather(p, s, local, ghost, ws, costs, tag);
}

/// Collective. Reverse of gather: `ghost` holds contributions this rank
/// computed for off-processor elements; each owner combines the incoming
/// contribution into `local` via `combine(local_value, contribution)`.
template <mp::WireType T, typename Combine>
void scatter(mp::Process& p, const CommSchedule& s, std::span<const T> ghost,
             std::span<T> local, Combine combine, ExecWorkspace& ws,
             const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
             mp::Tag tag = kScatterTag) {
  STANCE_REQUIRE(local.size() == static_cast<std::size_t>(s.nlocal),
                 "scatter: local buffer size mismatch");
  STANCE_REQUIRE(ghost.size() == static_cast<std::size_t>(s.nghost),
                 "scatter: ghost buffer size mismatch");
  const std::size_t max_send = s.max_recv_elems();
  const std::size_t max_recv = s.max_send_elems();
  ws.prewarm(p, 2 * (s.send_procs.size() + s.recv_procs.size()),
             std::max(max_send, max_recv) * sizeof(T));
  const std::span<T> payload = ws.send_buffer<T>(max_send);
  for (std::size_t i = 0; i < s.recv_procs.size(); ++i) {
    const auto& slots = s.recv_slots[i];
    pack_indexed(ghost.data(), slots.data(), slots.size(), payload.data());
    p.compute(costs.per_copy_element * static_cast<double>(slots.size()));
    p.send(s.recv_procs[i], tag,
           std::span<const T>(payload.data(), slots.size()));
  }
  const std::span<T> incoming = ws.recv_buffer<T>(max_recv);
  for (std::size_t i = 0; i < s.send_procs.size(); ++i) {
    const auto& items = s.send_items[i];
    p.recv_into(s.send_procs[i], tag, incoming.subspan(0, items.size()));
    for (std::size_t k = 0; k < items.size(); ++k) {
      auto& slot = local[static_cast<std::size_t>(items[k])];
      slot = combine(slot, incoming[k]);
    }
    p.compute(costs.per_copy_element * static_cast<double>(items.size()));
  }
}

/// Workspace-free convenience overload.
template <mp::WireType T, typename Combine>
void scatter(mp::Process& p, const CommSchedule& s, std::span<const T> ghost,
             std::span<T> local, Combine combine,
             const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
             mp::Tag tag = kScatterTag) {
  ExecWorkspace ws;
  scatter(p, s, ghost, local, combine, ws, costs, tag);
}

/// Sum-combining scatter, the common case for FEM assembly.
template <mp::WireType T>
void scatter_add(mp::Process& p, const CommSchedule& s, std::span<const T> ghost,
                 std::span<T> local, ExecWorkspace& ws,
                 const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
                 mp::Tag tag = kScatterTag) {
  scatter(p, s, ghost, local, [](T a, T b) { return a + b; }, ws, costs, tag);
}

template <mp::WireType T>
void scatter_add(mp::Process& p, const CommSchedule& s, std::span<const T> ghost,
                 std::span<T> local,
                 const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
                 mp::Tag tag = kScatterTag) {
  ExecWorkspace ws;
  scatter_add(p, s, ghost, local, ws, costs, tag);
}

// --- node-aware coalesced exchange (sched/coalesce.hpp) ----------------------

namespace detail {

/// Shared engine of the coalesced executors.
///
/// Send phase: direct messages, shared-memory bundles to this rank's
/// delegate, then (on delegates) one wire frame per destination node,
/// assembled from the rank's own payload plus the co-residents' bundles.
/// Receive phase: delegates buffer every inbound frame first, then all
/// ranks run a merged ascending-source walk over direct receives, demux
/// pieces (forwarding co-residents' pieces through shared memory), and
/// delegate forwards — so per-element combine order matches the
/// uncoalesced path bit for bit.
template <mp::WireType T, typename PackFn, typename UnpackFn>
void coalesced_exchange(mp::Process& p, const sched::DirectionPlan& d,
                        mp::Rank my_delegate, std::span<const mp::Rank> peers,
                        const std::vector<std::vector<Vertex>>& out_lists,
                        std::span<const mp::Rank> sources,
                        const std::vector<std::vector<Vertex>>& in_lists,
                        ExecWorkspace& ws, const sim::CpuCostModel& costs, mp::Tag tag,
                        PackFn pack, UnpackFn unpack) {
  const std::span<T> payload = ws.send_buffer<T>(d.max_outbound_elems);
  // Direct messages and bundles first: they depend on nothing, and posting
  // them before any blocking receive keeps the dependency graph acyclic
  // (bundles -> frames -> forwards).
  for (const std::uint32_t i : d.direct_peers) {
    const auto& list = out_lists[i];
    pack(list, payload.subspan(0, list.size()));
    p.compute(costs.per_copy_element * static_cast<double>(list.size()));
    p.send(peers[i], tag, std::span<const T>(payload.data(), list.size()));
  }
  for (const auto& b : d.bundles) {
    std::size_t off = 0;
    for (const std::uint32_t i : b.peer_idx) {
      const auto& list = out_lists[i];
      pack(list, payload.subspan(off, list.size()));
      off += list.size();
    }
    p.compute(costs.per_copy_element * static_cast<double>(off));
    p.send(my_delegate, sched::bundle_tag(tag), std::span<const T>(payload.data(), off));
  }
  // Frame assembly (delegates): own parts are packed, co-residents' parts
  // are their bundles, spliced in ascending source order.
  for (const auto& f : d.send_frames) {
    std::size_t off = 0;
    for (const auto& part : f.parts) {
      if (part.source == p.rank()) {
        for (const std::uint32_t i : part.peer_idx) {
          const auto& list = out_lists[i];
          pack(list, payload.subspan(off, list.size()));
          off += list.size();
        }
        p.compute(costs.per_copy_element * static_cast<double>(part.elems));
      } else {
        p.recv_into(part.source, sched::bundle_tag(tag),
                    payload.subspan(off, part.elems));
        off += part.elems;
      }
    }
    // One wire setup for the whole node-to-node frame — the coalescing
    // payoff. The frame count/bytes and the *measured* clock seconds of the
    // send (setup + serialization at this CPU's actual speed) feed the
    // frame-aware balancer and the measured-cost coalescing feedback
    // (lb/delegate_balancer.hpp, sched::MeasuredPairCosts).
    const double frame_start = p.now();
    p.send(f.wire_dest, sched::frame_tag(tag), std::span<const T>(payload.data(), off));
    p.stats().record_frame(f.dest_node, off * sizeof(T), p.now() - frame_start);
  }
  // Receive phase. Buffer all frames back to back in the arena, then walk
  // base sources and demux pieces merged by ascending source rank.
  const std::span<T> incoming =
      ws.recv_buffer<T>(d.frame_arena_elems + d.max_nonframe_inbound_elems);
  for (const auto& f : d.recv_frames) {
    p.recv_into(f.wire_source, sched::frame_tag(tag),
                incoming.subspan(f.arena_offset, f.elems));
  }
  const std::span<T> scratch = incoming.subspan(d.frame_arena_elems);
  std::size_t si = 0;
  std::size_t di = 0;
  while (si < sources.size() || di < d.demux.size()) {
    const bool demux_next =
        di < d.demux.size() &&
        (si >= sources.size() || d.demux[di].source <= sources[si]);
    if (demux_next) {
      const auto& piece = d.demux[di++];
      const auto buf =
          std::span<const T>(incoming.data() + piece.arena_offset, piece.count);
      if (piece.target == p.rank()) {
        STANCE_ASSERT_MSG(si == piece.src_index,
                          "coalesced exchange: demux piece out of source order");
        unpack(piece.src_index, buf);
        p.compute(costs.per_copy_element * static_cast<double>(piece.count));
        ++si;
      } else {
        // Hand the co-resident target its piece through shared memory (an
        // intra-node message in the stats). The measured clock seconds feed
        // the receive side of the coalescing feedback
        // (sched::MeasuredPairCosts::dst_node_slowdown) — exactly the
        // dst_penalty terms of frame_profitable, now observed, not assumed.
        const double fwd_start = p.now();
        p.send(piece.target, sched::forward_tag(tag), buf);
        p.stats().record_frame_recv(p.nodes().node_of(piece.source),
                                    piece.count * sizeof(T), p.now() - fwd_start);
      }
    } else {
      const auto& list = in_lists[si];
      const auto buf = scratch.subspan(0, list.size());
      if (d.source_via[si] == sched::DirectionPlan::Via::kDirect) {
        p.recv_into(sources[si], tag, buf);
      } else {
        p.recv_into(my_delegate, sched::forward_tag(tag), buf);
      }
      unpack(si, buf);
      p.compute(costs.per_copy_element * static_cast<double>(list.size()));
      ++si;
    }
  }
}

/// Pool pre-provisioning for the coalesced executors. Like the plain path,
/// cover BOTH directions of the plan two iterations deep: a fast peer can
/// post its scatter traffic while this rank is still draining gather
/// messages, and the pool must absorb the overlap without allocating.
template <mp::WireType T>
void prewarm_coalesced(mp::Process& p, const sched::CoalescePlan& plan,
                       ExecWorkspace& ws) {
  ws.prewarm(p, 2 * (plan.gather.inbound_msgs + plan.scatter.inbound_msgs),
             std::max(plan.gather.max_inbound_elems, plan.scatter.max_inbound_elems) *
                 sizeof(T));
}

}  // namespace detail

/// Node-aware gather: byte-identical ghost regions to gather(), but all
/// payloads bound for one physical node share a single framed wire message
/// (one setup charge), with the destination node's delegate demuxing.
template <mp::WireType T>
void gather_coalesced(mp::Process& p, const CommSchedule& s,
                      const sched::CoalescePlan& plan, std::span<const T> local,
                      std::span<T> ghost, ExecWorkspace& ws,
                      const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
                      mp::Tag tag = kGatherTag) {
  STANCE_REQUIRE(local.size() == static_cast<std::size_t>(s.nlocal),
                 "gather_coalesced: local buffer size mismatch");
  STANCE_REQUIRE(ghost.size() == static_cast<std::size_t>(s.nghost),
                 "gather_coalesced: ghost buffer size mismatch");
  STANCE_ASSERT_MSG(plan.matches(s, p.nodes()),
                    "gather_coalesced: stale coalesce plan (schedule rebuilt or "
                    "delegates rotated) — rebuild it with sched::coalesce");
  detail::prewarm_coalesced<T>(p, plan, ws);
  detail::coalesced_exchange<T>(
      p, plan.gather, plan.my_delegate, s.send_procs, s.send_items, s.recv_procs,
      s.recv_slots, ws, costs, tag,
      [&](const std::vector<Vertex>& items, std::span<T> dst) {
        pack_indexed(local.data(), items.data(), items.size(), dst.data());
      },
      [&](std::size_t src, std::span<const T> buf) {
        const auto& slots = s.recv_slots[src];
        for (std::size_t k = 0; k < slots.size(); ++k) {
          ghost[static_cast<std::size_t>(slots[k])] = buf[k];
        }
      });
}

/// Node-aware scatter: combine order per element is ascending source rank —
/// exactly the uncoalesced order — so results are byte-identical.
template <mp::WireType T, typename Combine>
void scatter_coalesced(mp::Process& p, const CommSchedule& s,
                       const sched::CoalescePlan& plan, std::span<const T> ghost,
                       std::span<T> local, Combine combine, ExecWorkspace& ws,
                       const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
                       mp::Tag tag = kScatterTag) {
  STANCE_REQUIRE(local.size() == static_cast<std::size_t>(s.nlocal),
                 "scatter_coalesced: local buffer size mismatch");
  STANCE_REQUIRE(ghost.size() == static_cast<std::size_t>(s.nghost),
                 "scatter_coalesced: ghost buffer size mismatch");
  STANCE_ASSERT_MSG(plan.matches(s, p.nodes()),
                    "scatter_coalesced: stale coalesce plan (schedule rebuilt or "
                    "delegates rotated) — rebuild it with sched::coalesce");
  detail::prewarm_coalesced<T>(p, plan, ws);
  detail::coalesced_exchange<T>(
      p, plan.scatter, plan.my_delegate, s.recv_procs, s.recv_slots, s.send_procs,
      s.send_items, ws, costs, tag,
      [&](const std::vector<Vertex>& slots, std::span<T> dst) {
        pack_indexed(ghost.data(), slots.data(), slots.size(), dst.data());
      },
      [&](std::size_t src, std::span<const T> buf) {
        const auto& items = s.send_items[src];
        for (std::size_t k = 0; k < items.size(); ++k) {
          auto& slot = local[static_cast<std::size_t>(items[k])];
          slot = combine(slot, buf[k]);
        }
      });
}

/// Sum-combining coalesced scatter.
template <mp::WireType T>
void scatter_add_coalesced(mp::Process& p, const CommSchedule& s,
                           const sched::CoalescePlan& plan, std::span<const T> ghost,
                           std::span<T> local, ExecWorkspace& ws,
                           const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
                           mp::Tag tag = kScatterTag) {
  scatter_coalesced(p, s, plan, ghost, local, [](T a, T b) { return a + b; }, ws,
                    costs, tag);
}

}  // namespace stance::exec
