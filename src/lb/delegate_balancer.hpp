// Frame-aware delegate balancing (ROADMAP "Frame-aware load balancing").
//
// The coalescing delegate (mp/node_map.hpp) pays the whole node's wire
// costs: every framed byte serializes on its CPU and every bundle/forward
// hop lands on its clock — the byte-bound funneling `bench_ablate_coalescing`
// exposes. That cost is measured, not modeled: CommStats::frames_sent /
// frame_bytes_sent record exactly what the rank shipped on behalf of its
// co-residents, and frame_seconds() prices it with the NetworkModel the
// same way the virtual clock charged it.
//
// The remedy is to rotate the role (choose_delegates / rotate_delegates):
// per node, hand the frame endpoint to the rank whose measured load is
// lowest — on a heterogeneous or partially loaded node the funneling then
// runs on the fastest co-resident CPU. The decision is collective and its
// message cost is charged in virtual time, like every other balancing
// decision.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mp/comm_stats.hpp"
#include "mp/node_map.hpp"
#include "mp/process.hpp"
#include "sim/cpu_costs.hpp"
#include "sim/network_model.hpp"

namespace stance::lb {

/// Sender-side virtual seconds `frames`/`bytes` of coalesced traffic cost
/// their rank: one wire setup per frame plus the serialized bytes, priced
/// with the same NetworkModel terms the clock charged when they were sent.
[[nodiscard]] double frame_seconds(std::uint64_t frames, std::uint64_t bytes,
                                   const sim::NetworkModel& net);

/// Price a rank's cumulative frame counters. Inside a multi-interval
/// controller loop prefer the FrameWindow overload: the cumulative counters
/// keep growing across intervals, so pricing them biases the decision
/// toward historical load instead of the load just measured.
[[nodiscard]] double frame_seconds(const mp::CommStats& stats,
                                   const sim::NetworkModel& net);

/// Price one measurement interval (mp::CommStats::take_frame_window) — the
/// form the adaptive executor's per-check rotation decision uses.
[[nodiscard]] double frame_seconds(const mp::CommStats::FrameWindow& window,
                                   const sim::NetworkModel& net);

/// Pure decision (unit-testable without a cluster): per node, pick the rank
/// with the lowest `rank_load` (virtual seconds of measured load, e.g.
/// busy time plus frame_seconds) as the next delegate. Ties break to the
/// lowest rank, so uniform loads reproduce the default assignment.
[[nodiscard]] std::vector<mp::Rank> choose_delegates(
    const mp::NodeMap& nodes, std::span<const double> rank_load);

/// Incumbent-keeping variant: a node whose ranks measured no load at all
/// (the delegate shipped zero frames this interval) keeps `current[node]`
/// instead of resetting to its lowest rank — there is nothing to decide on
/// an idle node, and a deliberate earlier rotation must not be undone by a
/// quiet interval.
[[nodiscard]] std::vector<mp::Rank> choose_delegates(const mp::NodeMap& nodes,
                                                     std::span<const double> rank_load,
                                                     std::span<const mp::Rank> current);

/// Collective: allgather every rank's load (charged to the clocks like any
/// balancing round), then run the deterministic incumbent-keeping choice —
/// every rank returns the identical per-node delegate vector, ready for
/// mp::Cluster::set_delegates / mp::Process::set_delegates + a
/// sched::coalesce rebuild. Nodes with zero measured load are skipped with
/// a single list-op charge instead of one per resident rank
/// (skip-and-charge-once: an idle node pays for noticing it is idle, not
/// for a decision it does not make). `loads_out`, when non-null, receives
/// the allgathered per-rank loads — callers price rotation profitability
/// from them without a second collective.
[[nodiscard]] std::vector<mp::Rank> rotate_delegates(
    mp::Process& p, double my_load,
    const sim::CpuCostModel& costs = sim::CpuCostModel::free(),
    std::vector<double>* loads_out = nullptr);

}  // namespace stance::lb
