#include "lb/controller.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace stance::lb {
namespace {

constexpr mp::Tag kLoadTag = 0x7d000001;
constexpr mp::Tag kDecisionTag = 0x7d000002;
/// The rank that gathers the loads and decides under kCentralized.
constexpr Rank kControllerRank = 0;

/// Wire form of a decision: [remap, predicted_current, predicted_new,
/// remap_cost, p, size_0..size_{p-1}, arr_0..arr_{p-1}]. Doubles carry the
/// integers exactly (all values are far below 2^53).
std::vector<double> encode(const LbDecision& d, const IntervalPartition& current) {
  std::vector<double> w;
  const auto p = static_cast<std::size_t>(current.nparts());
  w.reserve(5 + 2 * p);
  w.push_back(d.remap ? 1.0 : 0.0);
  w.push_back(d.predicted_current);
  w.push_back(d.predicted_new);
  w.push_back(d.remap_cost);
  w.push_back(static_cast<double>(p));
  const IntervalPartition& part = d.remap ? d.new_partition : current;
  for (Rank r = 0; r < static_cast<Rank>(p); ++r) {
    w.push_back(static_cast<double>(part.size(r)));
  }
  for (const Rank r : part.arrangement()) w.push_back(static_cast<double>(r));
  return w;
}

LbDecision decode(const std::vector<double>& w) {
  STANCE_ASSERT(w.size() >= 5);
  LbDecision d;
  d.remap = w[0] != 0.0;
  d.predicted_current = w[1];
  d.predicted_new = w[2];
  d.remap_cost = w[3];
  const auto p = static_cast<std::size_t>(w[4]);
  STANCE_ASSERT(w.size() == 5 + 2 * p);
  std::vector<Vertex> sizes(p);
  partition::Arrangement arr(p);
  for (std::size_t i = 0; i < p; ++i) sizes[i] = static_cast<Vertex>(w[5 + i]);
  for (std::size_t i = 0; i < p; ++i) arr[i] = static_cast<Rank>(w[5 + p + i]);
  d.new_partition = IntervalPartition::from_sizes_arranged(sizes, arr);
  return d;
}

}  // namespace

LbDecision decide(const IntervalPartition& current, std::span<const double> time_per_item,
                  const LbOptions& opts) {
  STANCE_REQUIRE(time_per_item.size() == static_cast<std::size_t>(current.nparts()),
                 "decide: one time-per-item measurement per processor required");
  const auto p = time_per_item.size();

  // Ranks with no measurement (no items in the window) are assumed to run at
  // the mean speed of the measured ones.
  double known_sum = 0.0;
  std::size_t known = 0;
  for (const double t : time_per_item) {
    if (t > 0.0) {
      known_sum += t;
      ++known;
    }
  }
  LbDecision d;
  if (known == 0) return d;  // nothing to go on; keep the current partition
  const double fallback = known_sum / static_cast<double>(known);
  std::vector<double> tpi(time_per_item.begin(), time_per_item.end());
  for (auto& t : tpi) {
    if (t <= 0.0) t = fallback;
  }

  // Predicted per-iteration compute time: the slowest processor dominates.
  double t_cur = 0.0;
  for (std::size_t r = 0; r < p; ++r) {
    t_cur = std::max(t_cur, static_cast<double>(current.size(static_cast<Rank>(r))) * tpi[r]);
  }

  // Capability-proportional target sizes; MCR lays them out to minimize
  // data movement.
  std::vector<double> capability(p);
  for (std::size_t r = 0; r < p; ++r) capability[r] = 1.0 / tpi[r];
  const IntervalPartition target =
      partition::repartition_mcr(current, capability, opts.objective);

  double t_new = 0.0;
  for (std::size_t r = 0; r < p; ++r) {
    t_new = std::max(t_new, static_cast<double>(target.size(static_cast<Rank>(r))) * tpi[r]);
  }

  const auto cost = partition::redistribution_cost(current, target);
  const double move_seconds =
      opts.objective.per_message * static_cast<double>(cost.messages) +
      opts.objective.per_element * static_cast<double>(cost.moved);
  d.predicted_current = t_cur;
  d.predicted_new = t_new;
  d.remap_cost = move_seconds + opts.rebuild_cost_estimate;

  const double gain = (t_cur - t_new) * static_cast<double>(opts.check_interval);
  if (gain > opts.profitability_factor * d.remap_cost && t_new < t_cur) {
    d.remap = true;
    d.new_partition = target;
  }
  return d;
}

LbDecision load_balance_check(mp::Process& p, const IntervalPartition& current,
                              double my_time_per_item, const LbOptions& opts) {
  const Rank me = p.rank();

  if (opts.strategy == LbStrategy::kDistributed) {
    // One allgather, then every rank computes the identical decision —
    // decide() is deterministic in its inputs.
    const auto tpi = p.allgather(my_time_per_item);
    return decide(current, tpi, opts);
  }

  std::vector<double> wire;

  if (me == kControllerRank) {
    // Loads arrive as separate messages (paper: "sending the load
    // information as separate messages to the controller").
    std::vector<double> tpi(static_cast<std::size_t>(p.nprocs()));
    tpi[static_cast<std::size_t>(me)] = my_time_per_item;
    for (Rank r = 0; r < p.nprocs(); ++r) {
      if (r == me) continue;
      tpi[static_cast<std::size_t>(r)] = p.recv_value<double>(r, kLoadTag);
    }
    const LbDecision d = decide(current, tpi, opts);
    wire = encode(d, current);
    // Broadcast the decision.
    if (opts.use_multicast) {
      std::vector<Rank> dests;
      for (Rank r = 0; r < p.nprocs(); ++r) {
        if (r != me) dests.push_back(r);
      }
      p.multicast(dests, kDecisionTag, wire);
    } else {
      for (Rank r = 0; r < p.nprocs(); ++r) {
        if (r != me) p.send(r, kDecisionTag, wire);
      }
    }
    return d;
  }

  p.send_value(kControllerRank, kLoadTag, my_time_per_item);
  wire = p.recv<double>(kControllerRank, kDecisionTag);
  return decode(wire);
}

}  // namespace stance::lb
