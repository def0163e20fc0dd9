#include "lb/delegate_balancer.hpp"

#include "support/assert.hpp"

namespace stance::lb {

double frame_seconds(std::uint64_t frames, std::uint64_t bytes,
                     const sim::NetworkModel& net) {
  // Sender-CPU price of the recorded frames: one setup each plus the bytes
  // serialized through the synchronous stack — the same terms the virtual
  // clock charged when the delegate shipped them.
  return static_cast<double>(frames) * net.send_overhead +
         net.serialization_cost(static_cast<std::size_t>(bytes));
}

double frame_seconds(const mp::CommStats& stats, const sim::NetworkModel& net) {
  return frame_seconds(stats.frames_sent, stats.frame_bytes_sent, net);
}

double frame_seconds(const mp::CommStats::FrameWindow& window,
                     const sim::NetworkModel& net) {
  return frame_seconds(window.frames_sent, window.frame_bytes_sent, net);
}

std::vector<mp::Rank> choose_delegates(const mp::NodeMap& nodes,
                                       std::span<const double> rank_load) {
  STANCE_REQUIRE(rank_load.size() == static_cast<std::size_t>(nodes.nprocs()),
                 "choose_delegates: one load per rank required");
  std::vector<mp::Rank> out(static_cast<std::size_t>(nodes.nnodes()));
  for (int node = 0; node < nodes.nnodes(); ++node) {
    mp::Rank best = -1;
    double best_load = 0.0;
    for (const mp::Rank r : nodes.ranks_on(node)) {
      const double load = rank_load[static_cast<std::size_t>(r)];
      if (best < 0 || load < best_load) {
        best = r;
        best_load = load;
      }
    }
    out[static_cast<std::size_t>(node)] = best;
  }
  return out;
}

std::vector<mp::Rank> choose_delegates(const mp::NodeMap& nodes,
                                       std::span<const double> rank_load,
                                       std::span<const mp::Rank> current) {
  STANCE_REQUIRE(rank_load.size() == static_cast<std::size_t>(nodes.nprocs()),
                 "choose_delegates: one load per rank required");
  STANCE_REQUIRE(current.size() == static_cast<std::size_t>(nodes.nnodes()),
                 "choose_delegates: one incumbent per node required");
  std::vector<mp::Rank> out(current.begin(), current.end());
  for (int node = 0; node < nodes.nnodes(); ++node) {
    mp::Rank best = -1;
    double best_load = 0.0;
    double total = 0.0;
    for (const mp::Rank r : nodes.ranks_on(node)) {
      const double load = rank_load[static_cast<std::size_t>(r)];
      total += load;
      if (best < 0 || load < best_load) {
        best = r;
        best_load = load;
      }
    }
    if (total > 0.0) out[static_cast<std::size_t>(node)] = best;
  }
  return out;
}

std::vector<mp::Rank> rotate_delegates(mp::Process& p, double my_load,
                                       const sim::CpuCostModel& costs,
                                       std::vector<double>* loads_out) {
  const auto loads = p.allgather(my_load);
  const mp::NodeMap& nodes = p.nodes();
  // Skip-and-charge-once: a node that measured no load keeps its delegate —
  // there is no decision to make there — so its entries cost one list op
  // (the idleness check), not one per resident rank. Loaded nodes pay the
  // full per-rank scan.
  double scan_ops = 0.0;
  for (int node = 0; node < nodes.nnodes(); ++node) {
    double total = 0.0;
    for (const mp::Rank r : nodes.ranks_on(node)) {
      total += loads[static_cast<std::size_t>(r)];
    }
    scan_ops += total > 0.0 ? static_cast<double>(nodes.ranks_on(node).size()) : 1.0;
  }
  p.compute(costs.per_list_op * scan_ops);
  const auto current = nodes.delegates();
  auto chosen = choose_delegates(nodes, loads, current);
  if (loads_out != nullptr) *loads_out = loads;
  return chosen;
}

}  // namespace stance::lb
