// Centralized load-balancing controller (paper §3.5).
//
// Protocol per check: every processor sends its measured time-per-item to
// the controller as a separate message; the controller predicts the next
// phase's time under the current and a rebalanced partition, tests
// profitability (predicted gain over the next check interval must exceed
// the estimated remap cost), picks the new arrangement with MCR, and
// broadcasts the decision (multicast when the network supports it).
#pragma once

#include <span>
#include <vector>

#include "mp/process.hpp"
#include "partition/arrangement.hpp"
#include "partition/interval.hpp"
#include "partition/mcr.hpp"

namespace stance::lb {

using partition::IntervalPartition;
using partition::Rank;
using partition::Vertex;

/// How loads are exchanged and the decision made. The paper implements the
/// centralized controller and calls distributed strategies future work
/// ("When better resource management tools are available, we hope to have
/// distributed strategies"); kDistributed is that extension: one allgather
/// of the loads, then every rank runs the (deterministic) decision locally —
/// no controller bottleneck, O(log p) instead of O(p) message rounds.
enum class LbStrategy {
  kCentralized,
  kDistributed,
};

struct LbOptions {
  int check_interval = 10;            ///< iterations between checks (paper §5)
  double profitability_factor = 1.0;  ///< remap iff gain > factor * remap cost
  bool use_multicast = false;         ///< broadcast decision via multicast
  LbStrategy strategy = LbStrategy::kCentralized;
  partition::ArrangementObjective objective =
      partition::ArrangementObjective::overlap_only();
  /// Caller-supplied estimate of rebuilding the communication schedule after
  /// a remap (e.g. the measured Phase-B time); part of the remap cost.
  double rebuild_cost_estimate = 0.0;
};

struct LbDecision {
  bool remap = false;
  IntervalPartition new_partition;  ///< valid only when remap

  /// Diagnostics (filled by the controller, broadcast to all):
  double predicted_current = 0.0;  ///< per-iteration time if nothing changes
  double predicted_new = 0.0;      ///< per-iteration time after remap
  double remap_cost = 0.0;         ///< estimated one-time cost
};

/// Pure decision logic (unit-testable without a cluster): given the current
/// partition and per-processor time-per-item measurements, decide.
[[nodiscard]] LbDecision decide(const IntervalPartition& current,
                                std::span<const double> time_per_item,
                                const LbOptions& opts);

/// Collective: run one load-balance check. Every rank passes its own
/// time-per-item; the identical decision is returned on every rank.
/// Communication costs (p-1 load messages + broadcast) land on the clocks.
[[nodiscard]] LbDecision load_balance_check(mp::Process& p,
                                            const IntervalPartition& current,
                                            double my_time_per_item,
                                            const LbOptions& opts);

}  // namespace stance::lb
