// AdaptiveExecutor: the full Phase B/C/D cycle (paper Fig. 1).
//
// Runs the irregular loop in chunks of `check_interval` iterations; after
// each chunk every processor reports its measured time-per-item to the
// controller, which may order a remap: redistribute the data (Phase D),
// rebuild the communication schedule (Phase B again), continue (Phase C).
//
// With the node-aware options enabled the cycle re-decides the whole
// communication strategy, not just the partition. Each check measures the
// interval's coalesced-frame traffic (mp::CommStats::take_frame_window) and
//   * re-prices the delegate role from it (lb::frame_seconds), rotating the
//     frame endpoint to the cheapest co-resident when the projected gain
//     covers the plan rebuild (lb::rotate_delegates +
//     mp::Process::set_delegates), and
//   * feeds the measured per-node-pair frame costs into the next
//     sched::coalesce() (sched::MeasuredPairCosts), so kAdaptive framing
//     verdicts come from observation instead of the a-priori
//     frame_profitable estimate — the same closed loop the controller runs
//     by feeding measured time-per-item into MCR.
// Every decision collective and every plan rebuild is charged to the
// virtual clocks; results stay byte-identical to the uncoalesced loop.
#pragma once

#include <memory>
#include <vector>

#include "exec/irregular_loop.hpp"
#include "graph/csr.hpp"
#include "lb/controller.hpp"
#include "lb/load_monitor.hpp"
#include "lb/predictor.hpp"
#include "mp/process.hpp"
#include "partition/remap_delta.hpp"
#include "sched/coalesce.hpp"
#include "sched/inspector.hpp"

namespace stance::lb {

/// Phases the kTrend load predictor fits its slope over.
inline constexpr int kTrendWindow = 4;
/// A delegate rotation is installed when its projected per-interval gain
/// exceeds this many times the measured plan-rebuild cost.
inline constexpr double kRotationProfitabilityFactor = 1.0;
/// Relative drift of a node's measured slowdown (either endpoint) that
/// triggers a replan without waiting for a remap.
inline constexpr double kFeedbackReplanThreshold = 0.25;

struct AdaptiveOptions {
  LbOptions lb;
  sched::BuildMethod build = sched::BuildMethod::kSort2;
  sim::CpuCostModel cpu = sim::CpuCostModel::free();
  exec::LoopCostModel loop = exec::LoopCostModel::free();
  bool enable_lb = true;  ///< false = never check, never remap (baseline)

  /// How the next phase's load is predicted from measured phases (paper
  /// footnote 2 extension; kLast reproduces the paper's behaviour).
  PredictorKind predictor = PredictorKind::kLast;
  double ema_alpha = 0.5;

  /// --- node-aware communication re-decision ------------------------------
  /// Route the loop's ghost exchange through node-aware coalesced frames
  /// (sched::coalesce). The plan is rebuilt with every schedule rebuild and
  /// whenever the delegate assignment or the measured verdicts change — an
  /// executor never runs on a stale plan. No effect on a trivial node map.
  bool coalesce = false;
  sched::CoalesceOptions coalesce_opts{};
  /// Re-choose each node's frame delegate every check from the interval's
  /// measured frame cost; install the rotation only when the projected
  /// per-interval gain exceeds kRotationProfitabilityFactor times the
  /// (measured) plan rebuild cost. Requires `coalesce`.
  bool rotate_delegates = false;
  /// Allgather the measured per-node-pair frame costs every check and feed
  /// them into the next sched::coalesce() (kAdaptive verdicts from
  /// observation). Replans without waiting for a remap when a node's
  /// measured slowdown drifts by more than kFeedbackReplanThreshold
  /// (relative). Requires `coalesce`.
  bool measured_feedback = false;
};

/// Per-rank accounting of one run() (virtual seconds).
struct AdaptiveReport {
  int iterations = 0;
  int checks = 0;
  int remaps = 0;
  int rotations = 0;  ///< delegate rotations installed
  int replans = 0;    ///< coalesce-plan rebuilds outside remaps
  double total_seconds = 0.0;        ///< elapsed clock across run()
  double check_seconds = 0.0;        ///< load-balance checks (excl. remaps)
  double remap_seconds = 0.0;        ///< redistribution + schedule rebuild
  double retune_seconds = 0.0;       ///< frame re-decision: measurement
                                     ///< exchange, rotation decision + install,
                                     ///< plan rebuilds outside remaps
  double first_build_seconds = 0.0;  ///< initial Phase-B cost (constructor)
};

class AdaptiveExecutor {
 public:
  /// Collective. Builds the initial schedule for `initial`; the measured
  /// build time seeds the controller's rebuild-cost estimate unless the
  /// caller provided one in opts.lb.rebuild_cost_estimate.
  AdaptiveExecutor(mp::Process& p, const graph::Csr& g, partition::IntervalPartition initial,
                   AdaptiveOptions opts);

  /// Collective. Run `iterations` sweeps over `y` (owned values under
  /// partition()); y is redistributed in place whenever a remap happens, so
  /// on return it is aligned with the *final* partition().
  AdaptiveReport run(mp::Process& p, std::vector<double>& y, int iterations);

  /// Outcome of one explicit load-balance check.
  struct CheckOutcome {
    LbDecision decision;
    double check_seconds = 0.0;  ///< protocol cost (virtual)
    double remap_seconds = 0.0;  ///< redistribution + rebuild, 0 if no remap
    bool rotated = false;        ///< a delegate rotation was installed
    bool replanned = false;      ///< the coalesce plan was rebuilt (no remap)
    double retune_seconds = 0.0;  ///< frame re-decision cost incl. replan
  };

  /// Collective. Run one load-balance check immediately — what run() does
  /// every check_interval iterations: re-decide the framing strategy from
  /// the interval's measured frame traffic (rotation + measured feedback,
  /// when enabled), then the paper's load-balance protocol. Redistributes
  /// `y` and rebuilds schedule + plan on a remap; resets the measurement
  /// window either way.
  CheckOutcome check_now(mp::Process& p, std::vector<double>& y);

  /// Per-vertex work multipliers for adaptive applications (see
  /// exec::IrregularLoop::set_vertex_work). A remap rebuilds the loop and
  /// resets the multipliers to uniform — re-install them for the new
  /// partition afterwards (the owned interval changed).
  void set_vertex_work(std::vector<double> multipliers) {
    loop_->set_vertex_work(std::move(multipliers));
  }

  /// Collective: switch to an explicitly chosen partition — redistribute `y`
  /// and rebuild the schedule. For adaptive *applications* whose per-vertex
  /// work is known (refinement levels): the paper's time-per-item controller
  /// assumes "the variation in computational cost per data unit is
  /// relatively small", so when it is not, compute the partition yourself
  /// (IntervalPartition::from_vertex_weights) and install it here. Resets
  /// the measurement window; vertex-work multipliers return to uniform.
  void repartition(mp::Process& p, const partition::IntervalPartition& next,
                   std::vector<double>& y);

  /// Collective: adopt an edited mesh (same vertex count — AMR-style weight
  /// and stencil churn, see graph::CsrDelta) and optionally a new partition
  /// in one step, riding the whole delta pipeline: the schedule is spliced
  /// (sched::rebuild_incremental), the coalesce plan patched
  /// (sched::patch_coalesce) when it still matches, the executor rebound in
  /// place, and only grown arenas re-prewarm. `new_graph` must outlive this
  /// executor (it becomes the graph all later rebuilds read); `cd` is the
  /// edit that produced it from the current graph — a stamped
  /// result_fingerprint is checked against new_graph (the chain rule), and
  /// the edit's dirty vertices drive the splice. Pass `next` to move
  /// interval boundaries in the same step (redistributes `y`); nullptr keeps
  /// the current partition. Resets the measurement window; vertex-work
  /// multipliers return to uniform.
  void apply_mesh_delta(mp::Process& p, const graph::Csr& new_graph,
                        const graph::CsrDelta& cd,
                        const partition::IntervalPartition* next,
                        std::vector<double>& y);

  /// The remap delta of the last incremental rebuild (empty intervals before
  /// any remap/mesh edit) — what Phase D emitted and the splice consumed.
  [[nodiscard]] const partition::RemapDelta& last_delta() const noexcept {
    return last_delta_;
  }

  [[nodiscard]] const partition::IntervalPartition& partition() const noexcept {
    return part_;
  }
  [[nodiscard]] const sched::InspectorResult& inspector() const noexcept { return ir_; }
  [[nodiscard]] const LoadMonitor& monitor() const noexcept { return monitor_; }
  [[nodiscard]] const LoadPredictor& predictor() const noexcept { return predictor_; }

  /// Whether the loop currently runs through coalesced frames (node-aware
  /// options on a nontrivial node map), and the installed plan.
  [[nodiscard]] bool coalescing() const noexcept { return coalescing_; }
  [[nodiscard]] const sched::CoalescePlan& coalesce_plan() const noexcept {
    return plan_;
  }
  /// The measured table fed into the last plan build (empty until the first
  /// check with measured_feedback).
  [[nodiscard]] const sched::MeasuredPairCosts& measured_costs() const noexcept {
    return measured_;
  }

 private:
  void rebuild(mp::Process& p);
  void build_plan(mp::Process& p);
  /// Phase D via the delta pipeline: splice the schedule for `delta`
  /// (sched::rebuild_incremental against the current ir_), patch or rebuild
  /// the coalesce plan, and rebind the loop in place. `fresh_verdicts`
  /// forces a full coalesce() (rotation bumped the map generation, or the
  /// measured table drifted past the replan threshold — stored verdicts are
  /// not worth splicing).
  void rebuild_from_delta(mp::Process& p, const partition::RemapDelta& delta,
                          bool fresh_verdicts);
  /// Allgather the interval's per-pair frame measurements into measured_.
  void update_measured(mp::Process& p, const mp::CommStats::FrameWindow& window);
  /// True when a node's measured slowdown moved more than the threshold
  /// since the current plan was priced.
  [[nodiscard]] bool slowdown_drifted(const mp::Process& p) const;

  const graph::Csr* g_;  ///< non-owning; apply_mesh_delta repoints
  partition::IntervalPartition part_;
  AdaptiveOptions opts_;
  sched::InspectorResult ir_;
  std::unique_ptr<exec::IrregularLoop> loop_;
  LoadMonitor monitor_;
  LoadPredictor predictor_;
  double first_build_seconds_ = 0.0;
  partition::RemapDelta last_delta_;

  bool coalescing_ = false;
  sched::CoalescePlan plan_;
  sched::MeasuredPairCosts measured_;
  std::vector<double> plan_slowdowns_;      ///< per node, at last plan build
  std::vector<double> plan_dst_slowdowns_;  ///< receive side, ditto
  double plan_build_estimate_ = 0.0;        ///< rank-consistent (allreduce_max)
};

}  // namespace stance::lb
