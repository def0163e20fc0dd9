#include "lb/adaptive_executor.hpp"

#include <algorithm>
#include <cmath>

#include "graph/delta.hpp"
#include "lb/delegate_balancer.hpp"
#include "partition/redistribute.hpp"
#include "sched/incremental.hpp"
#include "support/assert.hpp"

namespace stance::lb {

AdaptiveExecutor::AdaptiveExecutor(mp::Process& p, const graph::Csr& g,
                                   partition::IntervalPartition initial,
                                   AdaptiveOptions opts)
    : g_(&g), part_(std::move(initial)), opts_(std::move(opts)),
      predictor_(opts_.predictor, opts_.ema_alpha, kTrendWindow) {
  STANCE_REQUIRE(part_.nparts() == p.nprocs(),
                 "AdaptiveExecutor: partition size must match the cluster");
  STANCE_REQUIRE(part_.total() == g.num_vertices(),
                 "AdaptiveExecutor: partition must cover the graph");
  STANCE_REQUIRE(opts_.coalesce || (!opts_.rotate_delegates && !opts_.measured_feedback),
                 "AdaptiveExecutor: rotation and measured feedback require coalesce");
  coalescing_ = opts_.coalesce && !p.nodes().trivial();
  const double t0 = p.now();
  rebuild(p);
  first_build_seconds_ = p.now() - t0;
  if (opts_.lb.rebuild_cost_estimate <= 0.0) {
    opts_.lb.rebuild_cost_estimate = first_build_seconds_;
  }
}

void AdaptiveExecutor::rebuild(mp::Process& p) {
  ir_ = sched::build_schedule(p, *g_, part_, opts_.build, opts_.cpu);
  loop_ = std::make_unique<exec::IrregularLoop>(ir_.lgraph, ir_.schedule, opts_.loop,
                                                opts_.cpu);
  if (coalescing_) build_plan(p);
}

void AdaptiveExecutor::rebuild_from_delta(mp::Process& p,
                                          const partition::RemapDelta& delta,
                                          bool fresh_verdicts) {
  auto next = sched::rebuild_incremental(p, *g_, delta, ir_, opts_.cpu);
  // Patch the plan when it still matches the pre-remap schedule under the
  // current delegate assignment; a rotation bumps the map generation and
  // matches() refuses, exactly the invalidation rule patch_coalesce throws
  // on. (fresh_verdicts and the rotation flag derive from allgathered
  // inputs, so every rank takes the same branch.)
  const bool can_patch =
      coalescing_ && !fresh_verdicts && plan_.matches(ir_.schedule, p.nodes());
  if (can_patch) {
    sched::CoalesceOptions co = opts_.coalesce_opts;
    co.measured =
        opts_.measured_feedback && !measured_.empty() ? &measured_ : nullptr;
    sched::CoalescePlan patched =
        sched::patch_coalesce(p, plan_, ir_.schedule, next.schedule, opts_.cpu, co);
    ir_ = std::move(next);
    plan_ = std::move(patched);
    loop_->rebind(ir_.lgraph, ir_.schedule);
    loop_->set_coalesce_plan(&plan_);
    // Unchanged pairs kept their stored verdicts, so the slowdowns the plan
    // was priced under — and the full-rebuild cost estimate the rotation
    // test compares against — both stand.
  } else {
    ir_ = std::move(next);
    loop_->rebind(ir_.lgraph, ir_.schedule);
    if (coalescing_) build_plan(p);  // fresh verdicts
  }
  last_delta_ = delta;
}

void AdaptiveExecutor::build_plan(mp::Process& p) {
  const double t0 = p.now();
  sched::CoalesceOptions co = opts_.coalesce_opts;
  co.measured =
      opts_.measured_feedback && !measured_.empty() ? &measured_ : nullptr;
  plan_ = sched::coalesce(p, ir_.schedule, opts_.cpu, co);
  loop_->set_coalesce_plan(&plan_);
  // Remember the slowdowns the plan was priced under — both endpoints' —
  // so a later check can tell whether the measured picture drifted enough
  // to re-decide.
  plan_slowdowns_.assign(static_cast<std::size_t>(p.nodes().nnodes()), 1.0);
  plan_dst_slowdowns_.assign(static_cast<std::size_t>(p.nodes().nnodes()), 1.0);
  if (co.measured != nullptr) {
    for (int n = 0; n < p.nodes().nnodes(); ++n) {
      plan_slowdowns_[static_cast<std::size_t>(n)] =
          measured_.node_slowdown(n, p.net());
      plan_dst_slowdowns_[static_cast<std::size_t>(n)] =
          measured_.dst_node_slowdown(n, p.net());
    }
  }
  // Rank-consistent rebuild-cost estimate for the rotation profitability
  // test (per-rank clocks differ; the collective pays for the slowest).
  plan_build_estimate_ = p.allreduce_max(p.now() - t0);
}

void AdaptiveExecutor::update_measured(mp::Process& p,
                                       const mp::CommStats::FrameWindow& window) {
  const int my_node = p.nodes().node_of(p.rank());
  std::vector<sched::MeasuredPairCost> local;
  local.reserve(window.pair_frames.size() + window.pair_forwards.size());
  for (const auto& pf : window.pair_frames) {
    local.push_back(sched::MeasuredPairCost{my_node, pf.dest_node, pf.frames,
                                            pf.bytes, pf.seconds});
  }
  // Receive side: this rank demuxed frames *from* pf.src_node and forwarded
  // pieces to co-residents — the dst fields of the (src, my_node) pair.
  for (const auto& pf : window.pair_forwards) {
    sched::MeasuredPairCost c;
    c.src_node = pf.src_node;
    c.dst_node = my_node;
    c.dst_pieces = pf.pieces;
    c.dst_bytes = pf.bytes;
    c.dst_seconds = pf.seconds;
    local.push_back(c);
  }
  // The table must be identical on every rank (both endpoint delegates of a
  // pair derive framing verdicts from it), so it is allgathered — a charged
  // collective, like the controller's load exchange.
  const auto all = p.allgatherv(std::span<const sched::MeasuredPairCost>(local));
  // Merge per pair rather than replacing the table: a demoted pair ships no
  // frames, so it measures nothing this interval — but the slowdown it
  // established is a property of the nodes' CPUs, not of whether frames
  // happened to ship. Dropping silent pairs would reset their slowdown to
  // 1.0, re-frame them from the blind estimate next replan, measure the
  // slowdown again, demote again — an oscillation paying a plan rebuild
  // every check. Retained entries keep the verdict stable until the pair is
  // observed again. (Identical inputs in identical order on every rank, so
  // the merged table stays rank-consistent.)
  for (const auto& contribution : all) {
    for (const auto& fresh : contribution) {
      auto it = measured_.pairs.begin();
      while (it != measured_.pairs.end() &&
             (it->src_node != fresh.src_node || it->dst_node != fresh.dst_node)) {
        ++it;
      }
      if (it == measured_.pairs.end()) {
        measured_.pairs.push_back(fresh);
      } else {
        // The two field groups are observed by different delegates (source
        // ships frames, destination forwards pieces), so each contribution
        // carries exactly one group — update that group, retain the other.
        if (fresh.frames > 0) {
          it->frames = fresh.frames;
          it->bytes = fresh.bytes;
          it->seconds = fresh.seconds;
        }
        if (fresh.dst_pieces > 0) {
          it->dst_pieces = fresh.dst_pieces;
          it->dst_bytes = fresh.dst_bytes;
          it->dst_seconds = fresh.dst_seconds;
        }
      }
    }
  }
  p.compute(opts_.cpu.per_list_op * static_cast<double>(measured_.pairs.size()));
}

bool AdaptiveExecutor::slowdown_drifted(const mp::Process& p) const {
  if (measured_.empty() || plan_slowdowns_.empty()) return false;
  for (int n = 0; n < p.nodes().nnodes(); ++n) {
    const double before = plan_slowdowns_[static_cast<std::size_t>(n)];
    const double now = measured_.node_slowdown(n, p.net());
    if (std::abs(now - before) > kFeedbackReplanThreshold * std::max(before, 1e-12)) {
      return true;
    }
    const double before_dst = plan_dst_slowdowns_[static_cast<std::size_t>(n)];
    const double now_dst = measured_.dst_node_slowdown(n, p.net());
    if (std::abs(now_dst - before_dst) > kFeedbackReplanThreshold * std::max(before_dst, 1e-12)) {
      return true;
    }
  }
  return false;
}

AdaptiveReport AdaptiveExecutor::run(mp::Process& p, std::vector<double>& y,
                                     int iterations) {
  STANCE_REQUIRE(iterations >= 0, "run: negative iteration count");
  STANCE_REQUIRE(y.size() == static_cast<std::size_t>(part_.size(p.rank())),
                 "run: y size does not match the current partition");
  AdaptiveReport report;
  report.first_build_seconds = first_build_seconds_;
  const double start = p.now();

  int done = 0;
  while (done < iterations) {
    const int chunk = opts_.enable_lb
                          ? std::min(opts_.lb.check_interval, iterations - done)
                          : iterations - done;
    const double compute_before = p.stats().compute_seconds;
    loop_->iterate(p, y, chunk);
    done += chunk;
    report.iterations += chunk;
    monitor_.record(p.stats().compute_seconds - compute_before,
                    part_.size(p.rank()) * chunk);
    predictor_.observe(monitor_.time_per_item());

    if (!opts_.enable_lb || done >= iterations) continue;

    const CheckOutcome outcome = check_now(p, y);
    ++report.checks;
    report.check_seconds += outcome.check_seconds;
    report.retune_seconds += outcome.retune_seconds;
    if (outcome.rotated) ++report.rotations;
    if (outcome.replanned) ++report.replans;
    if (outcome.decision.remap) {
      ++report.remaps;
      report.remap_seconds += outcome.remap_seconds;
    }
  }
  report.total_seconds = p.now() - start;
  return report;
}

void AdaptiveExecutor::repartition(mp::Process& p,
                                   const partition::IntervalPartition& next,
                                   std::vector<double>& y) {
  STANCE_REQUIRE(next.nparts() == p.nprocs(),
                 "repartition: partition size must match the cluster");
  STANCE_REQUIRE(next.total() == g_->num_vertices(),
                 "repartition: partition must cover the graph");
  STANCE_REQUIRE(y.size() == static_cast<std::size_t>(part_.size(p.rank())),
                 "repartition: y size does not match the current partition");
  const auto delta = partition::RemapDelta::drift(part_, next);
  y = partition::redistribute<double>(p, y, part_, next);
  part_ = next;
  rebuild_from_delta(p, delta, /*fresh_verdicts=*/false);
  monitor_.reset();
  (void)p.stats().take_frame_window();  // re-arm the frame interval too
}

void AdaptiveExecutor::apply_mesh_delta(mp::Process& p, const graph::Csr& new_graph,
                                        const graph::CsrDelta& cd,
                                        const partition::IntervalPartition* next,
                                        std::vector<double>& y) {
  STANCE_REQUIRE(new_graph.num_vertices() == g_->num_vertices(),
                 "apply_mesh_delta: the delta pipeline preserves the vertex count");
  STANCE_REQUIRE(y.size() == static_cast<std::size_t>(part_.size(p.rank())),
                 "apply_mesh_delta: y size does not match the current partition");
  // The chain rule: a stamped delta must connect the current graph to the
  // new one, or the splice would patch a schedule for a different mesh.
  STANCE_REQUIRE(cd.base_fingerprint == 0 || cd.base_fingerprint == g_->fingerprint(),
                 "apply_mesh_delta: delta was not taken from the current graph");
  STANCE_REQUIRE(
      cd.result_fingerprint == 0 || cd.result_fingerprint == new_graph.fingerprint(),
      "apply_mesh_delta: delta does not produce the given graph");
  partition::RemapDelta delta;
  if (next != nullptr) {
    STANCE_REQUIRE(next->nparts() == p.nprocs(),
                   "apply_mesh_delta: partition size must match the cluster");
    delta = partition::RemapDelta::combined(part_, *next, cd);
    y = partition::redistribute<double>(p, y, part_, *next);
    part_ = *next;
  } else {
    delta = partition::RemapDelta::graph_edit(part_, cd);
  }
  g_ = &new_graph;
  rebuild_from_delta(p, delta, /*fresh_verdicts=*/false);
  monitor_.reset();
  (void)p.stats().take_frame_window();
}

AdaptiveExecutor::CheckOutcome AdaptiveExecutor::check_now(mp::Process& p,
                                                           std::vector<double>& y) {
  STANCE_REQUIRE(y.size() == static_cast<std::size_t>(part_.size(p.rank())),
                 "check_now: y size does not match the current partition");
  CheckOutcome outcome;
  // Synchronize before measuring: the paper's phases end in an implicit
  // barrier, and without it the fast ranks' wait for the loaded rank would
  // be misattributed to the check protocol.
  p.barrier();

  // --- frame-strategy re-decision, from this interval's measurements ------
  bool want_replan = false;
  if (coalescing_) {
    const double retune_start = p.now();
    const auto window = p.stats().take_frame_window();
    if (opts_.measured_feedback) {
      update_measured(p, window);
      want_replan = slowdown_drifted(p);
    }
    if (opts_.rotate_delegates) {
      // Project what hosting the node's frame role would cost each resident:
      // the node's measured frame work (reference price, lb::frame_seconds)
      // on that rank's currently delivered speed. Feeding projections — not
      // current per-rank frame load — keeps the choice stable: once the role
      // sits on the cheapest resident, re-deciding picks the same rank
      // instead of ping-ponging between idle ones.
      const auto frame_ref = p.allgather(lb::frame_seconds(window, p.net()));
      const auto& nodes = p.nodes();
      double node_work = 0.0;
      for (const mp::Rank r : nodes.ranks_on(nodes.node_of(p.rank()))) {
        node_work += frame_ref[static_cast<std::size_t>(r)];
      }
      const double speed = std::max(p.clock().effective_speed(), 1e-12);
      std::vector<double> projected;
      const auto chosen =
          lb::rotate_delegates(p, node_work / speed, opts_.cpu, &projected);
      const auto current = nodes.delegates();
      if (chosen != current) {
        double gain = 0.0;
        for (std::size_t n = 0; n < current.size(); ++n) {
          gain += projected[static_cast<std::size_t>(current[n])] -
                  projected[static_cast<std::size_t>(chosen[n])];
        }
        // Rotation pays for itself when one interval's projected saving
        // covers the plan rebuild (all inputs are allgathered or
        // allreduced, so every rank takes the same branch).
        if (gain > kRotationProfitabilityFactor * plan_build_estimate_) {
          p.set_delegates(chosen);
          outcome.rotated = true;
          want_replan = true;
        }
      }
    }
    outcome.retune_seconds = p.now() - retune_start;
  }

  // --- the paper's load-balance protocol ----------------------------------
  const double check_start = p.now();
  const double tpi =
      predictor_.observations() > 0 ? predictor_.predict() : monitor_.time_per_item();
  outcome.decision = load_balance_check(p, part_, tpi, opts_.lb);
  outcome.check_seconds = p.now() - check_start;
  monitor_.reset();
  if (outcome.decision.remap) {
    const double remap_start = p.now();
    // Phase D emits the remap as a first-class delta; the rebuild consumes
    // it — splicing the schedule and patching the plan instead of starting
    // over (full rebuild only when rotation/drift already demands fresh
    // verdicts).
    const auto delta =
        partition::RemapDelta::drift(part_, outcome.decision.new_partition);
    y = partition::redistribute<double>(p, y, part_, outcome.decision.new_partition);
    part_ = outcome.decision.new_partition;
    rebuild_from_delta(p, delta, /*fresh_verdicts=*/want_replan);
    outcome.remap_seconds = p.now() - remap_start;
    // The per-item rate is a property of the *processor*, not the partition,
    // so history stays valid across remaps — that is the point of predicting
    // from multiple phases.
    return outcome;
  }
  if (want_replan) {
    // Delegates rotated or the measured verdicts drifted: re-coalesce the
    // surviving schedule so the executors never run on a stale plan.
    const double replan_start = p.now();
    build_plan(p);
    outcome.replanned = true;
    outcome.retune_seconds += p.now() - replan_start;
  }
  return outcome;
}

}  // namespace stance::lb
