#include "stance/recovery.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "mp/errors.hpp"
#include "partition/interval.hpp"
#include "stance/session.hpp"
#include "support/assert.hpp"

namespace stance {
namespace {

/// One rank's owned slice of the global vector, as a view.
std::span<double> slice_of(std::vector<double>& global,
                           const partition::IntervalPartition& part, mp::Rank rank) {
  return std::span<double>(global).subspan(static_cast<std::size_t>(part.first(rank)),
                                           static_cast<std::size_t>(part.size(rank)));
}

}  // namespace

std::vector<double> run_reference_from(const graph::Csr& mesh,
                                       const sim::MachineSpec& machine,
                                       std::vector<double> y0, int iterations,
                                       const ResilientOptions& opts) {
  STANCE_REQUIRE(iterations >= 0, "run_reference_from: negative iterations");
  STANCE_REQUIRE(y0.size() == static_cast<std::size_t>(mesh.num_vertices()),
                 "run_reference_from: y0 must cover the mesh");
  if (iterations == 0) return y0;
  const auto part =
      partition::IntervalPartition::from_weights(mesh.num_vertices(), machine.speeds());
  mp::Cluster cluster(machine, opts.transport);
  const CachedPlan plan = build_wave(cluster, mesh, part, opts.build, opts.cpu);
  sweep_wave(cluster, plan, part, opts.loop, opts.cpu, iterations, y0);
  return y0;
}

ResilientResult run_resilient(const graph::Csr& mesh, const sim::MachineSpec& machine,
                              const ResilientOptions& opts) {
  STANCE_REQUIRE(opts.iterations >= 1, "run_resilient: need at least one iteration");
  const graph::Vertex nv = mesh.num_vertices();
  const int p = static_cast<int>(machine.size());
  const auto part = partition::IntervalPartition::from_weights(nv, machine.speeds());

  mp::Cluster cluster(machine, opts.transport);
  STANCE_REQUIRE(cluster.node_map().trivial(),
                 "run_resilient: expects one rank per node (the paper's testbed shape)");

  // Phase B, failure-free: faults are installed for the loop wave only.
  const CachedPlan plan = build_wave(cluster, mesh, part, opts.build, opts.cpu);

  ResilientResult result;
  result.y = initial_values(nv);
  CheckpointStore store(p, static_cast<std::size_t>(nv));
  std::vector<std::optional<mp::Process::SurvivorSet>> agreed(static_cast<std::size_t>(p));
  std::vector<double> agree_cost(static_cast<std::size_t>(p), 0.0);
  std::vector<double> ckpt_cost(static_cast<std::size_t>(p), 0.0);

  cluster.set_fault_plan(opts.faults);
  cluster.reset_clocks();
  cluster.run([&](mp::Process& pr) {
    const auto r = static_cast<std::size_t>(pr.rank());
    exec::IrregularLoop loop(plan.per_rank[r].lgraph, plan.per_rank[r].schedule, opts.loop,
                             opts.cpu);
    const std::span<double> y = slice_of(result.y, part, pr.rank());
    try {
      for (int it = 0; it < opts.iterations; ++it) {
        loop.iterate(pr, y, 1);
        const int done = it + 1;
        if (opts.checkpoint_every > 0 && done % opts.checkpoint_every == 0 &&
            done < opts.iterations) {
          const std::size_t bytes =
              store.save(pr.rank(), done, static_cast<std::size_t>(part.first(pr.rank())),
                         y);
          const double cost = opts.checkpoint_cost.seconds(bytes);
          pr.clock().advance_delay(cost);
          ckpt_cost[r] += cost;
        }
      }
      // Failure fence: a rank whose neighbors never include the victim can
      // reach here unscathed; the collective surfaces any pending failure
      // (and is a plain barrier otherwise), so every survivor takes the
      // recovery path below.
      pr.barrier();
    } catch (const mp::PeerFailed&) {
      const double before = pr.now();
      auto agreement = pr.agree_on_survivors(opts.detect_cost_seconds);
      agree_cost[r] = pr.now() - before - opts.detect_cost_seconds;
      agreed[r] = std::move(agreement);
    }
  });

  result.dead = cluster.dead_ranks();
  result.checkpoints_committed = store.commits();
  result.costs.checkpoint_virtual_seconds =
      *std::max_element(ckpt_cost.begin(), ckpt_cost.end());

  if (result.dead.empty()) {
    result.survivors.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) result.survivors[static_cast<std::size_t>(r)] = r;
    result.loop_virtual_seconds = cluster.makespan();
    return result;
  }

  // Every survivor recorded the same agreement; take the first.
  const auto it = std::find_if(agreed.begin(), agreed.end(),
                               [](const auto& a) { return a.has_value(); });
  STANCE_ASSERT_MSG(it != agreed.end(), "rank died but no survivor ran the agreement");
  result.survivors = (*it)->survivors;
  result.costs.detect_virtual_seconds = opts.detect_cost_seconds;
  result.costs.agree_virtual_seconds =
      *std::max_element(agree_cost.begin(), agree_cost.end());
  const double first_wave_seconds = cluster.makespan();

  // Restore point: last committed checkpoint, or the initial state. The
  // failed wave left y at mixed iterations; the restore overwrites all of it.
  auto checkpoint = store.last();
  result.resume_iteration = checkpoint ? checkpoint->iteration : 0;
  result.y = checkpoint ? std::move(checkpoint->y) : initial_values(nv);
  const int remaining = opts.iterations - result.resume_iteration;

  // Shrink to the survivors: their nodes, their speeds, a fresh cluster
  // (virtual clocks restart at zero; recovery costs are accounted above).
  const sim::MachineSpec survivor_spec = machine.subset(result.survivors);
  mp::Cluster survivor_cluster(survivor_spec, opts.transport);
  const auto survivor_part =
      partition::IntervalPartition::from_weights(nv, survivor_spec.speeds());
  const CachedPlan survivor_plan =
      build_wave(survivor_cluster, mesh, survivor_part, opts.build, opts.cpu);
  result.costs.rebuild_virtual_seconds = survivor_plan.cold_build_seconds;

  std::vector<double> restore_cost(survivor_spec.size(), 0.0);
  survivor_cluster.reset_clocks();
  survivor_cluster.run([&](mp::Process& pr) {
    const auto r = static_cast<std::size_t>(pr.rank());
    const std::span<double> y = slice_of(result.y, survivor_part, pr.rank());
    const double cost = opts.checkpoint_cost.seconds(y.size() * sizeof(double));
    pr.clock().advance_delay(cost);  // reload from stable storage
    restore_cost[r] = cost;
    if (remaining > 0) {
      exec::IrregularLoop loop(survivor_plan.per_rank[r].lgraph,
                               survivor_plan.per_rank[r].schedule, opts.loop, opts.cpu);
      loop.iterate(pr, y, remaining);
    }
  });
  result.costs.restore_virtual_seconds =
      *std::max_element(restore_cost.begin(), restore_cost.end());
  result.loop_virtual_seconds = first_wave_seconds +
                                result.costs.rebuild_virtual_seconds +
                                survivor_cluster.makespan();
  return result;
}

}  // namespace stance
