#include "stance/session.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "partition/interval.hpp"
#include "sched/coalesce.hpp"
#include "stance/metrics.hpp"
#include "support/assert.hpp"

namespace stance {

Session::Session(graph::Csr mesh, SessionConfig cfg) : cfg_(std::move(cfg)) {
  const auto perm = order::compute(mesh, cfg_.ordering, cfg_.seed);
  mesh_ = mesh.permuted(perm);
  cluster_ = std::make_unique<mp::Cluster>(cfg_.machine);
}

std::vector<double> Session::sequential_times(int iterations) const {
  const double work =
      static_cast<double>(iterations) *
      (cfg_.loop.per_vertex * static_cast<double>(mesh_.num_vertices()) +
       cfg_.loop.per_edge * 2.0 * static_cast<double>(mesh_.num_edges()));
  std::vector<double> t = cfg_.machine.speeds();
  for (double& s : t) s = work / s;
  return t;
}

StaticRunResult Session::run_static(int iterations) {
  return run_static_weighted(iterations, cfg_.machine.speeds());
}

StaticRunResult Session::run_static_weighted(int iterations, std::vector<double> weights) {
  STANCE_REQUIRE(weights.size() == cfg_.machine.size(),
                 "run_static: one weight per node required");
  const auto part = partition::IntervalPartition::from_weights(mesh_.num_vertices(),
                                                               weights);
  StaticRunResult result;
  const CachedPlan plan = build_wave(*cluster_, mesh_, part, cfg_.build, cfg_.cpu);
  result.build_seconds = plan.cold_build_seconds;

  std::vector<double> y = initial_values(mesh_.num_vertices());
  result.loop_seconds =
      sweep_wave(*cluster_, plan, part, cfg_.loop, cfg_.cpu, iterations, y);
  result.finish_times = cluster_->finish_times();
  result.loop_stats = cluster_->total_stats();
  result.checksum = rank_checksum(y, part);

  const auto seq = sequential_times(iterations);
  result.efficiency = nonuniform_efficiency(result.loop_seconds, seq);
  return result;
}

AdaptiveRunResult Session::run_adaptive(int iterations, lb::LbOptions lb, bool enable_lb) {
  // Paper §5: "The graph was decomposed assuming all the processors had
  // equal computational ratio."
  const std::vector<double> equal(cfg_.machine.size(), 1.0);
  const auto part =
      partition::IntervalPartition::from_weights(mesh_.num_vertices(), equal);

  lb::AdaptiveOptions opts;
  opts.lb = lb;
  opts.build = cfg_.build;
  opts.cpu = cfg_.cpu;
  opts.loop = cfg_.loop;
  opts.enable_lb = enable_lb;

  // Phase B on fresh clocks (excluded from the loop measurement, matching
  // the paper's table layout).
  std::vector<std::unique_ptr<lb::AdaptiveExecutor>> execs(cfg_.machine.size());
  cluster_->reset_clocks();
  cluster_->run([&](mp::Process& p) {
    execs[static_cast<std::size_t>(p.rank())] =
        std::make_unique<lb::AdaptiveExecutor>(p, mesh_, part, opts);
  });
  AdaptiveRunResult result;
  result.build_seconds = cluster_->makespan();

  std::vector<lb::AdaptiveReport> reports(cfg_.machine.size());
  std::vector<double> checksums(cfg_.machine.size(), 0.0);
  cluster_->reset_clocks();
  cluster_->run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    auto& ax = *execs[r];
    std::vector<double> y(static_cast<std::size_t>(ax.partition().size(p.rank())));
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = initial_value(ax.partition().to_global(p.rank(), static_cast<graph::Vertex>(i)));
    }
    reports[r] = ax.run(p, y, iterations);
    double sum = 0.0;
    for (const double v : y) sum += v;
    checksums[r] = sum;
  });
  result.loop_seconds = cluster_->makespan();
  for (const auto& rep : reports) {
    result.checks = std::max(result.checks, rep.checks);
    result.remaps = std::max(result.remaps, rep.remaps);
    result.check_seconds = std::max(result.check_seconds, rep.check_seconds);
    result.remap_seconds = std::max(result.remap_seconds, rep.remap_seconds);
  }
  for (const double c : checksums) result.checksum += c;
  return result;
}

double Session::verify_against_reference(int iterations) {
  const auto nv = mesh_.num_vertices();
  const auto part = partition::IntervalPartition::from_weights(nv, cfg_.machine.speeds());
  const CachedPlan plan = build_wave(*cluster_, mesh_, part, cfg_.build, cfg_.cpu);
  std::vector<double> parallel = initial_values(nv);
  sweep_wave(*cluster_, plan, part, cfg_.loop, cfg_.cpu, iterations, parallel);

  std::vector<double> reference = initial_values(nv);
  exec::IrregularLoop::reference_iterate(mesh_, reference, iterations);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(parallel[i] - reference[i]));
  }
  return max_diff;
}

CachedPlan build_wave(mp::Cluster& cluster, const graph::Csr& mesh,
                      const partition::IntervalPartition& part, sched::BuildMethod build,
                      const sim::CpuCostModel& cpu, const sched::CoalesceOptions* coalesce) {
  const auto n = static_cast<std::size_t>(cluster.nprocs());
  CachedPlan plan;
  plan.per_rank.resize(n);
  if (coalesce != nullptr) plan.coalesce.resize(n);
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    plan.per_rank[r] = sched::build_schedule(p, mesh, part, build, cpu);
    if (coalesce != nullptr) {
      plan.coalesce[r] = sched::coalesce(p, plan.per_rank[r].schedule, cpu, *coalesce);
    }
  });
  plan.cold_build_seconds = cluster.makespan();
  return plan;
}

double sweep_wave(mp::Cluster& cluster, const CachedPlan& plan,
                  const partition::IntervalPartition& part, const exec::LoopCostModel& loop,
                  const sim::CpuCostModel& cpu, int iterations, std::vector<double>& y) {
  STANCE_REQUIRE(y.size() == static_cast<std::size_t>(part.total()),
                 "sweep_wave: y must cover the partitioned mesh");
  // A coalesce plan must still route for its schedule under the current
  // delegate assignment. Cache keys carry the map generation, so a stale
  // plan here can only be a keying bug.
  for (std::size_t r = 0; r < plan.coalesce.size(); ++r) {
    STANCE_ASSERT_MSG(plan.coalesce[r].matches(plan.per_rank[r].schedule, cluster.node_map()),
                      "sweep_wave: coalesce plan is stale for the current node map");
  }
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const auto& ir = plan.per_rank[r];
    exec::IrregularLoop sweep(ir.lgraph, ir.schedule, loop, cpu);
    if (!plan.coalesce.empty()) sweep.set_coalesce_plan(&plan.coalesce[r]);
    const auto first = static_cast<std::size_t>(part.first(p.rank()));
    const auto size = static_cast<std::size_t>(part.size(p.rank()));
    sweep.iterate(p, std::span<double>(y).subspan(first, size), iterations);
  });
  return cluster.makespan();
}

std::vector<double> initial_values(graph::Vertex n) {
  std::vector<double> y(static_cast<std::size_t>(n));
  for (graph::Vertex g = 0; g < n; ++g) y[static_cast<std::size_t>(g)] = Session::initial_value(g);
  return y;
}

double rank_checksum(const std::vector<double>& y, const partition::IntervalPartition& part) {
  double total = 0.0;
  for (int r = 0; r < part.nparts(); ++r) {
    double sum = 0.0;
    for (graph::Vertex i = part.first(r); i < part.end(r); ++i) {
      sum += y[static_cast<std::size_t>(i)];
    }
    total += sum;
  }
  return total;
}

}  // namespace stance
