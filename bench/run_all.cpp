// Machine-readable perf trajectory: times the overhauled inspector/executor
// hot paths against the frozen seed baseline (seed_baseline.hpp), the
// incremental rebuild against a from-scratch build, and the kill-and-recover
// cost breakdown, writing BENCH_schedule.json, BENCH_remap.json and
// BENCH_recovery.json. CI runs this with --small and uploads the artifacts;
// developers run it bare for the paper-scale mesh.
//
//   --small        4k mesh / reduced query counts (CI smoke)
//   --repeats=N    best-of-N timing (default 5)
//   --out-dir=DIR  where the JSON lands (default .)
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "exec/gather_scatter.hpp"
#include "exec/irregular_loop.hpp"
#include "mp/mailbox.hpp"
#include "graph/builders.hpp"
#include "lb/adaptive_executor.hpp"
#include "lb/delegate_balancer.hpp"
#include "mp/cluster.hpp"
#include "mp/fault.hpp"
#include "partition/mcr.hpp"
#include "sched/coalesce.hpp"
#include "sched/incremental.hpp"
#include "sched/localize.hpp"
#include "sched/synthetic.hpp"
#include "seed_baseline.hpp"
#include "stance/recovery.hpp"
#include "stance/session.hpp"
#include "support/rng.hpp"

namespace {

using namespace stance;
using partition::IntervalPartition;

/// The overhauled inspector hot path for one rank (build_sorted minus the
/// virtual-clock charges): one fused traversal with flat-hash dedup,
/// memoized page-cached home lookups, and a provisional-id patch pass.
sched::CommSchedule current_inspect(const graph::Csr& g, const IntervalPartition& part,
                                    partition::Rank me, sched::LocalizedGraph& lg_out) {
  auto fused = sched::inspect_fused(g, part, me);
  lg_out = std::move(fused.lgraph);
  return std::move(fused.sched);
}

/// Best-of-N host seconds of `body`.
template <typename F>
double best_of(int repeats, F&& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    bench::HostTimer timer;
    body();
    best = std::min(best, timer.seconds());
  }
  return best;
}

void bench_schedule_build(bench::JsonReporter& report, const graph::Csr& mesh,
                          int repeats) {
  const std::size_t nprocs = 8;
  const auto part = IntervalPartition::from_weights(
      mesh.num_vertices(), std::vector<double>(nprocs, 1.0));

  volatile std::size_t sink = 0;
  const double seed_s = best_of(repeats, [&] {
    for (std::size_t r = 0; r < nprocs; ++r) {
      sched::LocalizedGraph lg;
      const auto s = bench::seed::seed_inspect(mesh, part, static_cast<int>(r), lg);
      sink = sink + s.ghost_globals.size() + lg.refs.size();
    }
  });
  const double current_s = best_of(repeats, [&] {
    for (std::size_t r = 0; r < nprocs; ++r) {
      sched::LocalizedGraph lg;
      const auto s = current_inspect(mesh, part, static_cast<int>(r), lg);
      sink = sink + s.ghost_globals.size() + lg.refs.size();
    }
  });

  report.entry("table3_schedule_build")
      .field("mesh_vertices", static_cast<long long>(mesh.num_vertices()))
      .field("mesh_edges", static_cast<long long>(mesh.num_edges()))
      .field("ranks", nprocs)
      .field("seed_host_seconds", seed_s)
      .field("current_host_seconds", current_s)
      .field("speedup", seed_s / current_s);
  std::cout << "table3_schedule_build: seed " << seed_s << " s, current " << current_s
            << " s, speedup " << seed_s / current_s << "x\n";
}

void bench_translation(bench::JsonReporter& report, bool small, int repeats) {
  const auto n = static_cast<graph::Vertex>(small ? 100000 : 1000000);
  const std::size_t nprocs = 16;
  const std::size_t nqueries = small ? 200000 : 2000000;
  const auto part =
      IntervalPartition::from_weights(n, std::vector<double>(nprocs, 1.0));
  const bench::seed::SeedOwnerTable seed_table(part);

  Rng rng(7);
  std::vector<graph::Vertex> queries(nqueries);
  for (auto& q : queries) {
    q = static_cast<graph::Vertex>(rng.below(static_cast<std::uint64_t>(n)));
  }

  volatile long long sink = 0;
  const double seed_s = best_of(repeats, [&] {
    long long acc = 0;
    for (const auto q : queries) acc += seed_table.owner(q);
    sink = sink + acc;
  });
  const double current_s = best_of(repeats, [&] {
    long long acc = 0;
    for (const auto q : queries) acc += part.owner(q);
    sink = sink + acc;
  });

  report.entry("ablate_translation")
      .field("elements", static_cast<long long>(n))
      .field("ranks", nprocs)
      .field("queries", nqueries)
      .field("seed_host_seconds", seed_s)
      .field("current_host_seconds", current_s)
      .field("seed_ns_per_lookup", 1e9 * seed_s / static_cast<double>(nqueries))
      .field("current_ns_per_lookup", 1e9 * current_s / static_cast<double>(nqueries))
      .field("speedup", seed_s / current_s);
  std::cout << "ablate_translation: seed " << seed_s << " s, current " << current_s
            << " s, speedup " << seed_s / current_s << "x\n";
}

/// One remap benchmark mode: `next_pair` yields (from, to) partitions.
/// Host times are best-of-`repeats` per delta: one timed sample per delta
/// proved noisy enough (5 concurrent rank threads, ±7% run-to-run) to once
/// baseline a phantom 0.945x "regression" on a path that is actually
/// break-even — see check_regression.py's docstring and README "Remap".
template <typename NextPair>
void bench_remap_mode(bench::JsonReporter& report, const graph::Csr& mesh,
                      const std::string& name, std::size_t nprocs, int deltas,
                      int repeats, NextPair&& next_pair) {
  mp::Cluster cluster(sim::MachineSpec::uniform(nprocs));

  double full_host = 0.0, incr_host = 0.0;
  double full_virtual = 0.0, incr_virtual = 0.0;
  double moved_fraction = 0.0;
  for (int d = 0; d < deltas; ++d) {
    const auto [from, to] = next_pair();
    moved_fraction +=
        static_cast<double>(from.moved(to)) / static_cast<double>(from.total());

    std::vector<sched::InspectorResult> old(nprocs);
    cluster.run([&](mp::Process& p) {
      old[static_cast<std::size_t>(p.rank())] = sched::build_schedule(
          p, mesh, from, sched::BuildMethod::kSort2, sim::CpuCostModel::sun4());
    });

    // One timed pass: per-rank host seconds, summed across ranks.
    std::atomic<double> host_sum{0.0};
    const auto timed_sum = [&](const auto& build) {
      host_sum.store(0.0);
      cluster.reset_clocks();
      cluster.run([&](mp::Process& p) {
        bench::HostTimer timer;
        const auto r = build(p);
        const double t = timer.seconds();
        volatile std::size_t sink = r.schedule.nghost;
        (void)sink;
        double cur = host_sum.load();
        while (!host_sum.compare_exchange_weak(cur, cur + t)) {
        }
      });
      return host_sum.load();
    };
    // Best-of-`repeats` host seconds; the virtual makespan is deterministic
    // (identical every repeat), so the last repeat's clock serves for it.
    const auto best_sum = [&](const auto& build) {
      double best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < repeats; ++rep) best = std::min(best, timed_sum(build));
      return best;
    };

    // From-scratch rebuild on `to`.
    full_host += best_sum([&](mp::Process& p) {
      return sched::build_schedule(p, mesh, to, sched::BuildMethod::kSort2,
                                   sim::CpuCostModel::sun4());
    });
    full_virtual += cluster.makespan();

    // Incremental patch from `old`.
    incr_host += best_sum([&](mp::Process& p) {
      return sched::rebuild_incremental(
          p, mesh, from, to, old[static_cast<std::size_t>(p.rank())],
          sim::CpuCostModel::sun4());
    });
    incr_virtual += cluster.makespan();
  }

  report.entry(name)
      .field("mesh_vertices", static_cast<long long>(mesh.num_vertices()))
      .field("ranks", nprocs)
      .field("deltas", static_cast<long long>(deltas))
      .field("avg_moved_fraction", moved_fraction / deltas)
      .field("full_host_seconds", full_host / deltas)
      .field("incremental_host_seconds", incr_host / deltas)
      .field("host_speedup", full_host / incr_host)
      .field("full_virtual_seconds", full_virtual / deltas)
      .field("incremental_virtual_seconds", incr_virtual / deltas)
      .field("virtual_speedup", full_virtual / incr_virtual);
  std::cout << name << ": full " << full_host / deltas << " s/delta, incremental "
            << incr_host / deltas << " s/delta, speedup " << full_host / incr_host
            << "x (virtual " << full_virtual / incr_virtual << "x)\n";
}

using sched::all_pairs_schedule;
using sched::matrix_schedule;

/// One coalescing measurement: gather + scatter_add rounds over the given
/// per-rank schedules under all three message strategies — plain per-peer
/// messages, all-frames (kAlwaysFrame), and the per-node-pair adaptive
/// policy. Everything reported is virtual (simulation output), hence
/// bit-deterministic across machines — exactly what the CI regression gate
/// wants to compare. The `adaptive_vs_*` speedups encode the policy's
/// contract (never worse than either fixed strategy); the gate fails if
/// they regress.
void bench_one_coalescing(bench::JsonReporter& report, const std::string& name,
                          std::vector<sched::CommSchedule> schedules,
                          std::size_t ranks_per_node, int rounds) {
  const std::size_t nprocs = schedules.size();
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(nprocs),
                      mp::NodeMap::contiguous(static_cast<int>(nprocs),
                                              static_cast<int>(ranks_per_node)));
  auto build_plans = [&](sched::CoalescePolicy policy) {
    std::vector<sched::CoalescePlan> plans(nprocs);
    cluster.run([&](mp::Process& p) {
      plans[static_cast<std::size_t>(p.rank())] =
          sched::coalesce(p, schedules[static_cast<std::size_t>(p.rank())],
                          sim::CpuCostModel::sun4(),
                          sched::CoalesceOptions{policy, sizeof(double)});
    });
    return plans;
  };
  const auto frame_plans = build_plans(sched::CoalescePolicy::kAlwaysFrame);
  const auto adaptive_plans = build_plans(sched::CoalescePolicy::kAdaptive);

  std::vector<std::vector<double>> local(nprocs), ghost(nprocs);
  std::vector<exec::ExecWorkspace> ws(nprocs);
  for (std::size_t r = 0; r < nprocs; ++r) {
    local[r].assign(static_cast<std::size_t>(schedules[r].nlocal), 1.0);
    ghost[r].assign(static_cast<std::size_t>(schedules[r].nghost), 0.0);
  }
  auto run_rounds = [&](const std::vector<sched::CoalescePlan>* plans) {
    cluster.reset_clocks();
    cluster.run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      const auto& s = schedules[r];
      for (int it = 0; it < rounds; ++it) {
        if (plans != nullptr) {
          exec::gather_coalesced<double>(p, s, (*plans)[r], local[r],
                                         std::span<double>(ghost[r]), ws[r]);
          exec::scatter_add_coalesced<double>(p, s, (*plans)[r], ghost[r],
                                              std::span<double>(local[r]), ws[r]);
        } else {
          exec::gather<double>(p, s, local[r], std::span<double>(ghost[r]), ws[r]);
          exec::scatter_add<double>(p, s, ghost[r], std::span<double>(local[r]), ws[r]);
        }
      }
    });
  };

  run_rounds(nullptr);
  const double plain_virtual = cluster.makespan();
  const auto plain_stats = cluster.total_stats();
  run_rounds(&frame_plans);
  const double coal_virtual = cluster.makespan();
  const auto coal_stats = cluster.total_stats();
  run_rounds(&adaptive_plans);
  const double adaptive_virtual = cluster.makespan();
  const auto adaptive_stats = cluster.total_stats();

  report.entry(name)
      .field("ranks", nprocs)
      .field("ranks_per_node", ranks_per_node)
      .field("rounds", static_cast<long long>(rounds))
      .field("plain_virtual_seconds", plain_virtual)
      .field("coalesced_virtual_seconds", coal_virtual)
      .field("adaptive_virtual_seconds", adaptive_virtual)
      // "virtual" in the names keeps these inside check_regression.py's
      // gated-field predicate — the never-worse-than-either-fixed-strategy
      // contract is what the gate holds.
      .field("virtual_speedup", plain_virtual / coal_virtual)
      .field("adaptive_vs_plain_virtual_speedup", plain_virtual / adaptive_virtual)
      .field("adaptive_vs_frames_virtual_speedup", coal_virtual / adaptive_virtual)
      .field("plain_inter_node_msgs", plain_stats.inter_node_sent)
      .field("coalesced_inter_node_msgs", coal_stats.inter_node_sent)
      .field("adaptive_inter_node_msgs", adaptive_stats.inter_node_sent)
      .field("msg_reduction",
             static_cast<double>(plain_stats.inter_node_sent) /
                 static_cast<double>(coal_stats.inter_node_sent));
  std::cout << name << ": plain " << plain_virtual << " s, all-frames " << coal_virtual
            << " s, adaptive " << adaptive_virtual << " s (vs plain "
            << plain_virtual / adaptive_virtual << "x, vs frames "
            << coal_virtual / adaptive_virtual << "x), inter-node msgs "
            << plain_stats.inter_node_sent << " -> " << coal_stats.inter_node_sent
            << " (adaptive " << adaptive_stats.inter_node_sent << ")\n";
}

void bench_node_coalescing(bench::JsonReporter& report, bool small) {
  // Setup-dominated regime: every rank exchanges a few elements with every
  // other rank (12 ranks, 6 per node).
  {
    const int nprocs = 12;
    std::vector<sched::CommSchedule> schedules;
    schedules.reserve(nprocs);
    for (int r = 0; r < nprocs; ++r) schedules.push_back(all_pairs_schedule(nprocs, r, 4));
    bench_one_coalescing(report, "node_coalescing_all_pairs", std::move(schedules), 6,
                         small ? 4 : 10);
  }
  // Byte-heavy regime: randomly labelled mesh, 8 ranks on 2 nodes — frames
  // still collapse the message count, while per-byte wire time bounds the
  // makespan win. PR 3 shipped this as an honest all-frames regression; the
  // adaptive policy must demote its way back to (at least) plain cost.
  {
    const graph::Csr mesh = graph::random_delaunay(small ? 2000 : 8000, 1996);
    const auto part = partition::IntervalPartition::from_weights(
        mesh.num_vertices(), std::vector<double>(8, 1.0));
    mp::Cluster build_cluster(sim::MachineSpec::uniform(8));
    std::vector<sched::CommSchedule> schedules(8);
    build_cluster.run([&](mp::Process& p) {
      schedules[static_cast<std::size_t>(p.rank())] =
          sched::build_schedule(p, mesh, part, sched::BuildMethod::kSort2,
                                sim::CpuCostModel::free())
              .schedule;
    });
    bench_one_coalescing(report, "node_coalescing_mesh", std::move(schedules), 4,
                         small ? 2 : 5);
  }
  // Mixed regime — the adaptive policy's home turf: node pair 0<->1 is
  // setup-bound all-pairs chatter (frames win), node pair 0<->2 is bulk
  // transfer (frames lose). Either fixed strategy forfeits one side;
  // per-pair decisions take both.
  {
    const int nprocs = 12;
    const graph::Vertex bulk = small ? 4000 : 12000;
    std::vector<std::vector<graph::Vertex>> counts(
        nprocs, std::vector<graph::Vertex>(nprocs, 0));
    auto node_of = [](int r) { return r / 4; };
    for (int s = 0; s < nprocs; ++s) {
      for (int t = 0; t < nprocs; ++t) {
        if (s == t) continue;
        const int sn = node_of(s);
        const int tn = node_of(t);
        if ((sn == 0 && tn == 1) || (sn == 1 && tn == 0)) {
          counts[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)] = 4;
        }
        if ((sn == 0 && tn == 2) || (sn == 2 && tn == 0)) {
          counts[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)] = bulk;
        }
      }
    }
    std::vector<sched::CommSchedule> schedules;
    schedules.reserve(nprocs);
    for (int r = 0; r < nprocs; ++r) schedules.push_back(matrix_schedule(counts, r));
    bench_one_coalescing(report, "node_coalescing_adaptive", std::move(schedules), 4,
                         small ? 2 : 5);
  }
}

/// Frame-aware delegate rotation (lb/delegate_balancer.hpp): the default
/// delegates sit on quarter-speed CPUs, so every frame serializes at
/// quarter speed. The rotated variant measures the full remedy — the
/// collective rotation decision, the plan rebuild, and the rounds — in one
/// virtual window, so the decision's own cost is charged, then lands the
/// frame role on full-speed co-residents.
void bench_delegate_rotation(bench::JsonReporter& report, bool small) {
  const int nprocs = 8;
  const int ranks_per_node = 4;
  const int rounds = small ? 3 : 10;
  auto spec = sim::MachineSpec::uniform_ethernet(static_cast<std::size_t>(nprocs));
  spec.nodes[0].speed = 0.25;
  spec.nodes[4].speed = 0.25;
  mp::Cluster cluster(std::move(spec),
                      mp::NodeMap::contiguous(nprocs, ranks_per_node));
  std::vector<sched::CommSchedule> schedules;
  schedules.reserve(nprocs);
  for (int r = 0; r < nprocs; ++r) schedules.push_back(all_pairs_schedule(nprocs, r, 64));

  auto build_plans = [&] {
    std::vector<sched::CoalescePlan> plans(static_cast<std::size_t>(nprocs));
    cluster.run([&](mp::Process& p) {
      plans[static_cast<std::size_t>(p.rank())] = sched::coalesce(
          p, schedules[static_cast<std::size_t>(p.rank())], sim::CpuCostModel::sun4());
    });
    return plans;
  };
  std::vector<std::vector<double>> local(nprocs), ghost(nprocs);
  std::vector<exec::ExecWorkspace> ws(nprocs);
  for (std::size_t r = 0; r < static_cast<std::size_t>(nprocs); ++r) {
    local[r].assign(static_cast<std::size_t>(schedules[r].nlocal), 1.0);
    ghost[r].assign(static_cast<std::size_t>(schedules[r].nghost), 0.0);
  }
  auto run_rounds = [&](const std::vector<sched::CoalescePlan>& plans) {
    cluster.run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      for (int it = 0; it < rounds; ++it) {
        exec::gather_coalesced<double>(p, schedules[r], plans[r], local[r],
                                       std::span<double>(ghost[r]), ws[r]);
        exec::scatter_add_coalesced<double>(p, schedules[r], plans[r], ghost[r],
                                            std::span<double>(local[r]), ws[r]);
      }
    });
  };

  // Fixed: rounds on the default (slow) delegates.
  const auto fixed_plans = build_plans();
  cluster.reset_clocks();
  run_rounds(fixed_plans);
  const double fixed_virtual = cluster.makespan();
  const auto fixed_stats = cluster.last_stats();

  // Rotated: decision + rebuild + rounds, all charged.
  std::vector<mp::Rank> chosen;
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const double my_load =
        lb::frame_seconds(fixed_stats[r], p.net()) / p.clock().speed();
    // Identical on every rank; a single writer keeps the capture race-free.
    const auto mine = lb::rotate_delegates(p, my_load, sim::CpuCostModel::sun4());
    if (p.is_root()) chosen = mine;
  });
  cluster.set_delegates(chosen);
  const auto rotated_plans = build_plans();
  run_rounds(rotated_plans);
  const double rotated_virtual = cluster.makespan();

  report.entry("delegate_rotation")
      .field("ranks", static_cast<long long>(nprocs))
      .field("ranks_per_node", static_cast<long long>(ranks_per_node))
      .field("rounds", static_cast<long long>(rounds))
      .field("fixed_virtual_seconds", fixed_virtual)
      .field("rotated_virtual_seconds", rotated_virtual)
      .field("virtual_speedup", fixed_virtual / rotated_virtual);
  std::cout << "delegate_rotation: fixed " << fixed_virtual << " s, rotated "
            << rotated_virtual << " s (" << fixed_virtual / rotated_virtual
            << "x, decision+rebuild charged)\n";
}

/// The full Phase B/C/D re-decision cycle (lb::AdaptiveExecutor with
/// node-aware options): a drifting workload on a cluster whose default
/// frame delegates sit on quarter-speed CPUs. The control run keeps the
/// partition-only controller (coalesced, a-priori adaptive framing, no
/// rotation, no measured feedback); the full run closes the loop — each
/// check re-prices the delegate role from the interval's measured frame
/// cost, rotates it when the gain covers the plan rebuild, and feeds the
/// measured per-pair costs into the next coalesce(). Every decision
/// collective and rebuild is charged. Both runs must end byte-identical to
/// the sequential reference — the re-decided plans change routing, never
/// results.
void bench_adaptive_full_loop(bench::JsonReporter& report, bool small) {
  const int nprocs = 8;
  const int ranks_per_node = 4;
  const int iters = small ? 60 : 120;
  const int block = small ? 100 : 200;
  const graph::Csr g = graph::port_coupled(nprocs, block, 12);
  const auto part = IntervalPartition::from_weights(
      g.num_vertices(), std::vector<double>(static_cast<std::size_t>(nprocs), 1.0));

  auto initial_y = [&](const IntervalPartition& pt, int rank) {
    std::vector<double> y(static_cast<std::size_t>(pt.size(rank)));
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = 1.0 + static_cast<double>(
                       pt.to_global(rank, static_cast<graph::Vertex>(i)) % 11);
    }
    return y;
  };

  struct ModeResult {
    double makespan = 0.0;
    std::vector<std::vector<double>> finals;
    IntervalPartition final_part;
    lb::AdaptiveReport report;
  };
  auto run_mode = [&](bool close_loop) {
    auto spec = sim::MachineSpec::uniform_ethernet(static_cast<std::size_t>(nprocs));
    spec.nodes[0].speed = 0.25;  // default delegates pay the frame funnel
    spec.nodes[4].speed = 0.25;  // at quarter speed until rotated away
    // Drift: a competing job lands on rank 6 partway through, shifting the
    // load picture the controller (and the measured feedback) see.
    spec.nodes[6].profile = sim::LoadProfile::step(0.2, 1.0, 0.4);
    mp::Cluster cluster(std::move(spec),
                        mp::NodeMap::contiguous(nprocs, ranks_per_node));
    ModeResult r;
    r.finals.resize(static_cast<std::size_t>(nprocs));
    std::vector<lb::AdaptiveReport> reports(static_cast<std::size_t>(nprocs));
    cluster.run([&](mp::Process& p) {
      lb::AdaptiveOptions opts;
      opts.lb.check_interval = 10;
      opts.lb.profitability_factor = 0.25;
      opts.lb.objective = partition::ArrangementObjective::from_network(
          sim::NetworkModel::ethernet_10mbps(), sizeof(double));
      opts.cpu = sim::CpuCostModel::sun4();
      opts.loop = exec::LoopCostModel::sun4();
      opts.coalesce = true;
      opts.coalesce_opts.policy = sched::CoalescePolicy::kAdaptive;
      opts.coalesce_opts.bytes_per_elem = sizeof(double);
      opts.rotate_delegates = close_loop;
      opts.measured_feedback = close_loop;
      lb::AdaptiveExecutor ax(p, g, part, opts);
      auto y = initial_y(ax.partition(), p.rank());
      const auto rep = ax.run(p, y, iters);
      const auto rank = static_cast<std::size_t>(p.rank());
      reports[rank] = rep;
      r.finals[rank] = std::move(y);
      if (p.is_root()) r.final_part = ax.partition();
    });
    r.makespan = cluster.makespan();
    r.report = reports[0];
    return r;
  };

  const ModeResult control = run_mode(false);
  const ModeResult full = run_mode(true);

  // Byte-equivalence oracle: the re-decided plans (rotated delegates,
  // measured verdicts, post-remap rebuilds) must not change a single bit of
  // the computation.
  std::vector<double> reference(static_cast<std::size_t>(g.num_vertices()));
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    reference[static_cast<std::size_t>(v)] = 1.0 + static_cast<double>(v % 11);
  }
  exec::IrregularLoop::reference_iterate(g, reference, iters);
  for (const ModeResult* mode : {&control, &full}) {
    for (int rank = 0; rank < nprocs; ++rank) {
      const auto& fin = mode->finals[static_cast<std::size_t>(rank)];
      for (graph::Vertex i = 0; i < mode->final_part.size(rank); ++i) {
        const auto global = mode->final_part.to_global(rank, i);
        if (fin[static_cast<std::size_t>(i)] !=
            reference[static_cast<std::size_t>(global)]) {
          std::cerr << "adaptive_full_loop: byte-equivalence oracle FAILED at "
                    << "vertex " << global << "\n";
          std::exit(1);
        }
      }
    }
  }

  report.entry("adaptive_full_loop")
      .field("ranks", static_cast<long long>(nprocs))
      .field("ranks_per_node", static_cast<long long>(ranks_per_node))
      .field("iterations", static_cast<long long>(iters))
      .field("control_virtual_seconds", control.makespan)
      .field("full_virtual_seconds", full.makespan)
      .field("virtual_speedup", control.makespan / full.makespan)
      .field("control_remaps", static_cast<long long>(control.report.remaps))
      .field("full_remaps", static_cast<long long>(full.report.remaps))
      .field("full_rotations", static_cast<long long>(full.report.rotations))
      .field("full_replans", static_cast<long long>(full.report.replans));
  std::cout << "adaptive_full_loop: control " << control.makespan << " s, full "
            << full.makespan << " s (" << control.makespan / full.makespan
            << "x; rotations " << full.report.rotations << ", replans "
            << full.report.replans << ", remaps " << full.report.remaps
            << ", oracle ok)\n";
}

/// The delta pipeline end to end (ISSUE 10): a remap delta at small drift is
/// consumed by sched::rebuild_incremental (send-list splice) plus
/// sched::patch_coalesce (frame-plan verdict splice), versus paying a full
/// build_schedule + coalesce from scratch — both on the virtual clock, on a
/// nontrivial node map, with the spliced products asserted byte-identical to
/// the from-scratch ones. At AMR drift rates (a few percent of vertices
/// changing owner per adaptation) the splice should win; the gap closes as
/// drift grows toward a redraw.
void bench_delta_pipeline(bench::JsonReporter& report, const graph::Csr& mesh) {
  const int nprocs = 8;
  const int ranks_per_node = 4;
  mp::Cluster cluster(sim::MachineSpec::uniform_ethernet(static_cast<std::size_t>(nprocs)),
                      mp::NodeMap::contiguous(nprocs, ranks_per_node));
  const auto cpu = sim::CpuCostModel::sun4();
  sched::CoalesceOptions co;
  co.policy = sched::CoalescePolicy::kAdaptive;
  co.bytes_per_elem = sizeof(double);
  const auto from = IntervalPartition::from_weights(
      mesh.num_vertices(), std::vector<double>(static_cast<std::size_t>(nprocs), 1.0));

  // The pre-drift product, built once (not part of either measured cost).
  std::vector<sched::InspectorResult> old_ir(static_cast<std::size_t>(nprocs));
  std::vector<sched::CoalescePlan> old_plan(static_cast<std::size_t>(nprocs));
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    old_ir[r] = sched::build_schedule(p, mesh, from, sched::BuildMethod::kSort2, cpu);
    old_plan[r] = sched::coalesce(p, old_ir[r].schedule, cpu, co);
  });

  auto& entry = report.entry("delta_pipeline");
  entry.field("mesh_vertices", static_cast<long long>(mesh.num_vertices()))
      .field("ranks", static_cast<long long>(nprocs))
      .field("ranks_per_node", static_cast<long long>(ranks_per_node));
  for (const double drift : {0.02, 0.10, 0.25}) {
    // Slide the interval boundaries: alternating over/under-weighted ranks
    // move about drift/2 of each interval's vertices to a neighbour — the
    // shape of an MCR drift remap, sized to the adaptation rate.
    std::vector<double> weights(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
      weights[static_cast<std::size_t>(r)] = 1.0 + drift * (r % 2 == 0 ? 1.0 : -1.0);
    }
    const auto to = IntervalPartition::from_weights(mesh.num_vertices(), weights);
    const auto delta = partition::RemapDelta::drift(from, to);

    std::vector<sched::InspectorResult> scratch(static_cast<std::size_t>(nprocs));
    std::vector<sched::CoalescePlan> scratch_plan(static_cast<std::size_t>(nprocs));
    cluster.reset_clocks();
    cluster.run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      scratch[r] = sched::build_schedule(p, mesh, to, sched::BuildMethod::kSort2, cpu);
      scratch_plan[r] = sched::coalesce(p, scratch[r].schedule, cpu, co);
    });
    const double scratch_s = cluster.makespan();

    std::vector<sched::InspectorResult> spliced(static_cast<std::size_t>(nprocs));
    std::vector<sched::CoalescePlan> spliced_plan(static_cast<std::size_t>(nprocs));
    cluster.reset_clocks();
    cluster.run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      spliced[r] = sched::rebuild_incremental(p, mesh, delta, old_ir[r], cpu);
      spliced_plan[r] = sched::patch_coalesce(p, old_plan[r], old_ir[r].schedule,
                                              spliced[r].schedule, cpu, co);
    });
    const double spliced_s = cluster.makespan();

    // Byte-identity oracle: the splice is an optimization, never a different
    // answer.
    for (std::size_t r = 0; r < static_cast<std::size_t>(nprocs); ++r) {
      if (!(spliced[r].schedule == scratch[r].schedule) ||
          !(spliced[r].lgraph == scratch[r].lgraph) ||
          !(spliced_plan[r] == scratch_plan[r])) {
        std::cerr << "delta_pipeline: byte-identity oracle FAILED at drift "
                  << drift << ", rank " << r << "\n";
        std::exit(1);
      }
    }

    const auto pct = static_cast<int>(drift * 100.0 + 0.5);
    const std::string tag =
        std::string("drift") + (pct < 10 ? "0" : "") + std::to_string(pct);
    entry.field(tag + "_spliced_virtual_seconds", spliced_s)
        .field(tag + "_scratch_virtual_seconds", scratch_s)
        .field(tag + "_virtual_speedup", scratch_s / spliced_s);
    std::cout << "delta_pipeline " << tag << ": scratch " << scratch_s
              << " s, spliced " << spliced_s << " s ("
              << scratch_s / spliced_s << "x, oracle ok)\n";
  }
}

/// Kill-one-rank-mid-run recovery (ISSUE 7): rank 2 dies two sweeps after a
/// checkpoint, survivors detect, agree, shrink, rebuild, restore, and finish
/// the job. Every reported cost is virtual (simulation output), so the
/// detection / consensus / repartition / restore breakdown is
/// bit-deterministic and sits under check_regression.py's tight gate. The
/// byte-equivalence oracle from tests/test_recovery.cpp re-runs in-bench:
/// the recovered answer must match a failure-free run on the survivor
/// machine started from the restored checkpoint, or the bench exits 1.
void bench_recovery(bench::JsonReporter& report, bool small) {
  const std::size_t nprocs = 4;
  const graph::Csr mesh = graph::random_delaunay(small ? 240 : 2000, 7);
  const sim::MachineSpec machine = sim::MachineSpec::uniform(nprocs);

  ResilientOptions opts;
  opts.iterations = small ? 10 : 24;
  opts.checkpoint_every = 4;
  opts.detect_cost_seconds = 5e-4;
  opts.cpu = sim::CpuCostModel::sun4();
  opts.loop = exec::LoopCostModel::sun4();

  // Deterministic kill point (same argument as the test oracle): after seven
  // sweeps' worth of sends every rank has passed its iteration-4 save and
  // none can commit iteration 8, so the run always resumes from 4.
  const mp::Rank victim = 2;
  const auto part = IntervalPartition::from_weights(
      mesh.num_vertices(), std::vector<double>(nprocs, 1.0));
  const auto fused = sched::inspect_fused(mesh, part, victim);
  const std::size_t per_sweep = fused.sched.send_procs.size();
  opts.faults.kills = {mp::KillRule{
      .rank = victim, .after_sends = static_cast<std::int64_t>(7 * per_sweep)}};

  const ResilientResult result = run_resilient(mesh, machine, opts);

  // In-bench oracle.
  const auto at_checkpoint = run_reference_from(
      mesh, machine, initial_values(mesh.num_vertices()), result.resume_iteration, opts);
  const auto expected =
      run_reference_from(mesh, machine.subset(result.survivors), at_checkpoint,
                         opts.iterations - result.resume_iteration, opts);
  if (result.y != expected) {
    std::cerr << "recovery: byte-equivalence oracle FAILED (recovered run "
                 "diverged from the failure-free survivor run)\n";
    std::exit(1);
  }

  report.entry("recovery_kill_midrun")
      .field("mesh_vertices", static_cast<long long>(mesh.num_vertices()))
      .field("ranks", nprocs)
      .field("iterations", static_cast<long long>(opts.iterations))
      .field("checkpoint_every", static_cast<long long>(opts.checkpoint_every))
      .field("resume_iteration", static_cast<long long>(result.resume_iteration))
      .field("checkpoints_committed",
             static_cast<long long>(result.checkpoints_committed))
      .field("detect_virtual_seconds", result.costs.detect_virtual_seconds)
      .field("agree_virtual_seconds", result.costs.agree_virtual_seconds)
      .field("rebuild_virtual_seconds", result.costs.rebuild_virtual_seconds)
      .field("restore_virtual_seconds", result.costs.restore_virtual_seconds)
      .field("checkpoint_virtual_seconds", result.costs.checkpoint_virtual_seconds)
      .field("loop_virtual_seconds", result.loop_virtual_seconds);
  std::cout << "recovery_kill_midrun: resumed from " << result.resume_iteration
            << ", detect " << result.costs.detect_virtual_seconds << " s, agree "
            << result.costs.agree_virtual_seconds << " s, rebuild "
            << result.costs.rebuild_virtual_seconds << " s, restore "
            << result.costs.restore_virtual_seconds << " s (oracle ok)\n";
}

/// Host-seconds microbench of the executors' pack loop (exec::pack_indexed):
/// dst[k] = src[idx[k]] over a scrambled index list at a cache-resident shape
/// (4096 doubles, the per-peer message size regime the executors actually
/// pack). Wall-clock, so it sits under check_regression.py's
/// --host-tolerance gate.
void bench_pack_unpack_host(bench::JsonReporter& report, bool small, int repeats) {
  const std::size_t n = 4096;
  const int inner = small ? 500 : 2000;
  Rng rng(2025);
  std::vector<std::int32_t> idx(n);
  for (auto& i : idx) {
    i = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  }
  std::vector<double> src(n), dst(n, 0.0);
  for (auto& v : src) v = rng.uniform(-1.0, 1.0);

  volatile double sink = 0.0;
  const double scalar_s = best_of(repeats, [&] {
    for (int it = 0; it < inner; ++it) {
      exec::pack_indexed(src.data(), idx.data(), n, dst.data());
      sink = sink + dst[0];
    }
  });

  report.entry("pack_unpack_host")
      .field("elements", n)
      .field("inner_reps", static_cast<long long>(inner))
      .field("scalar_host_seconds", scalar_s);
  std::cout << "pack_unpack_host: " << scalar_s << " s\n";
}

/// Host-seconds Figure-8 sweep on the spectral-ordered paper mesh: the
/// executor's sliced four-chain kernel (IrregularLoop::iterate on a 1-rank
/// cluster, so no ghosts and no messages) against the row-at-a-time
/// IrregularLoop::reference_iterate. Both sides run on the same rank thread,
/// interleaved, keeping the best of many short samples across `repeats`
/// cluster runs: each run may land on a different core, and the per-core
/// speed of a shared host varies more than either kernel. Both sides sweep
/// the same values the same number of times, so they must end bit-identical.
void bench_sweep_kernel_host(bench::JsonReporter& report, const graph::Csr& mesh,
                             int repeats) {
  const int sweeps = 5;
  const auto nv = static_cast<std::size_t>(mesh.num_vertices());
  const auto part = IntervalPartition::from_weights(mesh.num_vertices(),
                                                    std::vector<double>{1.0});
  mp::Cluster cluster(sim::MachineSpec::uniform(1));
  sched::InspectorResult ir;
  cluster.run([&](mp::Process& p) {
    ir = sched::build_schedule(p, mesh, part, sched::BuildMethod::kSort2,
                               sim::CpuCostModel::free());
  });
  std::vector<double> sliced(nv);
  for (std::size_t v = 0; v < nv; ++v) sliced[v] = std::sin(static_cast<double>(v)) + 2.0;
  std::vector<double> reference = sliced;

  exec::IrregularLoop loop(ir.lgraph, ir.schedule);
  double sliced_s = std::numeric_limits<double>::infinity();
  double reference_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    cluster.run([&](mp::Process& p) {
      sliced_s = std::min(sliced_s, best_of(10, [&] { loop.iterate(p, sliced, sweeps); }));
      reference_s = std::min(reference_s, best_of(10, [&] {
        exec::IrregularLoop::reference_iterate(mesh, reference, sweeps);
      }));
    });
  }
  if (std::memcmp(sliced.data(), reference.data(), nv * sizeof(double)) != 0) {
    std::cerr << "sweep_kernel_host: byte-identity oracle FAILED\n";
    std::exit(1);
  }

  report.entry("sweep_kernel_host")
      .field("vertices", static_cast<long long>(nv))
      .field("refs", static_cast<long long>(ir.lgraph.refs.size()))
      .field("sweeps", static_cast<long long>(sweeps))
      .field("reference_host_seconds", reference_s)
      .field("sliced_host_seconds", sliced_s)
      .field("host_speedup", reference_s / sliced_s);
  std::cout << "sweep_kernel_host: reference " << reference_s << " s, sliced "
            << sliced_s << " s per " << sweeps << " sweeps, speedup "
            << reference_s / sliced_s << "x (oracle ok)\n";
}

/// The mutex+condvar mailbox the lock-free ring replaced (ISSUE 9), kept as
/// the bench reference: one deque under one lock, every deposit takes the
/// mutex and notifies, take scans for the oldest (source, tag) match.
class MutexMailboxRef {
 public:
  void deposit(mp::RawMessage msg) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(msg));
    cv_.notify_one();
  }
  mp::RawMessage take(mp::Rank source, mp::Tag tag) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->source == source && it->tag == tag) {
          mp::RawMessage msg = std::move(*it);
          queue_.erase(it);
          return msg;
        }
      }
      cv_.wait(lock);
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<mp::RawMessage> queue_;
};

/// Host-seconds mailbox throughput: several producer threads flood one
/// mailbox while the consumer takes round-robin across sources — the
/// deposit-side contention pattern of a rank receiving its ghost exchange.
/// Payloads are empty so the clock sees queue mechanics, not memcpy.
void bench_mailbox_throughput_host(bench::JsonReporter& report, bool small,
                                   int repeats) {
  const int producers = 4;
  const int per_producer = small ? 20000 : 100000;
  constexpr mp::Tag kTag = 3;

  auto flood = [&](auto& box) {
    // Per-source backpressure against the consumer's round counter keeps
    // every backlog bounded so both designs are measured at a matched
    // steady-state rate: unthrottled floods report whichever pathological
    // backlog the scheduler happened to build, which is noise, not a
    // gateable signal. (A single global cap can deadlock: three sources
    // could fill it while the consumer blocks on the fourth.)
    std::atomic<int> rounds{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int src = 0; src < producers; ++src) {
      threads.emplace_back([&, src] {
        for (int i = 0; i < per_producer; ++i) {
          while (i - rounds.load(std::memory_order_acquire) > 1024) {
            std::this_thread::yield();
          }
          box.deposit(mp::RawMessage{src, kTag, {}, 0.0});
        }
      });
    }
    for (int i = 0; i < per_producer; ++i) {
      for (int src = 0; src < producers; ++src) {
        volatile auto arrival = box.take(src, kTag).arrival;
        (void)arrival;
      }
      rounds.store(i + 1, std::memory_order_release);
    }
    for (auto& t : threads) t.join();
  };

  const double mutex_s = best_of(repeats, [&] {
    MutexMailboxRef box;
    flood(box);
  });
  const double ring_s = best_of(repeats, [&] {
    mp::Mailbox box;
    flood(box);
  });
  const double total =
      static_cast<double>(producers) * static_cast<double>(per_producer);

  report.entry("mailbox_throughput_host")
      .field("producers", static_cast<long long>(producers))
      .field("messages", static_cast<long long>(producers) * per_producer)
      .field("mutex_host_seconds", mutex_s)
      .field("ring_host_seconds", ring_s)
      .field("ring_msgs_per_host_second", total / ring_s)
      .field("host_speedup", mutex_s / ring_s);
  std::cout << "mailbox_throughput_host: mutex+cv " << mutex_s << " s, ring "
            << ring_s << " s, speedup " << mutex_s / ring_s << "x ("
            << total / ring_s << " msg/s)\n";
}

void bench_remap(bench::JsonReporter& report, const graph::Csr& mesh, int deltas,
                 int repeats) {
  const std::size_t nprocs = 5;

  // Worst case for patching: MCR remaps after full random capability
  // redraws — typically half the line moves.
  Rng redraw_rng(1234);
  bench_remap_mode(report, mesh, "table2_incremental_rebuild", nprocs, deltas,
                   repeats, [&] {
    const auto from = IntervalPartition::from_weights(mesh.num_vertices(),
                                                      random_weights(nprocs, redraw_rng));
    const auto to = partition::repartition_mcr(from, random_weights(nprocs, redraw_rng));
    return std::make_pair(from, to);
  });

  // The adaptive steady state (paper footnote 1: the structure adapts every
  // few iterations): capabilities drift a few percent, boundaries slide.
  Rng drift_rng(5678);
  auto weights = random_weights(nprocs, drift_rng);
  bench_remap_mode(report, mesh, "table2_incremental_rebuild_drift", nprocs, deltas,
                   repeats,
                   [&] {
                     const auto from = IntervalPartition::from_weights(
                         mesh.num_vertices(), weights);
                     for (auto& w : weights) w *= drift_rng.uniform(0.95, 1.05);
                     const auto to = partition::repartition_same_arrangement(
                         from, weights);
                     return std::make_pair(from, to);
                   });
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool small = args.get_bool("small", false);
  const int repeats = static_cast<int>(args.get_int("repeats", 5));
  const std::string out_dir = args.get("out-dir", ".");
  std::cout << "\n=== run_all — machine-readable perf benches ===\n";

  const graph::Csr& mesh = bench::mesh_for(args);
  std::cout << "mesh: " << mesh.num_vertices() << " vertices, " << mesh.num_edges()
            << " edges\n";

  bench::JsonReporter schedule_report;
  bench_schedule_build(schedule_report, mesh, repeats);
  bench_translation(schedule_report, small, repeats);
  bench_node_coalescing(schedule_report, small);
  bench_delegate_rotation(schedule_report, small);
  bench_adaptive_full_loop(schedule_report, small);
  bench_delta_pipeline(schedule_report, mesh);
  bench_pack_unpack_host(schedule_report, small, repeats);
  bench_sweep_kernel_host(schedule_report, mesh, repeats);
  bench_mailbox_throughput_host(schedule_report, small, repeats);
  schedule_report.write(out_dir + "/BENCH_schedule.json");

  bench::JsonReporter remap_report;
  bench_remap(remap_report, mesh, small ? 5 : 20, repeats);
  remap_report.write(out_dir + "/BENCH_remap.json");

  bench::JsonReporter recovery_report;
  bench_recovery(recovery_report, small);
  recovery_report.write(out_dir + "/BENCH_recovery.json");
  return 0;
}
