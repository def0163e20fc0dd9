// The four workloads (bench/e2e/README.md gives the why of each). Three of
// them run over a fixed dataset (their meshes) and draw their op stream —
// the per-op inputs — from --seed, so a seed changes which ops run and in
// what order while the workload's mix stays the same. service_mix turns this
// around: the seed draws its catalog meshes and its job stream is fixed,
// because a job's bill depends on the order of cache hits, misses and
// batches, which would otherwise vary from seed to seed. Each workload times
// its set-up several times, then runs a closed loop of ops on the client
// thread. Oracle references are computed before the loop; an op whose output
// differs from its reference is wrong, which fails the whole run.
#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "graph/delta.hpp"
#include "sched/localize.hpp"
#include "stance/recovery.hpp"
#include "stance/stance.hpp"
#include "support/rng.hpp"

namespace e2e {
namespace {

using namespace stance;

constexpr int kClient = Tracer::kClient;

/// Independent op streams from one --seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + stream);
  return sm.next();
}

std::vector<double> initial_values(graph::Vertex n) {
  std::vector<double> y(static_cast<std::size_t>(n));
  for (graph::Vertex g = 0; g < n; ++g) y[static_cast<std::size_t>(g)] = Session::initial_value(g);
  return y;
}

std::vector<double> reference(const graph::Csr& g, int sweeps) {
  auto y = initial_values(g.num_vertices());
  exec::IrregularLoop::reference_iterate(g, y, sweeps);
  return y;
}

std::vector<double> slice(const std::vector<double>& global,
                          const partition::IntervalPartition& part, int rank) {
  const auto first = global.begin() + part.first(rank);
  return {first, first + part.size(rank)};
}

std::vector<double> speeds(const sim::MachineSpec& m) {
  std::vector<double> w;
  for (const auto& node : m.nodes) w.push_back(node.speed);
  return w;
}

/// Reference-speed seconds of `sweeps` loop sweeps over g (paper §4's
/// whole task, before dividing by a node's speed).
double sweep_work(const graph::Csr& g, int sweeps) {
  const auto cost = exec::LoopCostModel::sun4();
  double vertex_work = 0.0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) vertex_work += g.weight(v);
  return sweeps * (cost.per_vertex * vertex_work +
                   cost.per_edge * 2.0 * static_cast<double>(g.num_edges()));
}

/// Paper §4 nonuniform efficiency of an op that took `virt` simulated
/// seconds for `work` reference-speed seconds of sweeps on `m`.
double efficiency(double virt, double work, const sim::MachineSpec& m) {
  std::vector<double> alone;
  for (const auto& node : m.nodes) alone.push_back(work / node.speed);
  return nonuniform_efficiency(virt, alone);
}

double refs(const graph::Csr& g, int sweeps) {
  return 2.0 * static_cast<double>(g.num_edges()) * sweeps;
}

/// The service's job checksum for the final vector `y`: per-rank sums over
/// the rank's interval, folded in rank order.
double rank_checksum(const std::vector<double>& y, const partition::IntervalPartition& part) {
  double total = 0.0;
  for (int r = 0; r < part.nparts(); ++r) {
    double sum = 0.0;
    for (const double v : slice(y, part, r)) sum += v;
    total += sum;
  }
  return total;
}

/// Run `set_up` `reps` times; the median host time is setup_s and the last
/// repetition's products are what the ops use.
double time_setup(Tracer& tr, int reps, const std::function<void()>& set_up) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = HostClock::now();
    {
      Scope s(tr, kClient, "setup");
      set_up();
    }
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Cluster::run with the client/rank span pair mp.run_overhead_us reads.
void traced_run(mp::Cluster& c, Tracer& tr, const std::function<void(mp::Process&)>& body) {
  Scope s(tr, kClient, "mp.run");
  c.run([&](mp::Process& p) {
    Scope b(tr, slot_of(p), "mp.rank_body", &p);
    body(p);
  });
}

void sample_comm(Samples& s, const mp::CommStats& st, int sweeps) {
  const double n = sweeps;
  s.add("mp.msgs_per_sweep", static_cast<double>(st.messages_sent) / n);
  s.add("mp.bytes_per_sweep", static_cast<double>(st.bytes_sent) / n);
  s.add("mp.inter_node_msgs_per_sweep", static_cast<double>(st.inter_node_sent) / n);
  s.add("mp.frames_per_sweep", static_cast<double>(st.frames_sent) / n);
  const double busy = st.compute_seconds + st.comm_seconds;
  s.add("mp.comm_frac_virtual", busy > 0.0 ? st.comm_seconds / busy : 0.0);
}

void report_failure(const char* workload, const std::exception& e) {
  std::fprintf(stderr, "%s: op failed: %s\n", workload, e.what());
}

/// A shuffled multiset dealt card by card and reshuffled when exhausted:
/// every seed sees the same mix, only the order changes.
class Deck {
 public:
  Deck(std::vector<int> cards, Rng& rng) : cards_(std::move(cards)), rng_(&rng) {}
  int draw() {
    if (next_ == 0) shuffle(cards_, *rng_);
    const int c = cards_[next_];
    next_ = (next_ + 1) % cards_.size();
    return c;
  }

 private:
  std::vector<int> cards_;
  Rng* rng_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// static_paper: paper Table 4's shape. One op = from_weights + Phase B on
// every rank + 50 sweeps of the Fig. 8 loop. Each op partitions by freshly
// measured capabilities: the node speeds with up to 2% seeded jitter.

WorkloadRun static_paper(const Options& opt, Tracer& tr, Samples& smp) {
  constexpr int kSweeps = 50;
  const auto machine = sim::MachineSpec::sun4_ethernet(kRanks);
  const auto cpu = sim::CpuCostModel::sun4();
  const auto loop_cost = exec::LoopCostModel::sun4();
  const graph::Csr raw = graph::paper_mesh();

  graph::Csr mesh;
  std::unique_ptr<mp::Cluster> cluster;
  const double setup_s = time_setup(tr, opt.setup_reps(3), [&] {
    std::vector<graph::Vertex> perm;
    {
      Scope s(tr, kClient, "order.compute");
      perm = order::compute(raw, order::Method::kSpectral);
    }
    mesh = raw.permuted(perm);
    cluster.reset();
    Scope s(tr, kClient, "mp.cluster_ctor");
    cluster = std::make_unique<mp::Cluster>(machine, mp::TransportKind::kVirtual);
  });

  const auto nv = mesh.num_vertices();
  const auto ref = reference(mesh, kSweeps);
  const double work = sweep_work(mesh, kSweeps);
  const double op_refs = refs(mesh, kSweeps);

  WorkloadRun run{OpLog(opt, 1000), setup_s,
                  {{"vertices", static_cast<double>(nv)},
                   {"edges", static_cast<double>(mesh.num_edges())},
                   {"sweeps_per_op", kSweeps}}};
  Rng rng(sub_seed(opt.seed, 1));
  std::vector<sched::InspectorResult> ir(kRanks);
  std::vector<std::vector<double>> y_out(kRanks);
  while (!run.log.done()) {
    std::vector<double> weights = speeds(machine);
    for (double& w : weights) w *= 1.0 + 0.02 * rng.uniform(-1.0, 1.0);
    try {
      const auto t0 = HostClock::now();
      double virt = 0.0;
      partition::IntervalPartition part;
      {
        Scope op(tr, kClient, "op");
        {
          Scope s(tr, kClient, "partition.from_weights");
          part = partition::IntervalPartition::from_weights(nv, weights);
        }
        cluster->reset_clocks();
        traced_run(*cluster, tr, [&](mp::Process& p) {
          Scope s(tr, slot_of(p), "sched.build_schedule", &p);
          ir[static_cast<std::size_t>(p.rank())] =
              sched::build_schedule(p, mesh, part, sched::BuildMethod::kSort2, cpu);
        });
        virt = cluster->makespan();
        cluster->reset_clocks();
        traced_run(*cluster, tr, [&](mp::Process& p) {
          const auto r = static_cast<std::size_t>(p.rank());
          exec::IrregularLoop loop(ir[r].lgraph, ir[r].schedule, loop_cost, cpu);
          std::vector<double> y(static_cast<std::size_t>(part.size(p.rank())));
          for (std::size_t i = 0; i < y.size(); ++i) {
            y[i] = Session::initial_value(part.to_global(p.rank(), static_cast<graph::Vertex>(i)));
          }
          for (int i = 0; i < kSweeps; ++i) {
            Scope s(tr, slot_of(p), "exec.sweep", &p);
            loop.iterate(p, y, 1);
          }
          y_out[r] = std::move(y);
        });
        virt += cluster->makespan();
      }
      const double host = seconds_since(t0);
      sample_comm(smp, cluster->total_stats(), kSweeps);
      bool ok = true;
      for (int r = 0; r < kRanks; ++r) ok = ok && y_out[static_cast<std::size_t>(r)] == slice(ref, part, r);
      run.log.add(host, virt, efficiency(virt, work, machine), op_refs, ok);
    } catch (const std::exception& e) {
      report_failure("static_paper", e);
      run.log.add_failure();
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// adaptive_amr_tcp: an AMR refinement front over a nonuniform, time-varying
// 2-node cluster on real loopback TCP. One op = one phase; one job = executor
// construction (inside the first phase) + kPhases phases. Each job meets its
// own competing load on rank 3, dealt from a seeded deck.

WorkloadRun adaptive_amr_tcp(const Options& opt, Tracer& tr, Samples& smp) {
  constexpr int kPhases = 8;
  constexpr int kChecks = 4;  ///< per phase, one every kChunk sweeps
  constexpr int kChunk = 10;
  constexpr int kSweeps = kChecks * kChunk;
  constexpr graph::Vertex kVertices = 16000;
  constexpr double kHot = 8.0;

  // Both nodes' initial frame delegates (ranks 0 and 2) are slow — the case
  // delegate rotation exists for; rank 3 shares its CPU periodically.
  auto machine = sim::MachineSpec::uniform_ethernet(kRanks);
  machine.nodes[0].speed = 0.25;
  machine.nodes[2].speed = 0.25;
  const std::vector<mp::Rank> first_delegates = {0, 2};
  const graph::Csr raw = graph::random_delaunay(kVertices, 2);

  graph::Csr base;
  std::unique_ptr<mp::Cluster> cluster;
  const double setup_s = time_setup(tr, opt.setup_reps(101), [&] {
    std::vector<graph::Vertex> perm;
    {
      Scope s(tr, kClient, "order.compute");
      perm = order::compute(raw, order::Method::kRcb);
    }
    base = raw.permuted(perm);
    cluster.reset();
    Scope s(tr, kClient, "mp.cluster_ctor");
    cluster = std::make_unique<mp::Cluster>(machine, mp::NodeMap::contiguous(kRanks, 2),
                                            mp::TransportKind::kTcp);
  });

  // The job's mesh history: a front covering 15% of the x-range sweeps left
  // to right, one CsrDelta per phase. RCB numbering keeps the front a
  // contiguous index range, so skip-level (v, v+2) edges are its denser
  // stencil; the hot weight is its extra work.
  const auto n = base.num_vertices();
  auto in_front = [&](graph::Vertex v, int phase) {
    const double center = (0.5 + phase) / kPhases;
    return phase >= 0 && std::abs(base.coord(v).x - center) < 0.075;
  };
  std::vector<graph::Csr> meshes{base};
  meshes.reserve(kPhases + 1);
  std::vector<graph::CsrDelta> deltas(kPhases);
  std::vector<graph::Edge> prev_refined;
  for (int k = 0; k < kPhases; ++k) {
    std::vector<graph::Edge> refined;
    for (graph::Vertex v = 0; v + 2 < n; ++v) {
      const auto nbrs = base.neighbors(v);
      if (in_front(v, k) && std::find(nbrs.begin(), nbrs.end(), v + 2) == nbrs.end()) {
        refined.emplace_back(v, v + 2);
      }
    }
    graph::CsrDelta& d = deltas[static_cast<std::size_t>(k)];
    std::set_difference(refined.begin(), refined.end(), prev_refined.begin(),
                        prev_refined.end(), std::back_inserter(d.insert_edges));
    std::set_difference(prev_refined.begin(), prev_refined.end(), refined.begin(),
                        refined.end(), std::back_inserter(d.remove_edges));
    for (graph::Vertex v = 0; v < n; ++v) {
      if (in_front(v, k) != in_front(v, k - 1)) {
        d.weight_edits.push_back({v, in_front(v, k) ? kHot : 1.0});
      }
    }
    meshes.push_back(meshes.back().apply(d));
    prev_refined = std::move(refined);
  }
  auto ref = initial_values(n);
  for (int k = 1; k <= kPhases; ++k) {
    exec::IrregularLoop::reference_iterate(meshes[static_cast<std::size_t>(k)], ref, kSweeps);
  }

  lb::AdaptiveOptions opts;
  opts.lb.check_interval = kChunk;
  opts.lb.profitability_factor = 1.0;
  opts.lb.objective = partition::ArrangementObjective::from_network(machine.net, sizeof(double));
  opts.cpu = sim::CpuCostModel::sun4();
  opts.loop = exec::LoopCostModel::sun4();
  opts.coalesce = true;
  opts.coalesce_opts.policy = sched::CoalescePolicy::kAdaptive;
  opts.coalesce_opts.bytes_per_elem = sizeof(double);
  opts.rotate_delegates = true;
  opts.measured_feedback = true;
  const auto initial =
      partition::IntervalPartition::from_weights(n, std::vector<double>(kRanks, 1.0));
  const auto y0 = initial_values(n);

  auto set_work = [](lb::AdaptiveExecutor& ax, const graph::Csr& m, int rank) {
    const auto& part = ax.partition();
    std::vector<double> w(static_cast<std::size_t>(part.size(rank)));
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = m.weight(part.to_global(rank, static_cast<graph::Vertex>(i)));
    }
    ax.set_vertex_work(std::move(w));
  };

  struct CheckRec {
    bool remap = false;
    bool rotated = false;
    bool replanned = false;
    double check_s = 0.0;
    double remap_s = 0.0;
    double retune_s = 0.0;
    double moved_frac = 0.0;
  };

  WorkloadRun run{OpLog(opt, 1000), setup_s,
                  {{"vertices", static_cast<double>(n)},
                   {"edges", static_cast<double>(base.num_edges())},
                   {"phases_per_job", kPhases}, {"sweeps_per_op", kSweeps}}};
  std::vector<std::unique_ptr<lb::AdaptiveExecutor>> ax(kRanks);
  std::vector<std::vector<double>> y(kRanks);
  // Rank 3's competing load: periodic, half of each 3-5 s period at 30-50%
  // of its CPU.
  Rng rng(sub_seed(opt.seed, 2));
  std::vector<int> loads;
  for (const int period : {3, 4, 5}) {
    for (const int busy : {3, 4, 5}) loads.push_back(period * 10 + busy);
  }
  Deck load_deck(loads, rng);
  while (!run.log.done()) {
    const int load = load_deck.draw();
    cluster->set_profile(3, sim::LoadProfile::periodic(load / 10, 0.5, (load % 10) / 10.0, 1.0));
    cluster->reset_clocks();
    cluster->set_delegates(first_delegates);
    std::array<double, 4> job_counts{};  // checks, remaps, rotations, replans
    bool job_ok = true;
    for (int k = 0; k < kPhases && job_ok; ++k) {
      const graph::Csr& mesh = meshes[static_cast<std::size_t>(k) + 1];
      std::vector<std::array<CheckRec, kChecks>> rec(kRanks);
      try {
        const auto t0 = HostClock::now();
        const double before = cluster->makespan();
        {
          Scope op(tr, kClient, "op");
          traced_run(*cluster, tr, [&](mp::Process& p) {
            const auto r = static_cast<std::size_t>(p.rank());
            if (k == 0) {
              Scope s(tr, slot_of(p), "lb.executor_ctor", &p);
              ax[r] = std::make_unique<lb::AdaptiveExecutor>(p, meshes[0], initial, opts);
              y[r] = slice(y0, initial, p.rank());
            }
            auto& ex = *ax[r];
            {
              Scope s(tr, slot_of(p), "lb.apply_mesh_delta", &p);
              ex.apply_mesh_delta(p, mesh, deltas[static_cast<std::size_t>(k)], nullptr, y[r]);
            }
            set_work(ex, mesh, p.rank());
            for (int c = 0; c < kChecks; ++c) {
              {
                Scope s(tr, slot_of(p), "lb.run_chunk", &p);
                (void)ex.run(p, y[r], kChunk);
              }
              const partition::IntervalPartition before_part = ex.partition();
              lb::AdaptiveExecutor::CheckOutcome out;
              {
                Scope s(tr, slot_of(p), "lb.check", &p);
                out = ex.check_now(p, y[r]);
                if (out.decision.remap) s.rename("lb.remap");
              }
              if (out.decision.remap) set_work(ex, mesh, p.rank());
              rec[r][static_cast<std::size_t>(c)] = CheckRec{
                  out.decision.remap, out.rotated, out.replanned, out.check_seconds,
                  out.remap_seconds, out.retune_seconds,
                  static_cast<double>(before_part.moved(ex.partition())) / n};
            }
          });
        }
        const double host = seconds_since(t0);
        const double virt = cluster->makespan() - before;
        sample_comm(smp, cluster->total_stats(), kSweeps);
        for (std::size_t c = 0; c < kChecks; ++c) {
          // Decisions are collective (identical on every rank); costs are
          // the slowest rank's.
          const CheckRec& d = rec[0][c];
          double check_s = 0.0, remap_s = 0.0, retune_s = 0.0;
          for (const auto& per_rank : rec) {
            check_s = std::max(check_s, per_rank[c].check_s);
            remap_s = std::max(remap_s, per_rank[c].remap_s);
            retune_s = std::max(retune_s, per_rank[c].retune_s);
          }
          smp.add("lb.check_virtual_s", check_s);
          smp.add("lb.retune_virtual_s", retune_s);
          job_counts[0] += 1;
          if (d.remap) {
            smp.add("lb.remap_virtual_s", remap_s);
            smp.add("partition.moved_frac", d.moved_frac);
            job_counts[1] += 1;
          }
          job_counts[2] += d.rotated ? 1 : 0;
          job_counts[3] += d.replanned ? 1 : 0;
        }
        run.log.add(host, virt, efficiency(virt, sweep_work(mesh, kSweeps), machine),
                    refs(mesh, kSweeps), true);
      } catch (const std::exception& e) {
        report_failure("adaptive_amr_tcp", e);
        run.log.add_failure();
        job_ok = false;
      }
    }
    if (!job_ok) continue;
    // Oracle: the distributed final vector, bit for bit, against the
    // sequential loop over the same mesh sequence.
    const auto& part = ax[0]->partition();
    std::vector<double> global(static_cast<std::size_t>(n));
    for (int r = 0; r < kRanks; ++r) {
      const auto& yr = y[static_cast<std::size_t>(r)];
      std::copy(yr.begin(), yr.end(), global.begin() + part.first(r));
    }
    if (global != ref) {
      std::fprintf(stderr, "adaptive_amr_tcp: final vector differs from the reference\n");
      run.log.mark_wrong();
    }
    smp.add("lb.checks", job_counts[0]);
    smp.add("lb.remaps", job_counts[1]);
    smp.add("lb.rotations", job_counts[2]);
    smp.add("lb.replans", job_counts[3]);
  }
  return run;
}

// ---------------------------------------------------------------------------
// service_mix: a multi-tenant job stream over one stance::Service. One op =
// one job, from submit() until the drain() that ran it returns. The seed
// draws the catalog's meshes; the stream of jobs over them is the same for
// every seed.

WorkloadRun service_mix(const Options& opt, Tracer& tr, Samples& smp) {
  constexpr int kIterations = 20;
  constexpr int kCatalog = 8;
  constexpr int kEditSteps = 16;  ///< edits before an editable mesh's simulation restarts
  constexpr double kZipf = 1.5;  ///< ~75% of jobs hit the 4-entry cache
  // Mesh size by popularity rank (most popular first); popularity does not
  // follow size. Ranks 1 and 4 are tenants whose meshes evolve: they run
  // identity-ordered (pre-ordered) meshes, the one ordering
  // Service::patch_plan accepts.
  constexpr graph::Vertex kSizes[kCatalog] = {6900, 3000, 12000, 4300,
                                              9400, 5600, 10700, 8100};
  constexpr bool kEditable[kCatalog] = {false, true, false, false, true, false, false, false};
  const auto fleet = sim::MachineSpec::sun4_ethernet(kRanks);
  const auto weights = speeds(fleet);

  struct Entry {
    order::Method ordering = order::Method::kRcb;
    std::vector<std::shared_ptr<const graph::Csr>> versions;
    std::vector<graph::CsrDelta> deltas;  ///< versions[v] -> versions[v + 1]
    std::vector<double> checksum;         ///< reference job checksum per version
    std::size_t version = 0;
  };
  const SessionConfig base_cfg;
  std::vector<Entry> catalog(kCatalog);
  for (int k = 0; k < kCatalog; ++k) {
    Entry& e = catalog[static_cast<std::size_t>(k)];
    graph::Csr raw =
        graph::random_delaunay(kSizes[k], sub_seed(opt.seed, 10 + static_cast<std::uint64_t>(k)));
    if (!kEditable[k]) {
      e.versions.push_back(std::make_shared<const graph::Csr>(std::move(raw)));
    } else {
      // A refinement window of skip-level edges and weight-4 vertices slides
      // along the RCB numbering, one CsrDelta per edit.
      e.ordering = order::Method::kIdentity;
      graph::Csr mesh = raw.permuted(order::compute(raw, order::Method::kRcb));
      const graph::Vertex n = mesh.num_vertices();
      const graph::Vertex width = n / 8;
      const graph::Vertex start = n / 16;
      const graph::Vertex stride = (n - width - start - 2) / kEditSteps;
      auto in_window = [&](graph::Vertex v, int step) {
        const graph::Vertex a = start + step * stride;
        return step >= 0 && v >= a && v < a + width;
      };
      const graph::Csr pristine = mesh;
      e.versions.push_back(std::make_shared<const graph::Csr>(std::move(mesh)));
      for (int step = 0; step < kEditSteps; ++step) {
        graph::CsrDelta d;
        for (graph::Vertex v = 0; v + 2 < n; ++v) {
          const bool now = in_window(v, step);
          const bool before = in_window(v, step - 1);
          const auto nbrs = pristine.neighbors(v);
          const bool native = std::find(nbrs.begin(), nbrs.end(), v + 2) != nbrs.end();
          if (now != before && !native) {
            (now ? d.insert_edges : d.remove_edges).emplace_back(v, v + 2);
          }
          if (now != before) d.weight_edits.push_back({v, now ? 4.0 : 1.0});
        }
        e.versions.push_back(std::make_shared<const graph::Csr>(e.versions.back()->apply(d)));
        e.deltas.push_back(std::move(d));
      }
    }
    for (const auto& m : e.versions) {
      const graph::Csr ordered =
          e.ordering == order::Method::kIdentity
              ? *m
              : m->permuted(order::compute(*m, e.ordering, base_cfg.seed));
      const auto part = partition::IntervalPartition::from_weights(ordered.num_vertices(), weights);
      e.checksum.push_back(rank_checksum(reference(ordered, kIterations), part));
    }
  }

  auto spec_for = [&](const Entry& e, std::uint64_t tenant) {
    JobSpec spec;
    spec.tenant = "tenant-" + std::to_string(tenant % 4);
    spec.mesh = e.versions[e.version];
    spec.config = base_cfg;
    spec.config.ordering = e.ordering;
    spec.iterations = kIterations;
    return spec;
  };

  // Set-up starts the service and fills its plan cache with the most
  // popular meshes it can hold, as an operator would before admitting
  // traffic; the warm-up jobs' answers are checked like any op's.
  ServiceOptions sopts;
  sopts.max_in_flight = 8;
  sopts.plan_cache_capacity = 4;
  sopts.batching = true;
  std::unique_ptr<Service> svc;
  const double setup_s = time_setup(tr, opt.setup_reps(51), [&] {
    svc.reset();
    {
      Scope s(tr, kClient, "stance.service_ctor");
      svc = std::make_unique<Service>(fleet, sopts, mp::NodeMap{}, mp::TransportKind::kVirtual);
    }
    for (std::size_t k = 0; k < sopts.plan_cache_capacity; ++k) {
      if (!svc->submit(spec_for(catalog[k], k)).accepted) {
        throw std::runtime_error("service_mix: warm-up job refused");
      }
    }
    for (const JobResult& r : svc->drain()) {
      if (r.checksum != catalog[r.job - 1].checksum[0]) {
        throw std::runtime_error("service_mix: warm-up job answered wrongly");
      }
    }
  });

  Rng rng(sub_seed(0, 3));  // the job stream: fixed, see above
  std::vector<int> mesh_cards;
  double zipf_total = 0.0;
  for (int k = 1; k <= kCatalog; ++k) zipf_total += std::pow(k, -kZipf);
  for (int k = 0; k < kCatalog; ++k) {
    const auto copies = std::lround(100.0 * std::pow(k + 1, -kZipf) / zipf_total);
    mesh_cards.insert(mesh_cards.end(), static_cast<std::size_t>(copies), k);
  }
  Deck mesh_deck(mesh_cards, rng);
  // Round shapes: 1-6 jobs, each size once as an identical-job burst from
  // different tenants (the batching path) and twice as independent picks.
  std::vector<int> shapes;
  for (int size = 1; size <= 6; ++size) {
    for (const int burst : {1, 0, 0}) shapes.push_back(size * 10 + burst);
  }
  Deck shape_deck(shapes, rng);
  const std::vector<int> editable = {1, 4};

  struct Pending {
    std::uint64_t job = 0;
    int entry = 0;
    std::size_t version = 0;
    HostClock::time_point start;
  };
  WorkloadRun run{OpLog(opt, 4000), setup_s,
                  {{"catalog_meshes", kCatalog}, {"iterations_per_job", kIterations},
                   {"plan_cache_capacity", static_cast<double>(sopts.plan_cache_capacity)}}};
  std::uint64_t round = 0;
  std::uint64_t jobs = 0;
  std::size_t patch_turn = 0;
  while (!run.log.done()) {
    // (entry, start-time override) of each job this round.
    std::vector<std::pair<int, std::optional<HostClock::time_point>>> plan;
    if (round % 10 == 9) {
      // Edit round: evolve a resident editable mesh through the delta
      // pipeline, then run the tenant's job on the edited mesh. The job's
      // latency includes the patch.
      int pick = editable[patch_turn % editable.size()];
      for (std::size_t i = 0; i < editable.size(); ++i) {
        const int k = editable[(patch_turn + i) % editable.size()];
        if (svc->cached_plan_for(spec_for(catalog[static_cast<std::size_t>(k)], 0)) != nullptr) {
          pick = k;
          break;
        }
      }
      ++patch_turn;
      Entry& e = catalog[static_cast<std::size_t>(pick)];
      const auto start = HostClock::now();
      if (e.version + 1 < e.versions.size()) {
        const JobSpec old = spec_for(e, 0);
        ++e.version;
        try {
          if (svc->cached_plan_for(old) != nullptr) {
            Scope s(tr, kClient, "stance.patch_plan");
            svc->patch_plan(old, e.deltas[e.version - 1], e.versions[e.version]);
          }
        } catch (const std::exception& ex) {
          report_failure("service_mix", ex);
          run.log.add_failure();
          ++round;
          continue;
        }
      } else {
        e.version = 0;  // the tenant restarts its simulation from the base mesh
      }
      plan.emplace_back(pick, start);
    } else {
      const int shape = shape_deck.draw();
      const int count = shape / 10;
      const bool burst = shape % 10 == 1;
      const int first = mesh_deck.draw();
      for (int j = 0; j < count; ++j) {
        plan.emplace_back(burst || j == 0 ? first : mesh_deck.draw(), std::nullopt);
      }
    }
    ++round;

    std::vector<Pending> pending;
    for (const auto& [entry, start] : plan) {
      const Entry& e = catalog[static_cast<std::size_t>(entry)];
      const auto submitted = start.value_or(HostClock::now());
      Admission adm;
      {
        Scope s(tr, kClient, "stance.submit");
        adm = svc->submit(spec_for(e, jobs++));
      }
      if (!adm.accepted) {
        std::fprintf(stderr, "service_mix: job refused: %s\n", adm.detail.c_str());
        run.log.add_failure();
        continue;
      }
      pending.push_back(Pending{adm.job, entry, e.version, submitted});
    }
    std::vector<JobResult> results;
    try {
      Scope s(tr, kClient, "stance.drain");
      results = svc->drain();
    } catch (const std::exception& e) {
      report_failure("service_mix", e);
      for (std::size_t i = 0; i < pending.size(); ++i) run.log.add_failure();
      continue;
    }
    const auto finished = HostClock::now();
    for (std::size_t i = 0; i < results.size(); i += static_cast<std::size_t>(results[i].batch_size)) {
      sample_comm(smp, results[i].loop_stats, kIterations);  // once per execution
    }
    for (const Pending& pd : pending) {
      const auto it = std::find_if(results.begin(), results.end(),
                                   [&](const JobResult& r) { return r.job == pd.job; });
      if (it == results.end()) {
        run.log.add_failure();
        continue;
      }
      const Entry& e = catalog[static_cast<std::size_t>(pd.entry)];
      const graph::Csr& mesh = *e.versions[pd.version];
      const double host = std::chrono::duration<double>(finished - pd.start).count();
      if (run.log.timed()) {
        smp.add(it->plan_cache_hit ? "stance.hit_op_ms" : "stance.miss_op_ms", host * 1e3);
      }
      smp.add("stance.cache_hit_frac", it->plan_cache_hit ? 1.0 : 0.0);
      smp.add("stance.batched_frac", it->batch_size > 1 ? 1.0 : 0.0);
      if (!it->plan_cache_hit) smp.add("stance.build_virtual_s", it->build_seconds);
      // virtual_s is the tenant's bill (a batch splits it); efficiency rates
      // the execution that served the job, before the split.
      const double executed = it->build_seconds + it->loop_seconds;
      run.log.add(host, it->charged_seconds,
                  efficiency(executed, sweep_work(mesh, kIterations), fleet),
                  refs(mesh, kIterations), it->checksum == e.checksum[pd.version]);
    }
  }
  const ServiceStats stats = svc->stats();
  const auto asked = static_cast<double>(stats.submitted + stats.rejected);
  smp.add("stance.evictions",
          static_cast<double>(stats.plan_cache.evictions) / std::max(1.0, asked));
  smp.add("stance.rejected_frac", static_cast<double>(stats.rejected) / std::max(1.0, asked));
  return run;
}

// ---------------------------------------------------------------------------
// recovery_kill: one rank dies inside a checkpoint interval of every job;
// the survivors detect, agree, shrink, rebuild, restore and finish. One op =
// one run_resilient job.

WorkloadRun recovery_kill(const Options& opt, Tracer& tr, Samples& smp) {
  constexpr int kIterations = 60;
  constexpr int kCheckpointEvery = 8;
  const auto machine = sim::MachineSpec::sun4_ethernet(kRanks);
  const graph::Csr raw = graph::paper_mesh();

  graph::Csr mesh;
  const double setup_s = time_setup(tr, opt.setup_reps(3), [&] {
    std::vector<graph::Vertex> perm;
    {
      Scope s(tr, kClient, "order.compute");
      perm = order::compute(raw, order::Method::kSpectral);
    }
    mesh = raw.permuted(perm);
  });

  ResilientOptions ro;
  ro.iterations = kIterations;
  ro.checkpoint_every = kCheckpointEvery;
  ro.detect_cost_seconds = 0.01;  // a 10 ms failure-detector deadline
  ro.transport = mp::TransportKind::kVirtual;
  ro.cpu = sim::CpuCostModel::sun4();
  ro.loop = exec::LoopCostModel::sun4();

  // Kill points are counted in the victim's sends: one per peer per sweep.
  const auto part = partition::IntervalPartition::from_weights(mesh.num_vertices(), speeds(machine));
  std::array<std::int64_t, kRanks> sends_per_sweep{};
  for (int v = 1; v < kRanks; ++v) {
    sends_per_sweep[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(
        sched::inspect_fused(mesh, part, v).sched.send_procs.size());
  }

  // Oracle arm per (victim, restored checkpoint): a failure-free run on the
  // survivors from the checkpoint's state (the sequential loop's state after
  // that many sweeps — the loop is bit-compatible with it).
  std::map<std::pair<int, int>, std::vector<double>> expected;
  auto state = initial_values(mesh.num_vertices());
  for (int resume = 0; resume < kIterations; resume += kCheckpointEvery) {
    for (int victim = 1; victim < kRanks; ++victim) {
      std::vector<int> survivors;
      for (int r = 0; r < kRanks; ++r) {
        if (r != victim) survivors.push_back(r);
      }
      expected[{victim, resume}] = run_reference_from(mesh, machine.subset(survivors), state,
                                                      kIterations - resume, ro);
    }
    exec::IrregularLoop::reference_iterate(mesh, state, kCheckpointEvery);
  }

  // Victim x checkpoint interval x the sweep inside the interval the kill
  // lands in (never on a checkpoint), dealt in a shuffled order. The fixed
  // prefix (1,020 ops) spans almost seven whole decks of 147 cards, so
  // virtual_s hardly depends on the seed.
  Rng rng(sub_seed(opt.seed, 5));
  std::vector<int> cards;
  for (int victim = 1; victim < kRanks; ++victim) {
    for (int interval = 0; interval < kIterations / kCheckpointEvery; ++interval) {
      for (int offset = 1; offset < kCheckpointEvery; ++offset) {
        cards.push_back(victim * 1000 + interval * kCheckpointEvery + offset);
      }
    }
  }
  Deck deck(cards, rng);

  const double work = sweep_work(mesh, kIterations);
  const double op_refs = refs(mesh, kIterations);
  WorkloadRun run{OpLog(opt, 1000), setup_s,
                  {{"vertices", static_cast<double>(mesh.num_vertices())},
                   {"edges", static_cast<double>(mesh.num_edges())},
                   {"sweeps_per_op", kIterations}}};
  while (!run.log.done()) {
    const int card = deck.draw();
    const int victim = card / 1000;
    const std::int64_t sweep = card % 1000;
    ro.faults.kills = {mp::KillRule{
        .rank = victim,
        .after_sends = sweep * sends_per_sweep[static_cast<std::size_t>(victim)]}};
    try {
      const auto t0 = HostClock::now();
      ResilientResult res;
      {
        Scope s(tr, kClient, "recovery.run_resilient");
        res = run_resilient(mesh, machine, ro);
      }
      const double host = seconds_since(t0);
      const auto it = expected.find({victim, res.resume_iteration});
      const bool ok = res.dead == std::vector<mp::Rank>{victim} && it != expected.end() &&
                      res.y == it->second;
      smp.add("recovery.detect_virtual_s", res.costs.detect_virtual_seconds);
      smp.add("recovery.agree_virtual_s", res.costs.agree_virtual_seconds);
      smp.add("recovery.rebuild_virtual_s", res.costs.rebuild_virtual_seconds);
      smp.add("recovery.restore_virtual_s", res.costs.restore_virtual_seconds);
      smp.add("recovery.checkpoint_virtual_s", res.costs.checkpoint_virtual_seconds);
      smp.add("recovery.resume_iteration", res.resume_iteration);
      run.log.add(host, res.loop_virtual_seconds,
                  efficiency(res.loop_virtual_seconds, work, machine), op_refs, ok);
    } catch (const std::exception& e) {
      report_failure("recovery_kill", e);
      run.log.add_failure();
    }
  }
  return run;
}

}  // namespace

const std::vector<std::pair<std::string, WorkloadFn>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> kAll = {
      {"static_paper", static_paper},
      {"adaptive_amr_tcp", adaptive_amr_tcp},
      {"service_mix", service_mix},
      {"recovery_kill", recovery_kill},
  };
  return kAll;
}

std::vector<Metric> per_layer_metrics(const Tracer& tr, const Samples& s) {
  const auto ms = [](const std::vector<double>& us) { return mean(us) * 1e-3; };
  const auto host = [&](const char* name) { return tr.per_call_max(name, false); };
  const auto virt = [&](const char* name) { return mean(tr.per_call_max(name, true)); };
  const auto avg = [&](const char* name) { return mean(s.get(name)); };
  const auto sum = [&](const char* name) {
    double t = 0.0;
    for (const double v : s.get(name)) t += v;
    return t;
  };
  const auto sweeps = host("exec.sweep");
  std::vector<Metric> out = {
      {"order.compute_ms", ms(tr.client_us("order.compute")), "ms"},
      {"partition.from_weights_us", mean(tr.client_us("partition.from_weights")), "us"},
      {"partition.moved_frac", avg("partition.moved_frac"), "ratio"},
      {"sched.build_schedule_ms", ms(host("sched.build_schedule")), "ms"},
      {"sched.build_schedule_virtual_s", virt("sched.build_schedule"), "s"},
      {"exec.sweep_us.p50", percentile(sweeps, 0.50), "us"},
      {"exec.sweep_us.p99", percentile(sweeps, 0.99), "us"},
      {"exec.sweep_virtual_s", virt("exec.sweep"), "s"},
      {"mp.run_overhead_us", mean(tr.run_overhead_us()), "us"},
      {"mp.cluster_ctor_ms", ms(tr.client_us("mp.cluster_ctor")), "ms"},
      {"mp.msgs_per_sweep", avg("mp.msgs_per_sweep"), "count"},
      {"mp.bytes_per_sweep", avg("mp.bytes_per_sweep"), "B"},
      {"mp.inter_node_msgs_per_sweep", avg("mp.inter_node_msgs_per_sweep"), "count"},
      {"mp.frames_per_sweep", avg("mp.frames_per_sweep"), "count"},
      {"mp.comm_frac_virtual", avg("mp.comm_frac_virtual"), "ratio"},
      {"lb.executor_ctor_ms", ms(host("lb.executor_ctor")), "ms"},
      {"lb.chunk_ms", ms(host("lb.run_chunk")), "ms"},
      {"lb.check_ms", ms(host("lb.check")), "ms"},
      {"lb.mesh_delta_ms", ms(host("lb.apply_mesh_delta")), "ms"},
      {"lb.remap_ms", ms(host("lb.remap")), "ms"},
      {"lb.checks", avg("lb.checks"), "1/job"},
      {"lb.remaps", avg("lb.remaps"), "1/job"},
      {"lb.rotations", avg("lb.rotations"), "1/job"},
      {"lb.replans", avg("lb.replans"), "1/job"},
      {"lb.remap_frac", sum("lb.checks") > 0.0 ? sum("lb.remaps") / sum("lb.checks") : 0.0,
       "ratio"},
      {"lb.check_virtual_s", avg("lb.check_virtual_s"), "s"},
      {"lb.remap_virtual_s", avg("lb.remap_virtual_s"), "s"},
      {"lb.retune_virtual_s", avg("lb.retune_virtual_s"), "s"},
      {"stance.submit_us", mean(tr.client_us("stance.submit")), "us"},
      {"stance.hit_op_ms.p50", percentile(s.get("stance.hit_op_ms"), 0.50), "ms"},
      {"stance.miss_op_ms.p50", percentile(s.get("stance.miss_op_ms"), 0.50), "ms"},
      {"stance.patch_ms", ms(tr.client_us("stance.patch_plan")), "ms"},
      {"stance.cache_hit_frac", avg("stance.cache_hit_frac"), "ratio"},
      {"stance.evictions", avg("stance.evictions"), "1/job"},
      {"stance.batched_frac", avg("stance.batched_frac"), "ratio"},
      {"stance.rejected_frac", avg("stance.rejected_frac"), "ratio"},
      {"stance.build_virtual_s", avg("stance.build_virtual_s"), "s"},
  };
  for (const char* cost : {"detect", "agree", "rebuild", "restore", "checkpoint"}) {
    const std::string name = std::string("recovery.") + cost + "_virtual_s";
    const auto& v = s.get(name);
    out.push_back({name + ".p50", median(v), "s"});
    out.push_back({name + ".max", v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()), "s"});
  }
  out.push_back({"recovery.resume_iteration", avg("recovery.resume_iteration"), "count"});
  return out;
}

}  // namespace e2e
