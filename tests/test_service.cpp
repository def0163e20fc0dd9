// Serving-layer tests (stance/service.hpp): admission control, the plan
// cache's byte-identity oracle (a warm job's schedule/plan must equal a cold
// build member-for-member), staleness (evicted / rotated / remapped entries
// miss), batching, per-tenant accounting, and a concurrent-submit stress
// run (the TSan matrix executes this suite on every transport).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stance/stance.hpp"

namespace stance {
namespace {

std::shared_ptr<const graph::Csr> shared_mesh(int vertices = 900, unsigned seed = 33) {
  return std::make_shared<graph::Csr>(
      graph::random_delaunay(vertices, seed));
}

SessionConfig job_config() {
  SessionConfig cfg;
  cfg.ordering = order::Method::kHilbert;  // fast; spectral tested elsewhere
  cfg.build = sched::BuildMethod::kSort2;
  return cfg;  // cfg.machine is ignored by the service (it owns the fleet)
}

JobSpec job_for(std::shared_ptr<const graph::Csr> mesh, std::string tenant = "a",
                int iterations = 3) {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.mesh = std::move(mesh);
  spec.config = job_config();
  spec.iterations = iterations;
  return spec;
}

// --- admission ---------------------------------------------------------------

TEST(ServiceAdmission, RejectsWithReasonWhenSaturated) {
  ServiceOptions opts;
  opts.max_in_flight = 2;
  Service svc(sim::MachineSpec::sun4_ethernet(3), opts);
  const auto mesh = shared_mesh();

  EXPECT_TRUE(svc.submit(job_for(mesh)).accepted);
  EXPECT_TRUE(svc.submit(job_for(mesh)).accepted);
  const Admission third = svc.submit(job_for(mesh));
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(third.reason, RejectReason::kSaturated);
  EXPECT_NE(third.detail.find("max_in_flight"), std::string::npos);

  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.queued, 2u);

  // Draining frees capacity; the same spec is admitted again.
  EXPECT_EQ(svc.drain().size(), 2u);
  EXPECT_TRUE(svc.submit(job_for(mesh)).accepted);
}

TEST(ServiceAdmission, RejectsInvalidSpecs) {
  Service svc(sim::MachineSpec::sun4_ethernet(4));
  const auto mesh = shared_mesh();

  JobSpec no_mesh = job_for(mesh);
  no_mesh.mesh = nullptr;
  EXPECT_EQ(svc.submit(std::move(no_mesh)).reason, RejectReason::kInvalidSpec);

  EXPECT_EQ(svc.submit(job_for(mesh, "a", 0)).reason, RejectReason::kInvalidSpec);

  JobSpec short_weights = job_for(mesh);
  short_weights.weights = {1.0, 1.0};  // fleet has 4 ranks
  EXPECT_EQ(svc.submit(std::move(short_weights)).reason, RejectReason::kInvalidSpec);

  JobSpec bad_weight = job_for(mesh);
  bad_weight.weights = {1.0, 1.0, -1.0, 1.0};
  EXPECT_EQ(svc.submit(std::move(bad_weight)).reason, RejectReason::kInvalidSpec);

  EXPECT_EQ(svc.submit(job_for(shared_mesh(3, 1))).reason, RejectReason::kInvalidSpec);

  EXPECT_EQ(svc.stats().rejected, 5u);
  EXPECT_EQ(svc.stats().submitted, 0u);
  EXPECT_EQ(reject_reason_name(RejectReason::kInvalidSpec),
            std::string("invalid-spec"));
}

// --- plan cache: warm == cold ------------------------------------------------

TEST(ServiceCache, WarmJobSkipsInspectorAndMatchesColdRun) {
  ServiceOptions opts;
  opts.batching = false;
  Service svc(sim::MachineSpec::sun4_ethernet(4), opts);
  const auto mesh = shared_mesh();

  ASSERT_TRUE(svc.submit(job_for(mesh)).accepted);
  const auto cold = svc.drain();
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_FALSE(cold[0].plan_cache_hit);
  EXPECT_GT(cold[0].build_seconds, 0.0);

  ASSERT_TRUE(svc.submit(job_for(mesh)).accepted);
  const auto warm = svc.drain();
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_TRUE(warm[0].plan_cache_hit);
  // Warm jobs pay no Phase B at all — the latency win the bench gates.
  EXPECT_DOUBLE_EQ(warm[0].build_seconds, 0.0);
  // Identical cached artifacts drive an identical loop phase: same virtual
  // makespan, same arithmetic, bit-equal checksum.
  EXPECT_DOUBLE_EQ(warm[0].loop_seconds, cold[0].loop_seconds);
  EXPECT_DOUBLE_EQ(warm[0].checksum, cold[0].checksum);
  EXPECT_LT(warm[0].charged_seconds, cold[0].charged_seconds);

  const auto s = svc.stats();
  EXPECT_EQ(s.plan_cache.hits, 1u);
  EXPECT_EQ(s.plan_cache.misses, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(ServiceCache, CachedPlanByteIdenticalToIndependentColdBuild) {
  // Oracle: rebuild Phase B by hand on a fresh cluster (same fleet, same
  // node map, same inputs) and compare the cached artifacts member-for-
  // member — schedule, localized graph, AND coalesce plan, stamps included.
  const auto fleet = sim::MachineSpec::sun4_ethernet(4);
  ServiceOptions opts;
  opts.coalesce = true;  // exercise the full cached product
  Service svc(fleet, opts, mp::NodeMap::contiguous(4, 2));
  const auto mesh = shared_mesh();
  const JobSpec spec = job_for(mesh);

  ASSERT_TRUE(svc.submit(job_for(mesh)).accepted);
  ASSERT_EQ(svc.drain().size(), 1u);
  const auto cached = svc.cached_plan_for(spec);
  ASSERT_NE(cached, nullptr);
  ASSERT_EQ(cached->per_rank.size(), 4u);
  ASSERT_EQ(cached->coalesce.size(), 4u);

  // Independent cold build, no service involved.
  const auto perm = order::compute(*mesh, spec.config.ordering, spec.config.seed);
  const graph::Csr ordered = mesh->permuted(perm);
  std::vector<double> weights;
  for (const auto& node : fleet.nodes) weights.push_back(node.speed);
  const auto part =
      partition::IntervalPartition::from_weights(ordered.num_vertices(), weights);
  mp::Cluster cluster(fleet, mp::NodeMap::contiguous(4, 2));
  std::vector<sched::InspectorResult> ref(4);
  std::vector<sched::CoalescePlan> ref_plans(4);
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    ref[r] = sched::build_schedule(p, ordered, part, spec.config.build, spec.config.cpu);
    ref_plans[r] = sched::coalesce(p, ref[r].schedule, spec.config.cpu,
                                   ServiceOptions{}.coalesce_opts);
  });

  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(cached->per_rank[r].schedule, ref[r].schedule) << "rank " << r;
    EXPECT_EQ(cached->per_rank[r].lgraph, ref[r].lgraph) << "rank " << r;
    EXPECT_EQ(cached->coalesce[r], ref_plans[r]) << "rank " << r;
  }
}

TEST(ServiceCache, MatchesSessionResultsExactly) {
  // The service is a serving wrapper, not a different runtime: one job must
  // reproduce Session::run_static bit-for-bit (checksum) and tick-for-tick
  // (virtual seconds).
  const auto fleet = sim::MachineSpec::sun4_ethernet(4);
  Service svc(fleet);
  const auto mesh = shared_mesh();
  ASSERT_TRUE(svc.submit(job_for(mesh, "a", 5)).accepted);
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 1u);

  SessionConfig cfg = job_config();
  cfg.machine = fleet;
  Session session(*mesh, cfg);
  const auto reference = session.run_static(5);

  EXPECT_DOUBLE_EQ(results[0].checksum, reference.checksum);
  EXPECT_DOUBLE_EQ(results[0].loop_seconds, reference.loop_seconds);
  EXPECT_DOUBLE_EQ(results[0].build_seconds, reference.build_seconds);
}

// --- staleness ---------------------------------------------------------------

TEST(ServiceStaleness, EvictedEntryMissesAndRebuilds) {
  ServiceOptions opts;
  opts.plan_cache_capacity = 1;
  opts.batching = false;
  Service svc(sim::MachineSpec::sun4_ethernet(3), opts);
  const auto mesh_a = shared_mesh(700, 1);
  const auto mesh_b = shared_mesh(740, 2);

  ASSERT_TRUE(svc.submit(job_for(mesh_a)).accepted);
  ASSERT_TRUE(svc.submit(job_for(mesh_b)).accepted);  // evicts mesh_a's plan
  svc.drain();
  EXPECT_EQ(svc.cached_plan_for(job_for(mesh_a)), nullptr);
  EXPECT_NE(svc.cached_plan_for(job_for(mesh_b)), nullptr);
  EXPECT_EQ(svc.stats().plan_cache.evictions, 1u);

  ASSERT_TRUE(svc.submit(job_for(mesh_a)).accepted);
  const auto again = svc.drain();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_FALSE(again[0].plan_cache_hit);  // cold rebuild, not a stale reuse
  EXPECT_GT(again[0].build_seconds, 0.0);
}

TEST(ServiceStaleness, DelegateRotationInvalidatesCoalescedPlans) {
  // A rotated delegate bumps NodeMap::generation(); the key carries it, so
  // the pre-rotation plan (whose frames route through the old delegate) is
  // unreachable — the remedy for the classic stale-routing bug.
  ServiceOptions opts;
  opts.coalesce = true;
  Service svc(sim::MachineSpec::sun4_ethernet(4), opts, mp::NodeMap::contiguous(4, 2));
  const auto mesh = shared_mesh();
  const JobSpec spec = job_for(mesh);

  ASSERT_TRUE(svc.submit(job_for(mesh)).accepted);
  svc.drain();
  ASSERT_NE(svc.cached_plan_for(spec), nullptr);
  const PlanKey before = svc.plan_key_for(spec);

  const std::vector<mp::Rank> rotated{1, 3};  // nodes {0,1},{2,3}: non-default
  svc.cluster().set_delegates(rotated);

  EXPECT_NE(svc.plan_key_for(spec).map_generation, before.map_generation);
  EXPECT_EQ(svc.cached_plan_for(spec), nullptr);  // old entry unreachable

  ASSERT_TRUE(svc.submit(job_for(mesh)).accepted);
  const auto rebuilt = svc.drain();
  ASSERT_EQ(rebuilt.size(), 1u);
  EXPECT_FALSE(rebuilt[0].plan_cache_hit);
  // The rebuilt plan routes through the rotated delegates and carries the
  // new generation stamp.
  const auto plan = svc.cached_plan_for(spec);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->coalesce[0].my_delegate, 1);
  EXPECT_EQ(plan->coalesce[2].my_delegate, 3);
  EXPECT_EQ(plan->coalesce[0].map_generation, svc.cluster().node_map().generation());
}

TEST(ServiceStaleness, RemappedPartitionMisses) {
  ServiceOptions opts;
  opts.batching = false;
  Service svc(sim::MachineSpec::sun4_ethernet(3), opts);
  const auto mesh = shared_mesh();

  ASSERT_TRUE(svc.submit(job_for(mesh)).accepted);
  svc.drain();
  ASSERT_NE(svc.cached_plan_for(job_for(mesh)), nullptr);

  // Same mesh, different decomposition: the partition fingerprint differs,
  // so the cached schedules (built for other intervals) cannot be reused.
  JobSpec remapped = job_for(mesh);
  remapped.weights = {2.0, 1.0, 1.0};
  EXPECT_NE(svc.plan_key_for(remapped).partition_fingerprint,
            svc.plan_key_for(job_for(mesh)).partition_fingerprint);
  EXPECT_EQ(svc.cached_plan_for(remapped), nullptr);

  JobSpec remapped2 = remapped;
  ASSERT_TRUE(svc.submit(std::move(remapped2)).accepted);
  const auto r = svc.drain();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_FALSE(r[0].plan_cache_hit);
  // Both decompositions now coexist in the cache.
  EXPECT_NE(svc.cached_plan_for(job_for(mesh)), nullptr);
  EXPECT_NE(svc.cached_plan_for(remapped), nullptr);
}

// --- batching & accounting ---------------------------------------------------

TEST(ServiceBatching, IdenticalBackToBackJobsShareOneExecution) {
  Service svc(sim::MachineSpec::sun4_ethernet(3));
  const auto mesh = shared_mesh();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.submit(job_for(mesh, i % 2 == 0 ? "alice" : "bob")).accepted);
  }
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 4u);

  const auto s = svc.stats();
  EXPECT_EQ(s.executions, 1u);  // one Phase B + C for all four
  EXPECT_EQ(s.batched_jobs, 4u);
  double total_charged = 0.0;
  for (const auto& r : results) {
    EXPECT_EQ(r.batch_size, 4);
    EXPECT_DOUBLE_EQ(r.charged_seconds,
                     (r.build_seconds + r.loop_seconds) / 4.0);
    total_charged += r.charged_seconds;
  }
  // The bill is conserved: amortized charges sum to the execution's cost.
  EXPECT_NEAR(total_charged, results[0].build_seconds + results[0].loop_seconds,
              1e-12);
  // Tenants split the bill evenly (two jobs each).
  ASSERT_EQ(s.tenants.count("alice"), 1u);
  ASSERT_EQ(s.tenants.count("bob"), 1u);
  EXPECT_DOUBLE_EQ(s.tenants.at("alice").charged_seconds,
                   s.tenants.at("bob").charged_seconds);
  EXPECT_EQ(s.tenants.at("alice").jobs, 2u);
}

TEST(ServiceBatching, DifferentSpecsBreakTheBatch) {
  Service svc(sim::MachineSpec::sun4_ethernet(3));
  const auto mesh = shared_mesh();
  ASSERT_TRUE(svc.submit(job_for(mesh, "a", 3)).accepted);
  ASSERT_TRUE(svc.submit(job_for(mesh, "a", 4)).accepted);  // different budget
  ASSERT_TRUE(svc.submit(job_for(mesh, "a", 4)).accepted);
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(svc.stats().executions, 2u);
  EXPECT_EQ(results[0].batch_size, 1);
  EXPECT_EQ(results[1].batch_size, 2);
}

TEST(ServiceBatching, DisabledBatchingExecutesEachJob) {
  ServiceOptions opts;
  opts.batching = false;
  Service svc(sim::MachineSpec::sun4_ethernet(3), opts);
  const auto mesh = shared_mesh();
  ASSERT_TRUE(svc.submit(job_for(mesh)).accepted);
  ASSERT_TRUE(svc.submit(job_for(mesh)).accepted);
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(svc.stats().executions, 2u);
  EXPECT_EQ(results[1].batch_size, 1);
  EXPECT_TRUE(results[1].plan_cache_hit);  // batching off, caching still on
}

TEST(ServiceAccounting, TenantsAreChargedTheFleetMakespanTheyUsed) {
  ServiceOptions opts;
  opts.batching = false;
  Service svc(sim::MachineSpec::sun4_ethernet(3), opts);
  const auto mesh_a = shared_mesh(700, 1);
  const auto mesh_b = shared_mesh(740, 2);
  ASSERT_TRUE(svc.submit(job_for(mesh_a, "alice")).accepted);
  ASSERT_TRUE(svc.submit(job_for(mesh_b, "bob")).accepted);
  ASSERT_TRUE(svc.submit(job_for(mesh_a, "alice")).accepted);  // warm
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 3u);

  double expected_total = 0.0;
  for (const auto& r : results) {
    expected_total += r.charged_seconds;
    EXPECT_GT(r.loop_stats.messages_sent, 0u);  // comm stats ride along
  }
  const auto s = svc.stats();
  ASSERT_EQ(s.tenants.size(), 2u);
  const auto& alice = s.tenants.at("alice");
  const auto& bob = s.tenants.at("bob");
  EXPECT_EQ(alice.jobs, 2u);
  EXPECT_EQ(alice.cache_hits, 1u);
  EXPECT_EQ(bob.jobs, 1u);
  EXPECT_EQ(bob.cache_hits, 0u);
  EXPECT_NEAR(alice.charged_seconds + bob.charged_seconds, expected_total, 1e-12);
  EXPECT_GT(alice.comm.messages_sent, 0u);
}

// --- concurrency -------------------------------------------------------------

TEST(ServiceStress, ConcurrentSubmitWhileDraining) {
  // Submitters race the draining thread; TSan (CI matrix) watches the locks.
  // Small meshes keep the tcp re-run of this suite fast.
  ServiceOptions opts;
  opts.max_in_flight = 1024;
  opts.plan_cache_capacity = 4;
  Service svc(sim::MachineSpec::sun4_ethernet(3), opts);
  const auto mesh_a = shared_mesh(600, 5);
  const auto mesh_b = shared_mesh(640, 6);

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 10;
  std::atomic<int> accepted{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        auto spec = job_for(j % 2 == 0 ? mesh_a : mesh_b,
                            "tenant" + std::to_string(t), 1 + j % 2);
        if (svc.submit(std::move(spec)).accepted) ++accepted;
        (void)svc.stats();  // snapshot readers race the drain too
      }
    });
  }

  std::vector<JobResult> results;
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load()) {
      auto r = svc.drain();
      results.insert(results.end(), r.begin(), r.end());
    }
  });

  for (auto& t : submitters) t.join();
  stop.store(true);
  drainer.join();
  // Pick up anything submitted after the drainer's last sweep.
  auto rest = svc.drain();
  results.insert(results.end(), rest.begin(), rest.end());

  EXPECT_EQ(static_cast<int>(results.size()), accepted.load());
  EXPECT_EQ(svc.stats().completed, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(svc.stats().queued, 0u);

  // Determinism holds under concurrency: every result must reproduce one of
  // the two spec signatures' reference checksums.
  ServiceOptions ref_opts;
  ref_opts.batching = false;
  Service ref(sim::MachineSpec::sun4_ethernet(3), ref_opts);
  ASSERT_TRUE(ref.submit(job_for(mesh_a, "ref", 1)).accepted);
  ASSERT_TRUE(ref.submit(job_for(mesh_b, "ref", 2)).accepted);
  const auto ref_results = ref.drain();
  for (const auto& r : results) {
    if (r.checksum == ref_results[0].checksum || r.checksum == ref_results[1].checksum) {
      continue;
    }
    // Jobs alternate (mesh_a, 1 iter) and (mesh_b, 2 iters); every result
    // must match one of the two reference checksums.
    ADD_FAILURE() << "nondeterministic checksum " << r.checksum;
  }
}

TEST(ServiceStress, ConcurrentDrainIsRejected) {
  Service svc(sim::MachineSpec::sun4_ethernet(3));
  const auto mesh = shared_mesh(600, 5);
  // Enough identical-mesh jobs that the first drain is still busy when the
  // second starts; batching is on, so they may collapse to few executions.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(svc.submit(job_for(mesh, "a", 1 + i % 3)).accepted);
  }
  // Either drain may win the race, so each one catches the single-flight
  // rejection (an exception escaping the thread would abort the process).
  std::atomic<int> rejected{0};
  const auto drain = [&] {
    try {
      (void)svc.drain();
    } catch (const std::invalid_argument&) {
      rejected.fetch_add(1);
    }
  };
  std::atomic<bool> first_started{false};
  std::thread first([&] {
    first_started.store(true);
    drain();
  });
  while (!first_started.load()) std::this_thread::yield();
  drain();
  first.join();
  EXPECT_LE(rejected.load(), 1);  // which one (if any) is timing-dependent
  EXPECT_EQ(svc.stats().queued, 0u);
}

}  // namespace
}  // namespace stance
