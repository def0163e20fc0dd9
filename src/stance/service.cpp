#include "stance/service.hpp"

#include <utility>

#include "sched/incremental.hpp"
#include "support/assert.hpp"

namespace stance {

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kSaturated: return "saturated";
    case RejectReason::kInvalidSpec: return "invalid-spec";
  }
  return "unknown";
}

Service::Service(sim::MachineSpec fleet, ServiceOptions opts, mp::NodeMap node_map,
                 mp::TransportKind transport)
    : opts_(std::move(opts)),
      fleet_(std::move(fleet)),
      cluster_(std::make_unique<mp::Cluster>(fleet_, std::move(node_map), transport)),
      cache_(opts_.plan_cache_capacity) {
  STANCE_REQUIRE(opts_.max_in_flight >= 1, "service: max_in_flight must be at least 1");
}

std::vector<double> Service::effective_weights(const JobSpec& spec) const {
  if (!spec.weights.empty()) return spec.weights;
  std::vector<double> w;
  w.reserve(fleet_.size());
  for (const auto& node : fleet_.nodes) w.push_back(node.speed);
  return w;
}

PlanKey Service::make_key(const JobSpec& spec, std::uint64_t mesh_fp,
                          const partition::IntervalPartition& part) const {
  PlanKey key;
  key.mesh_fingerprint = mesh_fp;
  key.partition_fingerprint = part.fingerprint();
  // Delegate rotation bumps the map generation; keying on it makes a
  // pre-rotation plan unreachable instead of silently stale. With coalescing
  // off the plans carry no routing, so the generation is irrelevant.
  key.map_generation = opts_.coalesce ? cluster_->node_map().generation() : 0;
  key.seed = spec.config.seed;
  key.ordering = static_cast<std::uint8_t>(spec.config.ordering);
  key.build = static_cast<std::uint8_t>(spec.config.build);
  key.coalesce =
      opts_.coalesce ? 1 + static_cast<std::uint8_t>(opts_.coalesce_opts.policy) : 0;
  key.bytes_per_elem = opts_.coalesce ? opts_.coalesce_opts.bytes_per_elem : 0.0;
  return key;
}

Admission Service::submit(JobSpec spec) {
  const auto reject = [&](RejectReason reason, std::string detail) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++rejected_;
    }
    return Admission{.accepted = false, .job = 0, .reason = reason,
                     .detail = std::move(detail)};
  };

  if (spec.mesh == nullptr) {
    return reject(RejectReason::kInvalidSpec, "job has no mesh");
  }
  if (spec.iterations <= 0) {
    return reject(RejectReason::kInvalidSpec, "iteration budget must be positive");
  }
  if (spec.mesh->num_vertices() < nprocs()) {
    return reject(RejectReason::kInvalidSpec,
                  "mesh has fewer vertices than the fleet has ranks");
  }
  if (!spec.weights.empty()) {
    if (spec.weights.size() != static_cast<std::size_t>(nprocs())) {
      return reject(RejectReason::kInvalidSpec, "need one partition weight per rank");
    }
    for (const double w : spec.weights) {
      if (!(w > 0.0)) {
        return reject(RejectReason::kInvalidSpec, "partition weights must be positive");
      }
    }
  }

  // Outside the lock: a mesh's first fingerprint() hashes it, O(edges); every
  // later submit of the same mesh reads the memo. The digest also powers the
  // batch check and the cache key later.
  const std::uint64_t mesh_fp = spec.mesh->fingerprint();

  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.size() >= opts_.max_in_flight) {
    ++rejected_;
    return Admission{.accepted = false,
                     .job = 0,
                     .reason = RejectReason::kSaturated,
                     .detail = std::to_string(queue_.size()) +
                               " jobs in flight (max_in_flight=" +
                               std::to_string(opts_.max_in_flight) +
                               "); drain() and retry"};
  }
  const std::uint64_t id = next_job_++;
  ++submitted_;
  queue_.push_back(Job{.id = id, .spec = std::move(spec), .mesh_fingerprint = mesh_fp});
  return Admission{.accepted = true, .job = id, .reason = RejectReason::kNone,
                   .detail = ""};
}

bool Service::same_execution(const Job& a, const Job& b) const {
  return a.mesh_fingerprint == b.mesh_fingerprint &&
         a.spec.config.ordering == b.spec.config.ordering &&
         a.spec.config.build == b.spec.config.build &&
         a.spec.config.seed == b.spec.config.seed &&
         a.spec.config.cpu == b.spec.config.cpu &&
         a.spec.config.loop == b.spec.config.loop &&
         a.spec.iterations == b.spec.iterations && a.spec.weights == b.spec.weights;
}

std::shared_ptr<const CachedPlan> Service::build_cold(
    const JobSpec& spec, const partition::IntervalPartition& part) {
  // Phase A: order the mesh. Warm jobs never get here — the cache key names
  // the ordering inputs, so the permutation is part of the cached product.
  const auto perm = order::compute(*spec.mesh, spec.config.ordering, spec.config.seed);
  const graph::Csr ordered = spec.mesh->permuted(perm);

  auto plan = std::make_shared<CachedPlan>();
  const auto n = static_cast<std::size_t>(nprocs());
  plan->per_rank.resize(n);
  if (opts_.coalesce) plan->coalesce.resize(n);
  cluster_->reset_clocks();
  cluster_->run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    plan->per_rank[r] =
        sched::build_schedule(p, ordered, part, spec.config.build, spec.config.cpu);
    if (opts_.coalesce) {
      plan->coalesce[r] = sched::coalesce(p, plan->per_rank[r].schedule,
                                          spec.config.cpu, opts_.coalesce_opts);
    }
  });
  plan->cold_build_seconds = cluster_->makespan();
  return plan;
}

void Service::execute(std::vector<Job>& batch, std::unique_lock<std::mutex>& lock,
                      std::vector<JobResult>& out) {
  const JobSpec& spec = batch.front().spec;
  lock.unlock();
  const auto weights = effective_weights(spec);
  const auto part =
      partition::IntervalPartition::from_weights(spec.mesh->num_vertices(), weights);

  lock.lock();
  const PlanKey key = make_key(spec, batch.front().mesh_fingerprint, part);
  std::shared_ptr<const CachedPlan> plan = cache_.lookup(key);
  const bool hit = plan != nullptr;
  lock.unlock();

  if (!hit) {
    auto built = build_cold(spec, part);
    lock.lock();
    cache_.insert(key, built);
    lock.unlock();
    plan = std::move(built);
  }

  // Reinstall check: a cached coalesce plan must still route for the current
  // schedule and delegate assignment. The key's map_generation makes a stale
  // entry unreachable, so this can only fire on a cache-keying bug.
  for (std::size_t r = 0; r < plan->coalesce.size(); ++r) {
    STANCE_ASSERT_MSG(
        plan->coalesce[r].matches(plan->per_rank[r].schedule, cluster_->node_map()),
        "service: cached coalesce plan is stale for the current node map");
  }

  // Phase C on fresh clocks — the loop phase is what every job in the batch
  // shares; the virtual makespan is the execution's price.
  const auto n = static_cast<std::size_t>(nprocs());
  std::vector<double> checksums(n, 0.0);
  cluster_->reset_clocks();
  cluster_->run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const auto& ir = plan->per_rank[r];
    exec::IrregularLoop loop(ir.lgraph, ir.schedule, spec.config.loop, spec.config.cpu);
    if (!plan->coalesce.empty()) loop.set_coalesce_plan(&plan->coalesce[r]);
    std::vector<double> y(static_cast<std::size_t>(part.size(p.rank())));
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = Session::initial_value(
          part.to_global(p.rank(), static_cast<graph::Vertex>(i)));
    }
    loop.iterate(p, y, spec.iterations);
    double sum = 0.0;
    for (const double v : y) sum += v;
    checksums[r] = sum;
  });
  const double loop_seconds = cluster_->makespan();
  const mp::CommStats loop_stats = cluster_->total_stats();
  double checksum = 0.0;
  for (const double c : checksums) checksum += c;

  const double build_seconds = hit ? 0.0 : plan->cold_build_seconds;
  const double charged_each =
      (build_seconds + loop_seconds) / static_cast<double>(batch.size());

  lock.lock();  // stays held on return, for the drain loop
  ++executions_;
  if (batch.size() > 1) batched_jobs_ += batch.size();
  for (const Job& job : batch) {
    out.push_back(JobResult{.job = job.id,
                            .tenant = job.spec.tenant,
                            .plan_cache_hit = hit,
                            .batch_size = static_cast<int>(batch.size()),
                            .build_seconds = build_seconds,
                            .loop_seconds = loop_seconds,
                            .charged_seconds = charged_each,
                            .checksum = checksum,
                            .loop_stats = loop_stats});
    ++completed_;
    TenantStats& t = tenants_[job.spec.tenant];
    ++t.jobs;
    if (hit) ++t.cache_hits;
    t.charged_seconds += charged_each;
    t.comm += loop_stats;
  }
}

std::vector<JobResult> Service::drain() {
  std::vector<JobResult> out;
  std::unique_lock<std::mutex> lock(mutex_);
  STANCE_REQUIRE(!draining_, "drain: already in progress on another thread");
  draining_ = true;
  try {
    while (!queue_.empty()) {
      std::vector<Job> batch;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      while (opts_.batching && !queue_.empty() &&
             same_execution(batch.front(), queue_.front())) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      execute(batch, lock, out);
    }
  } catch (...) {
    draining_ = false;
    throw;
  }
  draining_ = false;
  return out;
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s;
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.executions = executions_;
  s.batched_jobs = batched_jobs_;
  s.queued = queue_.size();
  s.plan_cache = cache_.stats();
  s.tenants = tenants_;
  return s;
}

PlanKey Service::plan_key_for(const JobSpec& spec) const {
  STANCE_REQUIRE(spec.mesh != nullptr, "plan_key_for: job has no mesh");
  const auto weights = effective_weights(spec);
  const auto part =
      partition::IntervalPartition::from_weights(spec.mesh->num_vertices(), weights);
  return make_key(spec, spec.mesh->fingerprint(), part);
}

std::shared_ptr<const CachedPlan> Service::cached_plan_for(const JobSpec& spec) const {
  const PlanKey key = plan_key_for(spec);
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.peek(key);
}

bool Service::patch_plan(const JobSpec& old_spec, const graph::CsrDelta& delta,
                         std::shared_ptr<const graph::Csr> new_mesh) {
  STANCE_REQUIRE(old_spec.mesh != nullptr, "patch_plan: job has no mesh");
  STANCE_REQUIRE(new_mesh != nullptr, "patch_plan: no edited mesh");
  STANCE_REQUIRE(old_spec.config.ordering == order::Method::kIdentity,
                 "patch_plan: only identity-ordered plans can be patched — the "
                 "delta is expressed in the unordered mesh's numbering");
  STANCE_REQUIRE(new_mesh->num_vertices() == old_spec.mesh->num_vertices(),
                 "patch_plan: the delta pipeline preserves the vertex count");
  const std::uint64_t old_fp = old_spec.mesh->fingerprint();
  const std::uint64_t new_fp = new_mesh->fingerprint();
  // The chain rule (graph/delta.hpp): an unstamped side is trusted, a stamped
  // one must connect exactly this mesh to exactly that one.
  STANCE_REQUIRE(delta.base_fingerprint == 0 || delta.base_fingerprint == old_fp,
                 "patch_plan: delta was not taken from the job's mesh");
  STANCE_REQUIRE(delta.result_fingerprint == 0 || delta.result_fingerprint == new_fp,
                 "patch_plan: delta does not produce the given mesh");

  const auto weights = effective_weights(old_spec);
  const auto part = partition::IntervalPartition::from_weights(
      old_spec.mesh->num_vertices(), weights);
  const PlanKey key_old = make_key(old_spec, old_fp, part);
  PlanKey key_new = key_old;
  key_new.mesh_fingerprint = new_fp;

  std::unique_lock<std::mutex> lock(mutex_);
  STANCE_REQUIRE(!draining_, "patch_plan: a drain is in progress on another thread");
  std::shared_ptr<const CachedPlan> old_plan = cache_.peek(key_old);
  if (old_plan == nullptr) return false;
  draining_ = true;  // claim the cluster, single-flight like drain()
  lock.unlock();

  const auto rd = partition::RemapDelta::graph_edit(part, delta);
  auto patched = std::make_shared<CachedPlan>();
  const auto n = static_cast<std::size_t>(nprocs());
  patched->per_rank.resize(n);
  if (!old_plan->coalesce.empty()) patched->coalesce.resize(n);
  cluster_->reset_clocks();
  try {
    cluster_->run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      patched->per_rank[r] = sched::rebuild_incremental(
          p, *new_mesh, rd, old_plan->per_rank[r], old_spec.config.cpu);
      if (!old_plan->coalesce.empty()) {
        patched->coalesce[r] = sched::patch_coalesce(
            p, old_plan->coalesce[r], old_plan->per_rank[r].schedule,
            patched->per_rank[r].schedule, old_spec.config.cpu, opts_.coalesce_opts);
      }
    });
  } catch (...) {
    std::lock_guard<std::mutex> relock(mutex_);
    draining_ = false;
    throw;
  }
  // The splice is the entry's new build cost: a warm miss on the edited mesh
  // would have paid a cold build, the patch paid this instead.
  patched->cold_build_seconds = cluster_->makespan();

  lock.lock();
  draining_ = false;
  return cache_.patch(key_old, key_new, std::move(patched));
}

}  // namespace stance
