// Shrink-to-survivors recovery suite (ISSUE 7): checkpoint commit protocol,
// survivor-map shrinking (delegate re-election) and machine subsetting, and
// the end-to-end kill-and-recover oracle — a run that loses a rank mid-loop
// must produce the byte-identical final answer of a failure-free run on the
// survivor set started from the checkpoint it restored. Registered under
// `ctest -L fault`; the _shm/_tcp variants re-run everything on the real
// backends, where the same byte-identity must hold.
#include <gtest/gtest.h>

#include <vector>

#include "graph/builders.hpp"
#include "mp/fault.hpp"
#include "mp/node_map.hpp"
#include "sim/machine.hpp"
#include "stance/checkpoint.hpp"
#include "stance/recovery.hpp"
#include "stance/session.hpp"
#include "test_util.hpp"

namespace stance {
namespace {

using mp::FaultPlan;
using mp::KillRule;

// --- CheckpointStore ----------------------------------------------------------

TEST(CheckpointStore, CommitsOnlyWhenEveryRankSavedTheIteration) {
  CheckpointStore store(2, 4);
  EXPECT_EQ(store.last_iteration(), -1);
  EXPECT_FALSE(store.last().has_value());

  const std::vector<double> left{1.0, 2.0};
  const std::vector<double> right{3.0, 4.0};
  EXPECT_EQ(store.save(0, 10, 0, left), 2 * sizeof(double));
  EXPECT_EQ(store.last_iteration(), -1);  // rank 1 has not saved yet
  EXPECT_EQ(store.save(1, 10, 2, right), 2 * sizeof(double));
  EXPECT_EQ(store.last_iteration(), 10);
  EXPECT_EQ(store.commits(), 1);
  const auto cp = store.last();
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->iteration, 10);
  EXPECT_EQ(cp->y, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(CheckpointStore, TornSaveNeverCommits) {
  CheckpointStore store(2, 2);
  (void)store.save(0, 5, 0, std::vector<double>{1.0});
  (void)store.save(1, 5, 1, std::vector<double>{2.0});
  ASSERT_EQ(store.last_iteration(), 5);
  // Rank 0 saves iteration 10, then "dies"; rank 1 never reaches it. The
  // committed checkpoint must remain the consistent cut at iteration 5.
  (void)store.save(0, 10, 0, std::vector<double>{9.0});
  EXPECT_EQ(store.last_iteration(), 5);
  EXPECT_EQ(store.commits(), 1);
  EXPECT_EQ(store.last()->y, (std::vector<double>{1.0, 2.0}));
}

TEST(CheckpointStore, ValidatesArguments) {
  CheckpointStore store(2, 4);
  const std::vector<double> slice{1.0};
  EXPECT_THROW((void)store.save(-1, 0, 0, slice), std::invalid_argument);
  EXPECT_THROW((void)store.save(2, 0, 0, slice), std::invalid_argument);
  EXPECT_THROW((void)store.save(0, -1, 0, slice), std::invalid_argument);
  EXPECT_THROW((void)store.save(0, 0, 4, slice), std::invalid_argument);  // bounds
  (void)store.save(0, 3, 0, slice);
  EXPECT_THROW((void)store.save(0, 3, 0, slice),
               std::invalid_argument);  // iterations must advance
  EXPECT_THROW(CheckpointStore(0, 4), std::invalid_argument);
}

// --- NodeMap::shrink_to -------------------------------------------------------

TEST(NodeMapShrink, DeadDelegateTriggersDefaultReelection) {
  mp::NodeMap nm = mp::NodeMap::contiguous(6, 3);  // {0,1,2} | {3,4,5}
  nm.set_delegate(0, 1);
  const std::vector<mp::Rank> survivors{0, 2, 3, 4, 5};  // the delegate died
  const mp::NodeMap shrunk = nm.shrink_to(survivors);
  EXPECT_EQ(shrunk.nprocs(), 5);
  EXPECT_EQ(shrunk.nnodes(), 2);
  // Node 0 keeps survivor ranks {0,2} -> new {0,1}; incumbent 1 is dead, so
  // the lowest surviving rank takes over.
  EXPECT_EQ(shrunk.delegate_of(0), 0);
  // Node 1 survives intact; incumbent 3 is now new rank 2.
  EXPECT_EQ(shrunk.delegate_of(1), 2);
  EXPECT_EQ(shrunk.node_of(1), 0);  // old rank 2
  EXPECT_EQ(shrunk.node_of(2), 1);  // old rank 3
  EXPECT_EQ(shrunk.generation(), 0u);  // fresh map: coalesce plans are stale
}

TEST(NodeMapShrink, SurvivingIncumbentKeepsTheRole) {
  mp::NodeMap nm = mp::NodeMap::contiguous(6, 3);
  nm.set_delegate(1, 4);
  const std::vector<mp::Rank> survivors{1, 2, 3, 4};  // ranks 0 and 5 died
  const mp::NodeMap shrunk = nm.shrink_to(survivors);
  // Node 1's incumbent (old rank 4) survived as new rank 3 and keeps the
  // frame endpoint; node 0's incumbent (old rank 0) died.
  EXPECT_EQ(shrunk.delegate_of(1), 3);
  EXPECT_EQ(shrunk.delegate_of(0), 0);
}

TEST(NodeMapShrink, FullyDeadNodeDisappears) {
  const mp::NodeMap nm = mp::NodeMap::contiguous(4, 2);  // {0,1} | {2,3}
  const std::vector<mp::Rank> survivors{0, 1};
  const mp::NodeMap shrunk = nm.shrink_to(survivors);
  EXPECT_EQ(shrunk.nnodes(), 1);
  EXPECT_EQ(shrunk.nprocs(), 2);
  EXPECT_TRUE(nm.shrink_to(std::vector<mp::Rank>{3}).trivial());
}

TEST(NodeMapShrink, ValidatesSurvivorList) {
  const mp::NodeMap nm = mp::NodeMap::contiguous(4, 2);
  EXPECT_THROW((void)nm.shrink_to(std::vector<mp::Rank>{}), std::invalid_argument);
  EXPECT_THROW((void)nm.shrink_to(std::vector<mp::Rank>{1, 1}), std::invalid_argument);
  EXPECT_THROW((void)nm.shrink_to(std::vector<mp::Rank>{2, 1}), std::invalid_argument);
  EXPECT_THROW((void)nm.shrink_to(std::vector<mp::Rank>{0, 4}), std::invalid_argument);
}

// --- MachineSpec::subset ------------------------------------------------------

TEST(MachineSubset, KeepsSpeedsProfilesAndNetwork) {
  const sim::MachineSpec machine = sim::MachineSpec::sun4_ethernet(5);
  const std::vector<int> keep{0, 2, 4};
  const sim::MachineSpec sub = machine.subset(keep);
  ASSERT_EQ(sub.size(), 3u);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    EXPECT_EQ(sub.nodes[i].speed,
              machine.nodes[static_cast<std::size_t>(keep[i])].speed);
    EXPECT_EQ(sub.nodes[i].hostname,
              machine.nodes[static_cast<std::size_t>(keep[i])].hostname);
  }
  EXPECT_EQ(sub.speeds(), (std::vector<double>{machine.nodes[0].speed,
                                                machine.nodes[2].speed,
                                                machine.nodes[4].speed}));
  EXPECT_EQ(sub.net.contention, machine.net.contention);
  EXPECT_NE(sub.name, machine.name);
}

TEST(MachineSubset, ValidatesIndices) {
  const sim::MachineSpec machine = sim::MachineSpec::uniform(3);
  EXPECT_THROW((void)machine.subset(std::vector<int>{}), std::invalid_argument);
  EXPECT_THROW((void)machine.subset(std::vector<int>{1, 1}), std::invalid_argument);
  EXPECT_THROW((void)machine.subset(std::vector<int>{2, 0}), std::invalid_argument);
  EXPECT_THROW((void)machine.subset(std::vector<int>{0, 3}), std::invalid_argument);
}

// --- end-to-end recovery ------------------------------------------------------

/// Sends per loop sweep of `rank` under the canonical equal-weight interval
/// partition — lets kill rules target an exact sweep deterministically.
std::size_t sends_per_sweep(const graph::Csr& mesh, int nprocs, mp::Rank rank) {
  const auto part = partition::IntervalPartition::from_weights(
      mesh.num_vertices(), std::vector<double>(static_cast<std::size_t>(nprocs), 1.0));
  const auto schedules = test::build_all_schedules(mesh, part);
  return schedules[static_cast<std::size_t>(rank)].schedule.send_procs.size();
}

TEST(Recovery, FailureFreeRunMatchesReference) {
  const graph::Csr mesh = graph::random_delaunay(240, 7);
  const sim::MachineSpec machine = sim::MachineSpec::uniform(4);
  ResilientOptions opts;
  opts.iterations = 8;
  opts.checkpoint_every = 3;

  const ResilientResult result = run_resilient(mesh, machine, opts);
  EXPECT_TRUE(result.dead.empty());
  EXPECT_EQ(result.survivors, (std::vector<mp::Rank>{0, 1, 2, 3}));
  EXPECT_EQ(result.resume_iteration, 0);
  EXPECT_EQ(result.checkpoints_committed, 2);  // iterations 3 and 6
  EXPECT_GT(result.costs.checkpoint_virtual_seconds, 0.0);
  EXPECT_EQ(result.costs.restore_virtual_seconds, 0.0);

  const std::vector<double> expected = run_reference_from(
      mesh, machine, initial_values(mesh.num_vertices()), opts.iterations, opts);
  test::expect_vectors_eq(result.y, expected);
}

TEST(Recovery, KillMidRunRecoversByteIdenticalFromLastCheckpoint) {
  // The acceptance oracle: kill rank 2 two sweeps after the iteration-4
  // checkpoint. Every rank is then guaranteed past its iteration-4 save (the
  // sweep data dependencies bound rank skew by graph distance), so the
  // recovered run must resume from 4 — and its final vector must be
  // byte-identical to a failure-free run on the survivor machine started
  // from that same state.
  const graph::Csr mesh = graph::random_delaunay(240, 7);
  const sim::MachineSpec machine = sim::MachineSpec::uniform(4);
  constexpr mp::Rank kVictim = 2;

  ResilientOptions opts;
  opts.iterations = 10;
  opts.checkpoint_every = 4;
  const std::size_t per_sweep = sends_per_sweep(mesh, 4, kVictim);
  ASSERT_GT(per_sweep, 0u);
  opts.faults.kills = {KillRule{
      .rank = kVictim,
      .after_sends = static_cast<std::int64_t>(7 * per_sweep)}};

  const ResilientResult result = run_resilient(mesh, machine, opts);
  EXPECT_EQ(result.dead, (std::vector<mp::Rank>{kVictim}));
  EXPECT_EQ(result.survivors, (std::vector<mp::Rank>{0, 1, 3}));
  EXPECT_EQ(result.resume_iteration, 4);
  EXPECT_EQ(result.checkpoints_committed, 1);  // the cut at 8 died with rank 2
  EXPECT_GT(result.costs.checkpoint_virtual_seconds, 0.0);
  EXPECT_GT(result.costs.restore_virtual_seconds, 0.0);
  EXPECT_GE(result.costs.agree_virtual_seconds, 0.0);
  EXPECT_GT(result.loop_virtual_seconds, 0.0);

  // Oracle arm 1: the failure-free prefix reproduces the restored state
  // (solution values are partition-independent, bit for bit).
  const std::vector<double> at_checkpoint = run_reference_from(
      mesh, machine, initial_values(mesh.num_vertices()), result.resume_iteration, opts);
  // Oracle arm 2: finish on the survivor machine from that state.
  const sim::MachineSpec survivor_machine =
      machine.subset(std::vector<int>(result.survivors.begin(), result.survivors.end()));
  const std::vector<double> expected =
      run_reference_from(mesh, survivor_machine, at_checkpoint,
                         opts.iterations - result.resume_iteration, opts);
  test::expect_vectors_eq(result.y, expected);
}

TEST(Recovery, KillBeforeFirstCheckpointRestartsFromInitialState) {
  const graph::Csr mesh = graph::random_delaunay(180, 11);
  const sim::MachineSpec machine = sim::MachineSpec::uniform(3);

  ResilientOptions opts;
  opts.iterations = 6;
  opts.checkpoint_every = 4;
  // Rank 1 dies entering its very first loop operation: nothing committed.
  opts.faults.kills = {KillRule{.rank = 1, .after_sends = 0}};

  const ResilientResult result = run_resilient(mesh, machine, opts);
  EXPECT_EQ(result.dead, (std::vector<mp::Rank>{1}));
  EXPECT_EQ(result.survivors, (std::vector<mp::Rank>{0, 2}));
  EXPECT_EQ(result.resume_iteration, 0);
  EXPECT_EQ(result.checkpoints_committed, 0);

  const sim::MachineSpec survivor_machine = machine.subset(std::vector<int>{0, 2});
  const std::vector<double> expected = run_reference_from(
      mesh, survivor_machine, initial_values(mesh.num_vertices()), opts.iterations, opts);
  test::expect_vectors_eq(result.y, expected);
}

TEST(Recovery, ValidatesOptions) {
  const graph::Csr mesh = graph::random_delaunay(60, 3);
  const sim::MachineSpec machine = sim::MachineSpec::uniform(2);
  ResilientOptions opts;
  opts.iterations = 0;
  EXPECT_THROW((void)run_resilient(mesh, machine, opts), std::invalid_argument);
  EXPECT_THROW((void)run_reference_from(mesh, machine, initial_values(mesh.num_vertices()),
                                        -1, ResilientOptions{}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)run_reference_from(mesh, machine, std::vector<double>{1.0}, 1,
                               ResilientOptions{}),
      std::invalid_argument);
}

}  // namespace
}  // namespace stance
