// Cluster: launches an SPMD function on every virtual workstation.
//
// Usage:
//   sim::MachineSpec spec = sim::MachineSpec::sun4_ethernet(5);
//   mp::Cluster cluster(spec);
//   cluster.run([&](mp::Process& p) { ... SPMD program ... });
//   double t = cluster.makespan();   // virtual seconds of the slowest rank
//
// The transport backend (mp/transport.hpp) is chosen at construction:
// kVirtual (the default) is the deterministic in-process oracle; kTcp moves
// the same bytes through the same per-rank mailboxes between co-resident
// ranks and over loopback TCP sockets between nodes. Virtual clock charging
// lives in Process, so virtual times are bit-identical across backends —
// the selector changes how the bytes travel, never what the experiment
// measures. kDefault defers to the STANCE_TRANSPORT environment variable,
// letting the same binaries run on any backend.
//
// Clocks persist across run() calls (multi-stage experiments accumulate
// time); reset_clocks() starts a fresh experiment on the same cluster.
// If any rank throws, the remaining ranks are released (their blocking
// operations raise ClusterAborted) and run() rethrows the original
// exception of the lowest-ranked failing process.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mp/comm_stats.hpp"
#include "mp/fault.hpp"
#include "mp/node_map.hpp"
#include "mp/process.hpp"
#include "mp/transport.hpp"
#include "sim/machine.hpp"
#include "sim/virtual_clock.hpp"

namespace stance::mp {

class Cluster {
 public:
  /// One rank per physical node — the paper's testbed shape.
  explicit Cluster(sim::MachineSpec spec,
                   TransportKind transport = TransportKind::kDefault);

  /// Ranks grouped onto physical nodes: co-resident ranks exchange through
  /// shared memory (NetworkModel's intra_* terms) and their wire traffic can
  /// be coalesced per node (sched/coalesce.hpp).
  Cluster(sim::MachineSpec spec, NodeMap node_map,
          TransportKind transport = TransportKind::kDefault);

  [[nodiscard]] const sim::MachineSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] int nprocs() const noexcept { return static_cast<int>(spec_.size()); }
  [[nodiscard]] const NodeMap& node_map() const noexcept { return node_map_; }

  /// The backend moving this cluster's bytes.
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] const Transport& transport() const noexcept { return *transport_; }
  [[nodiscard]] TransportKind transport_kind() const noexcept {
    return transport_->kind();
  }

  /// Run `body` as an SPMD program: one thread per node, each handed its
  /// Process. Returns when every rank finished; rethrows the first failure.
  /// A rank that dies with RankKilled (fault injection or excommunication
  /// by a failure detector) is recorded in dead_ranks() without failing the
  /// run — surviving ranks keep executing (and are expected to recover via
  /// Process::agree_on_survivors). When $STANCE_RUN_DEADLINE_MS is set, a
  /// watchdog aborts a wedged run after that many wall milliseconds and
  /// run() throws RunDeadlineExceeded carrying a per-rank state dump.
  void run(const std::function<void(Process&)>& body);

  /// Virtual finish time of each rank after the last run().
  [[nodiscard]] std::vector<double> finish_times() const;

  /// Virtual finish time of the slowest rank.
  [[nodiscard]] double makespan() const;

  /// Communication statistics of the last run(), per rank and aggregated.
  [[nodiscard]] const std::vector<CommStats>& last_stats() const noexcept {
    return last_stats_;
  }
  [[nodiscard]] CommStats total_stats() const;

  /// Start a fresh experiment: clocks back to zero (profiles keep applying
  /// from t=0 again).
  void reset_clocks();

  /// Swap a node's availability profile (adaptive-environment experiments).
  void set_profile(int rank, sim::LoadProfile profile);

  /// Install a frame-aware delegate assignment (one rank per physical node,
  /// e.g. from lb::rotate_delegates). Only between run() calls — Processes
  /// read the node map concurrently during a run; *inside* a run use the
  /// collective Process::set_delegates, which fences the write with
  /// barriers. Coalesce plans built for the previous delegates must be
  /// rebuilt (sched::CoalescePlan::matches flags them stale).
  void set_delegates(std::span<const Rank> per_node);

  [[nodiscard]] const sim::VirtualClock& clock_of(int rank) const;

  // --- fault injection & failure state --------------------------------------

  /// Install a deterministic fault plan for subsequent run() calls (kill
  /// rules fire at Process operations; frame rules act on transport
  /// frames). An empty plan clears injection. Only between runs.
  void set_fault_plan(FaultPlan plan);
  [[nodiscard]] const FaultPlan* fault_plan() const noexcept {
    return injector_ ? &injector_->plan() : nullptr;
  }

  /// Ranks declared dead during the last run() (ascending); empty when the
  /// run was failure-free. Sticky until the next run() or reset.
  [[nodiscard]] std::vector<Rank> dead_ranks() const { return transport_->dead_ranks(); }

  /// Live complement of dead_ranks(), ascending.
  [[nodiscard]] std::vector<Rank> survivor_ranks() const;

 private:
  sim::MachineSpec spec_;
  NodeMap node_map_;
  std::vector<sim::VirtualClock> clocks_;
  std::unique_ptr<Transport> transport_;
  std::vector<CommStats> last_stats_;
  std::unique_ptr<FaultInjector> injector_;  ///< null: no injection
};

}  // namespace stance::mp
