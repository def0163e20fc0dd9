#include "mp/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "mp/errors.hpp"
#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/log.hpp"

namespace stance::mp {
namespace {

/// Watchdog deadline for a whole run(), in wall milliseconds; 0 == off.
/// Strict parse: a malformed value must not silently disable the watchdog.
int env_run_deadline_ms() { return support::env_int("STANCE_RUN_DEADLINE_MS"); }

}  // namespace

Cluster::Cluster(sim::MachineSpec spec, TransportKind transport)
    : Cluster(std::move(spec), NodeMap{}, transport) {}

Cluster::Cluster(sim::MachineSpec spec, NodeMap node_map, TransportKind transport)
    : spec_(std::move(spec)),
      node_map_(std::move(node_map)),
      last_stats_(spec_.size()) {
  STANCE_REQUIRE(!spec_.nodes.empty(), "cluster must have at least one node");
  if (node_map_.nprocs() == 0) {
    node_map_ = NodeMap::one_rank_per_node(static_cast<int>(spec_.size()));
  }
  STANCE_REQUIRE(node_map_.nprocs() == nprocs(),
                 "cluster: node map does not cover every rank");
  transport_ = make_transport(resolve_transport_kind(transport), nprocs(), node_map_);
  clocks_.reserve(spec_.size());
  for (const auto& node : spec_.nodes) {
    clocks_.emplace_back(node.speed, node.profile);
  }
}

void Cluster::run(const std::function<void(Process&)>& body) {
  const int p = nprocs();
  // Parse the watchdog deadline up front: a malformed value must fail the
  // run before any rank thread is spawned (throwing later would terminate
  // on the joinable threads).
  const int deadline_ms = env_run_deadline_ms();
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(p));
  std::vector<char> finished(static_cast<std::size_t>(p), 0);
  // Per-rank lifecycle, readable from the watchdog thread while ranks run.
  enum : int { kRunning = 0, kFinished, kKilled, kFailed };
  std::unique_ptr<std::atomic<int>[]> states(new std::atomic<int>[static_cast<std::size_t>(p)]);
  for (int r = 0; r < p; ++r) states[static_cast<std::size_t>(r)].store(kRunning);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));

  // Fault injection applies per run: install (or clear) before spawning.
  transport_->set_fault_injector(injector_.get());

  // Processes live in a stable vector so threads can reference them.
  std::vector<std::unique_ptr<Process>> procs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    procs[static_cast<std::size_t>(r)] = std::make_unique<Process>(
        r, p, clocks_[static_cast<std::size_t>(r)], *transport_, spec_.net, node_map_);
  }

  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(*procs[static_cast<std::size_t>(r)]);
        finished[static_cast<std::size_t>(r)] = 1;
        states[static_cast<std::size_t>(r)].store(kFinished);
      } catch (const RankKilled&) {
        // A rank death (fault injection or excommunication), not a program
        // failure: the thread unwinds quietly and the survivors keep
        // running — their blocked operations already raise PeerFailed.
        states[static_cast<std::size_t>(r)].store(kKilled);
      } catch (...) {
        failures[static_cast<std::size_t>(r)] = std::current_exception();
        states[static_cast<std::size_t>(r)].store(kFailed);
        // Release everyone blocked in recv/collectives so the cluster can
        // shut down instead of deadlocking.
        transport_->shutdown();
      }
    });
  }

  // Watchdog: a wedged run (deadlocked test, failure detection disabled) is
  // aborted after $STANCE_RUN_DEADLINE_MS wall milliseconds instead of
  // hanging the suite forever.
  std::mutex wd_mutex;
  std::condition_variable wd_cv;
  bool wd_done = false;
  std::atomic<bool> wd_fired{false};
  // Rank states captured at the moment of expiry, before shutdown() wakes the
  // wedged ranks and turns "blocked" into "failed".
  std::vector<int> wd_snapshot;
  std::thread watchdog;
  if (deadline_ms > 0) {
    watchdog = std::thread([&] {
      std::unique_lock<std::mutex> lock(wd_mutex);
      if (wd_cv.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                         [&] { return wd_done; })) {
        return;
      }
      wd_snapshot.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        int s = states[static_cast<std::size_t>(r)].load();
        if (s == kRunning && transport_->is_dead(r)) s = kKilled;
        wd_snapshot[static_cast<std::size_t>(r)] = s;
      }
      wd_fired.store(true);
      transport_->shutdown();
    });
  }

  for (auto& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mutex);
      wd_done = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }

  for (int r = 0; r < p; ++r) {
    last_stats_[static_cast<std::size_t>(r)] = procs[static_cast<std::size_t>(r)]->stats();
  }

  if (wd_fired.load()) {
    // Per-rank state dump: who finished, who died, who was still wedged when
    // the deadline expired (not after shutdown released them).
    std::string dump = "cluster run exceeded STANCE_RUN_DEADLINE_MS (" +
                       std::to_string(deadline_ms) + " ms); rank states:";
    for (int r = 0; r < p; ++r) {
      const int s = wd_snapshot[static_cast<std::size_t>(r)];
      const char* state = s == kFinished ? "finished"
                          : s == kKilled ? "dead"
                          : s == kFailed ? "failed"
                                         : "blocked";
      dump += "\n  rank " + std::to_string(r) + ": " + state + ", pending=" +
              std::to_string(transport_->pending(r));
    }
    transport_->reset();
    throw RunDeadlineExceeded(dump);
  }

  // Find the original failure: the lowest rank whose exception is not the
  // secondary ClusterAborted.
  std::exception_ptr original;
  std::exception_ptr any;
  for (const auto& f : failures) {
    if (!f) continue;
    if (!any) any = f;
    if (!original) {
      try {
        std::rethrow_exception(f);
      } catch (const ClusterAborted&) {
        // secondary failure; keep looking
      } catch (...) {
        original = f;
      }
    }
  }
  if (original || any) {
    // Shutdown is sticky at the transport level; the cluster's contract is
    // that it stays usable after a failed run, so the abort path performs
    // the explicit reset (dropping the dead run's queued and in-flight
    // messages) before rethrowing.
    transport_->reset();
    std::rethrow_exception(original ? original : any);
  }

  for (int r = 0; r < p; ++r) {
    // A dead rank legitimately leaves unconsumed messages behind (traffic
    // addressed to it before it died); survivors must not. On a trusted
    // backend a leftover is a missing receive in the program. On an
    // untrusted one a peer may have written a well-formed frame nobody asked
    // for, which must not abort the process: drop it and fail the run.
    const std::size_t pending = transport_->pending(r);
    if (pending == 0 || transport_->is_dead(r)) continue;
    STANCE_ASSERT_MSG(!transport_->trusted(),
                      "message left in a mailbox at end of SPMD run (missing recv)");
    const std::uint32_t epoch = transport_->epoch();
    transport_->reset();
    throw TransportError(std::to_string(pending) + " unreceived frame(s) left in rank " +
                             std::to_string(r) + "'s mailbox at end of SPMD run",
                         /*peer=*/-1, /*peer_node=*/-1, epoch, FailCause::kMalformedFrame);
  }
}

std::vector<double> Cluster::finish_times() const {
  std::vector<double> t;
  t.reserve(clocks_.size());
  for (const auto& c : clocks_) t.push_back(c.now());
  return t;
}

double Cluster::makespan() const {
  double m = 0.0;
  for (const auto& c : clocks_) m = std::max(m, c.now());
  return m;
}

CommStats Cluster::total_stats() const {
  CommStats total;
  for (const auto& s : last_stats_) total += s;
  return total;
}

void Cluster::reset_clocks() {
  for (auto& c : clocks_) c.reset();
}

void Cluster::set_delegates(std::span<const Rank> per_node) {
  node_map_.set_delegates(per_node);
}

void Cluster::set_fault_plan(FaultPlan plan) {
  if (plan.empty()) {
    injector_.reset();
  } else {
    injector_ = std::make_unique<FaultInjector>(std::move(plan));
  }
  transport_->set_fault_injector(injector_.get());
}

std::vector<Rank> Cluster::survivor_ranks() const {
  std::vector<Rank> out;
  for (int r = 0; r < nprocs(); ++r) {
    if (!transport_->is_dead(r)) out.push_back(r);
  }
  return out;
}

void Cluster::set_profile(int rank, sim::LoadProfile profile) {
  STANCE_REQUIRE(rank >= 0 && rank < nprocs(), "set_profile: rank out of range");
  clocks_[static_cast<std::size_t>(rank)].set_profile(std::move(profile));
}

const sim::VirtualClock& Cluster::clock_of(int rank) const {
  STANCE_REQUIRE(rank >= 0 && rank < nprocs(), "clock_of: rank out of range");
  return clocks_[static_cast<std::size_t>(rank)];
}

}  // namespace stance::mp
