// Transport calibration: measured real-backend cost vs the NetworkModel.
//
// The virtual backend *prices* communication with sim::NetworkModel terms
// (latency, per-byte, per-message overhead, intra vs inter node); the tcp
// backend *pays* for it in host wall-clock. This bench closes the loop
// between the two:
//
//   1. Micro-calibration on the real backend — ping-pong RTT/2 for the
//      latency term (intra-node through co-resident mailboxes, inter-node
//      through loopback TCP), a large-vs-small message delta for the
//      per-byte term, and back-to-back sends for the per-message sender
//      overhead.
//   2. A NetworkModel fitted from those measurements.
//   3. The same schedule-driven coalesced exchange run twice: once on the
//      virtual backend under the fitted model (modeled seconds), once on
//      the tcp backend under a host timer (measured seconds). The per-run
//      relative error is the headline number: how well the analytic model,
//      fed calibrated terms, predicts this machine.
//
// BENCH_calibrate.json is committed as a reference artifact and uploaded by
// CI, but deliberately NOT added to check_regression.py's gate list: every
// number here is host wall-clock on whatever machine ran the bench, so
// cross-machine comparison is meaningless — the artifact documents the
// measured-vs-modeled gap per machine rather than gating it.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/gather_scatter.hpp"
#include "graph/builders.hpp"
#include "mp/cluster.hpp"
#include "mp/node_map.hpp"
#include "mp/transport.hpp"
#include "partition/interval.hpp"
#include "sched/coalesce.hpp"
#include "sched/inspector.hpp"
#include "sim/machine.hpp"

namespace stance::bench {
namespace {

/// Host seconds of `rounds` ping-pong exchanges of `bytes` payload between
/// ranks a and b, halved to one-way time. The timer runs on rank a only;
/// other ranks idle at the barriers.
double pingpong_oneway(mp::Cluster& cluster, mp::Rank a, mp::Rank b,
                       std::size_t bytes, int rounds) {
  double oneway = 0.0;
  cluster.run([&](mp::Process& p) {
    std::vector<std::byte> payload(bytes, std::byte{0x5A});
    const mp::Tag tag = 7;
    p.barrier();
    if (p.rank() == a) {
      // Warm up the route (connection buffers, pool) before timing.
      p.send_bytes(b, tag, payload);
      p.recycle(p.recv_raw(b, tag));
      const HostTimer timer;
      for (int i = 0; i < rounds; ++i) {
        p.send_bytes(b, tag, payload);
        p.recycle(p.recv_raw(b, tag));
      }
      oneway = timer.seconds() / (2.0 * rounds);
    } else if (p.rank() == b) {
      p.recycle(p.recv_raw(a, tag));
      p.send_bytes(a, tag, payload);
      for (int i = 0; i < rounds; ++i) {
        p.recycle(p.recv_raw(a, tag));
        p.send_bytes(a, tag, payload);
      }
    }
    p.barrier();
  });
  return oneway;
}

/// Host seconds per send() call when rank a streams `count` back-to-back
/// messages at rank b (one trailing ack keeps the run honest). Approximates
/// the per-message sender overhead: the sender never waits for a reply, so
/// latency is off its critical path.
double back_to_back_per_send(mp::Cluster& cluster, mp::Rank a, mp::Rank b,
                             std::size_t bytes, int count) {
  double per_send = 0.0;
  cluster.run([&](mp::Process& p) {
    std::vector<std::byte> payload(bytes, std::byte{0x3C});
    const mp::Tag tag = 8;
    p.barrier();
    if (p.rank() == a) {
      const HostTimer timer;
      for (int i = 0; i < count; ++i) p.send_bytes(b, tag, payload);
      per_send = timer.seconds() / count;
      p.recycle(p.recv_raw(b, tag));  // ack: b drained everything
    } else if (p.rank() == b) {
      for (int i = 0; i < count; ++i) p.recycle(p.recv_raw(a, tag));
      p.send_bytes(a, tag, payload);
    }
    p.barrier();
  });
  return per_send;
}

struct PairTerms {
  double latency = 0.0;   ///< one-way small-message seconds
  double per_byte = 0.0;  ///< incremental seconds per payload byte
  double per_send = 0.0;  ///< sender-side seconds per back-to-back send
};

/// Measure the three terms for the (a, b) route of `cluster`.
PairTerms measure_pair(mp::Cluster& cluster, mp::Rank a, mp::Rank b) {
  constexpr std::size_t kSmall = 8;
  constexpr std::size_t kLarge = 1 << 20;
  constexpr int kRounds = 200;
  PairTerms t;
  t.latency = pingpong_oneway(cluster, a, b, kSmall, kRounds);
  const double large = pingpong_oneway(cluster, a, b, kLarge, 32);
  t.per_byte =
      std::max(0.0, (large - t.latency) / static_cast<double>(kLarge - kSmall));
  t.per_send = back_to_back_per_send(cluster, a, b, kSmall, 2000);
  return t;
}

/// The schedule-driven workload: `iters` coalesced gather + scatter_add
/// rounds over a Delaunay mesh split equally across 4 ranks on 2 nodes.
/// Returns the host seconds of the exchange loop (max over ranks); when
/// `virtual_out` is set, also the virtual makespan the model priced for the
/// same run.
double run_exchange(mp::TransportKind kind, const sim::NetworkModel& model,
                    int iters, double* virtual_out) {
  const graph::Csr g = graph::random_delaunay(6000, 2026);
  constexpr int kRanks = 4;
  const std::vector<double> weights(kRanks, 1.0);
  const auto part =
      partition::IntervalPartition::from_weights(g.num_vertices(), weights);

  sim::MachineSpec spec = sim::MachineSpec::uniform(kRanks);
  spec.net = model;
  mp::Cluster cluster(spec, mp::NodeMap::contiguous(kRanks, 2), kind);

  std::vector<sched::InspectorResult> results(kRanks);
  std::vector<sched::CoalescePlan> plans(kRanks);
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    results[r] = sched::build_schedule(p, g, part, sched::BuildMethod::kSort2,
                                       sim::CpuCostModel::free());
    plans[r] = sched::coalesce(p, results[r].schedule, sim::CpuCostModel::free());
  });

  std::vector<exec::ExecWorkspace> ws(kRanks);
  std::vector<std::vector<double>> local(kRanks), ghost(kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) {
    const auto& s = results[r].schedule;
    local[r].assign(static_cast<std::size_t>(s.nlocal),
                    1.0 + static_cast<double>(r));
    ghost[r].assign(static_cast<std::size_t>(s.nghost), 0.0);
  }

  cluster.reset_clocks();
  std::vector<double> host(kRanks, 0.0);
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const auto& s = results[r].schedule;
    // Warm-up pass fills the buffer pools so the timed loop measures the
    // steady state, matching what the model prices.
    exec::gather_coalesced<double>(p, s, plans[r], local[r],
                                   std::span<double>(ghost[r]), ws[r]);
    exec::scatter_add_coalesced<double>(p, s, plans[r], ghost[r],
                                        std::span<double>(local[r]), ws[r]);
    p.barrier();
    const HostTimer timer;
    for (int it = 0; it < iters; ++it) {
      exec::gather_coalesced<double>(p, s, plans[r], local[r],
                                     std::span<double>(ghost[r]), ws[r]);
      exec::scatter_add_coalesced<double>(p, s, plans[r], ghost[r],
                                          std::span<double>(local[r]), ws[r]);
    }
    host[r] = timer.seconds();
    p.barrier();
  });
  if (virtual_out != nullptr) *virtual_out = cluster.makespan();
  return *std::max_element(host.begin(), host.end());
}

double rel_error(double modeled, double measured) {
  if (measured <= 0.0) return 0.0;
  return (modeled - measured) / measured;
}

}  // namespace
}  // namespace stance::bench

int main(int argc, char** argv) {
  using namespace stance;
  using namespace stance::bench;

  const CliArgs args(argc, argv);
  const int iters = static_cast<int>(args.get_int("iters", 40));
  const std::string out = args.get("out", "BENCH_calibrate.json");

  std::cout << "\n=== transport calibration: measured (host) vs modeled ===\n"
            << "(micro-terms from ping-pong / back-to-back probes on the real\n"
            << " backend; the fitted model then predicts a schedule-driven\n"
            << " coalesced exchange and is scored against the measured time)\n";

  JsonReporter report;

  // --- 1. Micro-calibration: 4 ranks on 2 nodes; the tcp backend gives both
  // an intra-node route (ranks 0-1, co-resident mailboxes) and an inter-node
  // route (ranks 0-2, loopback sockets) in one cluster.
  sim::MachineSpec spec = sim::MachineSpec::uniform(4);
  mp::Cluster tcp_cluster(spec, mp::NodeMap::contiguous(4, 2),
                          mp::TransportKind::kTcp);
  const PairTerms intra = measure_pair(tcp_cluster, 0, 1);
  const PairTerms inter = measure_pair(tcp_cluster, 0, 2);

  const auto mbps = [](double per_byte) {
    return per_byte > 0.0 ? 1.0 / per_byte / 1e6 : 0.0;
  };
  TextTable terms("micro-calibrated terms (this machine)");
  terms.set_header({"route", "latency_us", "MB_per_s", "send_overhead_us"});
  terms.row()
      .cell("intra-node (mailbox)")
      .cell(intra.latency * 1e6, 2)
      .cell(mbps(intra.per_byte), 1)
      .cell(intra.per_send * 1e6, 2);
  terms.row()
      .cell("inter-node (tcp)")
      .cell(inter.latency * 1e6, 2)
      .cell(mbps(inter.per_byte), 1)
      .cell(inter.per_send * 1e6, 2);
  terms.print(std::cout);

  report.entry("micro_terms")
      .field("intra_latency_measured", intra.latency)
      .field("intra_per_byte_measured", intra.per_byte)
      .field("intra_send_overhead_measured", intra.per_send)
      .field("inter_latency_measured", inter.latency)
      .field("inter_per_byte_measured", inter.per_byte)
      .field("inter_send_overhead_measured", inter.per_send);

  // --- 2. Fit a NetworkModel from the measured terms. The asynchronous-
  // stack shape (send_per_byte = 0) matches how the real backend behaves:
  // the sender's cost is the per-message overhead, the bytes ride the wire
  // term.
  sim::NetworkModel fitted;
  fitted.name = "calibrated-loopback";
  fitted.latency = inter.latency;
  fitted.bandwidth = inter.per_byte > 0.0
                         ? 1.0 / inter.per_byte
                         : sim::NetworkModel::kInfiniteBandwidth;
  fitted.send_overhead = inter.per_send;
  fitted.intra_latency = intra.latency;
  fitted.intra_bandwidth = intra.per_byte > 0.0
                               ? 1.0 / intra.per_byte
                               : sim::NetworkModel::kInfiniteBandwidth;
  fitted.intra_overhead = intra.per_send;

  // --- 3. Score the fitted model against the measured schedule exchange.
  double modeled = 0.0;
  (void)run_exchange(mp::TransportKind::kVirtual, fitted, iters, &modeled);
  const double tcp_measured =
      run_exchange(mp::TransportKind::kTcp, fitted, iters, nullptr);

  TextTable score("schedule-driven exchange: modeled vs measured");
  score.set_header({"backend", "seconds", "rel_error_vs_model"});
  score.row().cell("virtual (modeled)").cell(modeled, 6).cell("-");
  score.row()
      .cell("tcp (measured)")
      .cell(tcp_measured, 6)
      .cell(format_number(rel_error(modeled, tcp_measured) * 100.0, 1) + "%");
  score.print(std::cout);

  report.entry("exchange_calibration")
      .field("modeled_seconds", modeled)
      .field("tcp_measured_seconds", tcp_measured)
      .field("tcp_rel_error", rel_error(modeled, tcp_measured))
      .field("iterations", static_cast<long long>(iters))
      .field("fitted_latency", fitted.latency)
      .field("fitted_bandwidth", fitted.bandwidth)
      .field("fitted_send_overhead", fitted.send_overhead)
      .field("fitted_intra_latency", fitted.intra_latency)
      .field("fitted_intra_bandwidth", fitted.intra_bandwidth)
      .field("fitted_intra_overhead", fitted.intra_overhead);

  report.write(out);
  return 0;
}
