// Virtual cluster description: one NodeSpec per workstation plus a network
// model. Presets reconstruct the paper's testbed.
//
// A back-calculation from the paper's Table 4 (T(1)=97.61 s, efficiencies
// 0.88/0.77/0.72/0.62 as workstations are added) shows the five SUN4s were
// nearly equal in speed — the efficiency decline is communication overhead,
// not heterogeneity. The `sun4_ethernet` preset therefore uses mildly varied
// speeds; `heterogeneous` provides a strongly nonuniform cluster for the
// library's own experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/load_profile.hpp"
#include "sim/network_model.hpp"

namespace stance::sim {

struct NodeSpec {
  double speed = 1.0;      ///< relative to the reference workstation
  LoadProfile profile{};   ///< CPU availability over time
  std::string hostname{};  ///< cosmetic, for logs
};

struct MachineSpec {
  std::string name = "cluster";
  std::vector<NodeSpec> nodes;
  NetworkModel net = NetworkModel::ideal();

  [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }

  /// Node speeds in rank order (the default partition weights).
  [[nodiscard]] std::vector<double> speeds() const;

  /// Sum of node speeds (the denominator of capability shares).
  [[nodiscard]] double total_speed() const noexcept;

  /// Capability share of each node (speed / total_speed).
  [[nodiscard]] std::vector<double> speed_shares() const;

  /// n identical full-speed nodes on an ideal network — unit-test substrate.
  static MachineSpec uniform(std::size_t n);

  /// n identical nodes on 10 Mb/s Ethernet.
  static MachineSpec uniform_ethernet(std::size_t n, bool multicast = false);

  /// The paper's testbed: up to 5 near-equal SUN4 workstations on shared
  /// 10 Mb/s Ethernet. `n` in [1,5] selects the "1,2,...,n" column of the
  /// paper's tables.
  static MachineSpec sun4_ethernet(std::size_t n, bool multicast = false);

  /// Strongly nonuniform cluster (speeds spread over ~3x) on Ethernet;
  /// exercises proportional partitioning.
  static MachineSpec heterogeneous(std::size_t n, std::uint64_t seed = 42);

  /// The machine induced on a subset of nodes (ascending indices), same
  /// network. This is the survivor machine after rank loss: the recovery
  /// driver rebuilds a Cluster from spec.subset(survivors) so node speeds
  /// and profiles follow the surviving ranks.
  [[nodiscard]] MachineSpec subset(std::span<const int> keep) const;
};

}  // namespace stance::sim
