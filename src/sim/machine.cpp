#include "sim/machine.hpp"

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace stance::sim {

std::vector<double> MachineSpec::speeds() const {
  std::vector<double> w;
  w.reserve(nodes.size());
  for (const auto& n : nodes) w.push_back(n.speed);
  return w;
}

double MachineSpec::total_speed() const noexcept {
  double s = 0.0;
  for (const auto& n : nodes) s += n.speed;
  return s;
}

std::vector<double> MachineSpec::speed_shares() const {
  std::vector<double> shares(nodes.size());
  const double total = total_speed();
  STANCE_ASSERT(total > 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i) shares[i] = nodes[i].speed / total;
  return shares;
}

MachineSpec MachineSpec::uniform(std::size_t n) {
  STANCE_REQUIRE(n > 0, "cluster must have at least one node");
  MachineSpec spec;
  spec.name = "uniform-" + std::to_string(n);
  spec.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) spec.nodes[i].hostname = "node" + std::to_string(i);
  spec.net = NetworkModel::ideal();
  return spec;
}

MachineSpec MachineSpec::uniform_ethernet(std::size_t n, bool multicast) {
  MachineSpec spec = uniform(n);
  spec.name = "uniform-ethernet-" + std::to_string(n);
  spec.net = NetworkModel::ethernet_10mbps(multicast);
  return spec;
}

MachineSpec MachineSpec::sun4_ethernet(std::size_t n, bool multicast) {
  STANCE_REQUIRE(n >= 1 && n <= 5, "the paper's testbed has 5 workstations");
  // Near-equal speeds (see header comment); the slight spread keeps the
  // proportional partitioner honest without changing the Table 4 shape.
  static constexpr double kSpeeds[5] = {1.00, 0.99, 1.01, 0.98, 1.02};
  MachineSpec spec;
  spec.name = "sun4-ethernet-" + std::to_string(n);
  spec.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    spec.nodes[i].speed = kSpeeds[i];
    spec.nodes[i].hostname = "sun4-" + std::to_string(i + 1);
  }
  spec.net = NetworkModel::ethernet_10mbps(multicast);
  // Shared 10 Mb/s segment: more stations, more collisions/backoff. The
  // linear factor is calibrated against the overhead growth implied by the
  // paper's Table 4 (see DESIGN.md §5).
  spec.net.contention = 1.0 + 0.15 * static_cast<double>(n - 1);
  return spec;
}

MachineSpec MachineSpec::heterogeneous(std::size_t n, std::uint64_t seed) {
  STANCE_REQUIRE(n > 0, "cluster must have at least one node");
  MachineSpec spec;
  spec.name = "heterogeneous-" + std::to_string(n);
  spec.nodes.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    spec.nodes[i].speed = rng.uniform(0.35, 1.0);
    spec.nodes[i].hostname = "het" + std::to_string(i);
  }
  spec.net = NetworkModel::ethernet_10mbps(false);
  return spec;
}

MachineSpec MachineSpec::subset(std::span<const int> keep) const {
  STANCE_REQUIRE(!keep.empty(), "subset: need at least one node");
  MachineSpec out;
  out.name = name + "-subset" + std::to_string(keep.size());
  out.net = net;
  out.nodes.reserve(keep.size());
  int prev = -1;
  for (const int i : keep) {
    STANCE_REQUIRE(i > prev, "subset: node indices must be ascending and unique");
    STANCE_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < nodes.size(),
                   "subset: node index out of range");
    out.nodes.push_back(nodes[static_cast<std::size_t>(i)]);
    prev = i;
  }
  return out;
}

}  // namespace stance::sim
