#include "graph/csr.hpp"

#include <algorithm>
#include <queue>

#include "support/assert.hpp"
#include "support/fnv.hpp"

namespace stance::graph {

Csr Csr::from_edges(Vertex nv, std::span<const Edge> edges) {
  STANCE_REQUIRE(nv >= 0, "negative vertex count");
  // Normalize: drop self loops, order endpoints, dedup.
  std::vector<Edge> norm;
  norm.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    STANCE_REQUIRE(u >= 0 && u < nv && v >= 0 && v < nv, "edge endpoint out of range");
    if (u == v) continue;
    norm.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(norm.begin(), norm.end());
  norm.erase(std::unique(norm.begin(), norm.end()), norm.end());

  Csr g;
  g.offsets_.assign(static_cast<std::size_t>(nv) + 1, 0);
  for (const auto& [u, v] : norm) {
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.targets_.resize(static_cast<std::size_t>(g.offsets_.back()));
  std::vector<EdgeIndex> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : norm) {
    g.targets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    g.targets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }
  // from_edges sorted input per vertex already ascending for u-side; v-side
  // arcs interleave, so sort each adjacency list for deterministic layout.
  for (Vertex v = 0; v < nv; ++v) {
    auto* b = g.targets_.data() + g.offsets_[static_cast<std::size_t>(v)];
    auto* e = g.targets_.data() + g.offsets_[static_cast<std::size_t>(v) + 1];
    std::sort(b, e);
  }
  return g;
}

void Csr::set_coords(std::vector<Point2> coords) {
  STANCE_REQUIRE(coords.size() == static_cast<std::size_t>(num_vertices()),
                 "coordinate count must equal vertex count");
  coords_ = std::move(coords);
  fingerprint_.store(0);
}

void Csr::set_weights(std::vector<double> weights) {
  STANCE_REQUIRE(weights.size() == static_cast<std::size_t>(num_vertices()),
                 "weight count must equal vertex count");
  for (const double w : weights) {
    STANCE_REQUIRE(w > 0.0, "vertex weights must be positive");
  }
  weights_ = std::move(weights);
  fingerprint_.store(0);
}

Csr Csr::permuted(std::span<const Vertex> perm) const {
  const Vertex nv = num_vertices();
  STANCE_REQUIRE(perm.size() == static_cast<std::size_t>(nv),
                 "permutation size must equal vertex count");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  for (Vertex v = 0; v < nv; ++v) {
    for (const Vertex u : neighbors(v)) {
      if (v < u) {
        edges.emplace_back(perm[static_cast<std::size_t>(v)],
                           perm[static_cast<std::size_t>(u)]);
      }
    }
  }
  Csr g = from_edges(nv, edges);
  if (has_coords()) {
    std::vector<Point2> c(static_cast<std::size_t>(nv));
    for (Vertex v = 0; v < nv; ++v) {
      c[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])] =
          coords_[static_cast<std::size_t>(v)];
    }
    g.set_coords(std::move(c));
  }
  if (has_weights()) {
    std::vector<double> w(static_cast<std::size_t>(nv));
    for (Vertex v = 0; v < nv; ++v) {
      w[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])] =
          weights_[static_cast<std::size_t>(v)];
    }
    g.set_weights(std::move(w));
  }
  return g;
}

std::vector<Edge> Csr::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  const Vertex nv = num_vertices();
  for (Vertex v = 0; v < nv; ++v) {
    for (const Vertex u : neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return edges;
}

bool Csr::is_symmetric() const {
  const Vertex nv = num_vertices();
  for (Vertex v = 0; v < nv; ++v) {
    for (const Vertex u : neighbors(v)) {
      const auto nb = neighbors(u);
      if (!std::binary_search(nb.begin(), nb.end(), v)) return false;
    }
  }
  return true;
}

bool Csr::is_connected() const {
  const Vertex nv = num_vertices();
  if (nv == 0) return true;
  std::vector<char> seen(static_cast<std::size_t>(nv), 0);
  std::queue<Vertex> q;
  q.push(0);
  seen[0] = 1;
  Vertex visited = 1;
  while (!q.empty()) {
    const Vertex v = q.front();
    q.pop();
    for (const Vertex u : neighbors(v)) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        ++visited;
        q.push(u);
      }
    }
  }
  return visited == nv;
}

Vertex Csr::max_degree() const {
  Vertex m = 0;
  const Vertex nv = num_vertices();
  for (Vertex v = 0; v < nv; ++v) m = std::max(m, degree(v));
  return m;
}

double Csr::avg_degree() const {
  const Vertex nv = num_vertices();
  if (nv == 0) return 0.0;
  return static_cast<double>(targets_.size()) / static_cast<double>(nv);
}

std::uint64_t Csr::fingerprint() const {
  std::uint64_t fp = fingerprint_.load();
  if (fp == 0) {
    // Racing first callers each hash the same immutable arrays and store the
    // same digest, so the race is benign and needs no lock.
    fp = compute_fingerprint();
    fingerprint_.store(fp);
  }
  return fp;
}

std::uint64_t Csr::compute_fingerprint() const {
  support::Fnv1a h;
  h.mix(static_cast<std::uint64_t>(num_vertices()));
  for (const EdgeIndex o : offsets_) h.mix(static_cast<std::uint64_t>(o));
  for (const Vertex t : targets_) h.mix(static_cast<std::uint64_t>(t));
  // Coordinates feed the geometric orderings, so they are part of identity.
  h.mix(static_cast<std::uint64_t>(coords_.size()));
  for (const Point2& c : coords_) {
    h.mix(c.x);
    h.mix(c.y);
  }
  // Weights are mixed only when present, so weightless graphs keep the
  // fingerprints that existing baselines and cache keys were built on.
  if (has_weights()) {
    h.mix(static_cast<std::uint64_t>(weights_.size()));
    for (const double w : weights_) h.mix(w);
  }
  return h.digest();
}

}  // namespace stance::graph
