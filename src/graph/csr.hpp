// Compressed-sparse-row representation of an undirected computational graph.
//
// This is the data structure every phase of the library consumes: vertices
// are tasks, edges are interactions (paper §3.1). Graphs may carry 2-D
// coordinates (required by the geometric orderings). Both directions of
// every undirected edge are stored; num_edges() counts undirected edges.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/geometry.hpp"

namespace stance::graph {

using Vertex = std::int32_t;
using EdgeIndex = std::int64_t;
using Edge = std::pair<Vertex, Vertex>;

struct CsrDelta;  // graph/delta.hpp

class Csr {
 public:
  Csr() = default;

  /// Build from an undirected edge list. Self loops are dropped; duplicate
  /// edges are collapsed. Vertex ids must be in [0, nv).
  static Csr from_edges(Vertex nv, std::span<const Edge> edges);

  [[nodiscard]] Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  /// Number of *undirected* edges.
  [[nodiscard]] EdgeIndex num_edges() const noexcept {
    return static_cast<EdgeIndex>(targets_.size()) / 2;
  }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    const auto b = offsets_[static_cast<std::size_t>(v)];
    const auto e = offsets_[static_cast<std::size_t>(v) + 1];
    return {targets_.data() + b, static_cast<std::size_t>(e - b)};
  }

  [[nodiscard]] Vertex degree(Vertex v) const {
    return static_cast<Vertex>(offsets_[static_cast<std::size_t>(v) + 1] -
                               offsets_[static_cast<std::size_t>(v)]);
  }

  [[nodiscard]] const std::vector<EdgeIndex>& offsets() const noexcept { return offsets_; }
  [[nodiscard]] const std::vector<Vertex>& targets() const noexcept { return targets_; }

  [[nodiscard]] bool has_coords() const noexcept {
    return coords_.size() == static_cast<std::size_t>(num_vertices());
  }
  [[nodiscard]] const std::vector<Point2>& coords() const noexcept { return coords_; }
  void set_coords(std::vector<Point2> coords);
  [[nodiscard]] Point2 coord(Vertex v) const { return coords_[static_cast<std::size_t>(v)]; }

  /// Optional per-vertex work weights. A weightless graph is uniform: every
  /// vertex weighs 1.0 and the fingerprint is unchanged from pre-weight
  /// builds, so existing cache keys and baselines stay valid.
  [[nodiscard]] bool has_weights() const noexcept {
    return weights_.size() == static_cast<std::size_t>(num_vertices());
  }
  [[nodiscard]] const std::vector<double>& weights() const noexcept { return weights_; }
  void set_weights(std::vector<double> weights);
  [[nodiscard]] double weight(Vertex v) const {
    return weights_.empty() ? 1.0 : weights_[static_cast<std::size_t>(v)];
  }

  /// Relabel vertices: new id of old vertex v is perm[v] (perm is a
  /// permutation of 0..nv-1). Coordinates follow their vertices. This is the
  /// paper's transformation T applied to the graph.
  [[nodiscard]] Csr permuted(std::span<const Vertex> perm) const;

  /// Undirected edge list (each edge once, with u < v).
  [[nodiscard]] std::vector<Edge> edge_list() const;

  /// True if every stored arc has its reverse (class invariant; cheap check
  /// for tests).
  [[nodiscard]] bool is_symmetric() const;

  /// True if the graph is connected (BFS from vertex 0; empty graph counts
  /// as connected).
  [[nodiscard]] bool is_connected() const;

  [[nodiscard]] Vertex max_degree() const;
  [[nodiscard]] double avg_degree() const;

  /// Apply a mesh edit, producing the evolved graph (vertex count is
  /// preserved; refinement is modeled as weight + stencil churn). Stamps the
  /// delta's base/result fingerprints so deltas chain — see graph/delta.hpp.
  /// Defined in delta.cpp.
  [[nodiscard]] Csr apply(CsrDelta& delta) const;

  /// Structural fingerprint (FNV-1a over offsets, targets, coordinates, and
  /// weights when present). Two graphs with equal fingerprints produce
  /// identical downstream orderings, partitions, and schedules; the
  /// stance::Service plan cache keys on it so repeat meshes skip the
  /// inspector. Memoized: the graph is hashed at most once between
  /// mutations, and concurrent callers on one shared graph are safe.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  /// The digest fingerprint() memoizes; 0 means "not computed yet" (a graph
  /// whose real digest is 0 just rehashes on every call). Copies and moves
  /// carry the digest with the arrays it describes; set_coords/set_weights
  /// clear it. Atomic because rank threads share one const graph.
  class FingerprintMemo {
   public:
    FingerprintMemo() = default;
    FingerprintMemo(const FingerprintMemo& o) noexcept : v_(o.load()) {}
    FingerprintMemo(FingerprintMemo&& o) noexcept : v_(o.take()) {}
    FingerprintMemo& operator=(const FingerprintMemo& o) noexcept {
      store(o.load());
      return *this;
    }
    FingerprintMemo& operator=(FingerprintMemo&& o) noexcept {
      store(o.take());
      return *this;
    }

    [[nodiscard]] std::uint64_t load() const noexcept { return v_.load(); }
    void store(std::uint64_t v) noexcept { v_.store(v); }

   private:
    std::uint64_t take() noexcept { return v_.exchange(0); }
    std::atomic<std::uint64_t> v_{0};
  };

  [[nodiscard]] std::uint64_t compute_fingerprint() const;

  std::vector<EdgeIndex> offsets_;  ///< size nv+1
  std::vector<Vertex> targets_;     ///< both directions of every edge
  std::vector<Point2> coords_;      ///< optional, size nv when present
  std::vector<double> weights_;     ///< optional, size nv when present
  mutable FingerprintMemo fingerprint_;
};

}  // namespace stance::graph
