// One-dimensional locality-improving transformations (paper §3.1).
//
// An ordering is a permutation T : V -> {0..n-1} such that contiguous
// intervals of the new numbering form good partitions for a *wide range* of
// processor counts and weights. Phase A computes T once; mapping and
// remapping after that are interval arithmetic.
//
// All functions return `perm` with perm[v] = new index of vertex v.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace stance::order {

using graph::Csr;
using graph::Point2;
using graph::Vertex;

enum class Method {
  kIdentity,      ///< no-op baseline
  kRandom,        ///< adversarial baseline (destroys locality)
  kRcb,           ///< recursive coordinate bisection indexing (paper Fig. 2)
  kInertial,      ///< recursive inertial (principal-axis) bisection indexing
  kMorton,        ///< Z-order space-filling curve
  kHilbert,       ///< Hilbert space-filling curve
  kSpectral,      ///< recursive spectral bisection indexing (paper's choice)
  kCuthillMckee,  ///< reverse Cuthill–McKee (edge-based, coordinate-free)
};

[[nodiscard]] std::string method_name(Method m);

/// All implemented methods, for sweeps.
[[nodiscard]] std::span<const Method> all_methods();

/// Dispatch. Coordinate-based methods require g.has_coords().
[[nodiscard]] std::vector<Vertex> compute(const Csr& g, Method m, std::uint64_t seed = 7);

[[nodiscard]] std::vector<Vertex> identity_order(Vertex n);
[[nodiscard]] std::vector<Vertex> random_order(Vertex n, std::uint64_t seed);

/// Recursive coordinate bisection: split along the longer bounding-box axis
/// at the median; the lower half receives lower indices; recurse.
[[nodiscard]] std::vector<Vertex> rcb_order(std::span<const Point2> pts);

/// Recursive inertial bisection: split perpendicular to the principal axis
/// of the point set (2x2 covariance eigenvector) at the median projection.
[[nodiscard]] std::vector<Vertex> inertial_order(std::span<const Point2> pts);

/// Z-order (Morton) curve index, 21 bits per dimension.
[[nodiscard]] std::vector<Vertex> morton_order(std::span<const Point2> pts);

/// Hilbert curve index, order-16 grid.
[[nodiscard]] std::vector<Vertex> hilbert_order(std::span<const Point2> pts);

struct SpectralOptions {
  int lanczos_steps = 60;   ///< Krylov dimension per bisection level
  double tolerance = 1e-8;  ///< Lanczos breakdown/residual tolerance
  Vertex leaf_size = 32;    ///< stop recursing below this
  std::uint64_t seed = 7;   ///< initial vector
};

/// Recursive spectral bisection indexing: Fiedler vector by deflated Lanczos
/// (see lanczos.hpp), median split, recurse. This is the method the paper
/// uses for its experimental mesh ("Recursive Spectral Bisection-based
/// indexing").
/// Sibling subtrees are bisected concurrently on all hardware threads
/// (graphs of a few thousand vertices stay on the caller); the permutation
/// is bit-identical for every thread count.
[[nodiscard]] std::vector<Vertex> spectral_order(const Csr& g, SpectralOptions opts = {});

namespace detail {
/// spectral_order on exactly `threads` threads, whatever the graph's size —
/// the seam the thread-count invariance tests drive.
[[nodiscard]] std::vector<Vertex> spectral_order(const Csr& g, const SpectralOptions& opts,
                                                 unsigned threads);
}  // namespace detail

/// Reverse Cuthill–McKee from a pseudo-peripheral start vertex.
[[nodiscard]] std::vector<Vertex> cuthill_mckee_order(const Csr& g);

/// position -> vertex from vertex -> position (and vice versa).
[[nodiscard]] std::vector<Vertex> invert(std::span<const Vertex> perm);

/// True if perm is a permutation of 0..n-1.
[[nodiscard]] bool is_permutation(std::span<const Vertex> perm);

}  // namespace stance::order
