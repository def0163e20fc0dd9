// Lanczos eigensolver for graph-Laplacian Fiedler vectors.
//
// Recursive spectral bisection needs the eigenvector of the second-smallest
// Laplacian eigenvalue. Power iteration on a shifted operator converges at a
// rate governed by the (tiny) spectral gap of mesh Laplacians and is useless
// at 30k vertices; the classical answer — used by Pothen/Simon/Liou, the
// method the paper's RSB reference builds on — is Lanczos tridiagonalization
// with the constant vector deflated, whose extreme Ritz pairs converge in
// tens of iterations.
//
// Every reduction (dot products, norms, the QL sweeps) adds along one
// floating-point chain in index order; that order fixes the bits of the
// result, so nothing here is split across threads. Callers that run many
// solves concurrently (spectral.cpp bisects disjoint subtrees at once) give
// each solve its own column slice of one shared KrylovBlock.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace stance::order {

struct LanczosOptions {
  int max_steps = 80;       ///< Krylov dimension (and full reorthogonalization)
  double tolerance = 1e-8;  ///< residual tolerance on the Ritz pair
  std::uint64_t seed = 7;
};

/// Symmetric tridiagonal eigensolver (implicit QL with Wilkinson shifts,
/// the classic `tql2`). `diag` (n) and `off` (n-1, subdiagonal) are
/// destroyed; on return `diag` holds eigenvalues ascending and `vecs` is
/// n*n row-major with vecs[i*n+j] = component i of eigenvector j.
/// Exposed for unit testing.
void tql2(std::vector<double>& diag, std::vector<double>& off,
          std::vector<double>& vecs);

/// Caller-owned storage for the Krylov basis: `rows` rows of `stride`
/// doubles starting at `data`, of which a solve of dimension n uses the
/// first n columns. A solve with m = min(max_steps, n-1) steps needs
/// m + 2 rows (m + 1 basis vectors plus the work vector, which finally
/// holds the Ritz vector). Slices of one allocation at distinct column
/// offsets never overlap, so concurrent solves may share it.
struct KrylovBlock {
  double* data = nullptr;
  std::size_t stride = 0;
  std::size_t rows = 0;

  [[nodiscard]] double* row(std::size_t r) const { return data + r * stride; }
  /// The same rows, columns shifted by `offset`.
  [[nodiscard]] KrylovBlock columns_from(std::size_t offset) const {
    return {data + offset, stride, rows};
  }
};

/// Rows a KrylovBlock needs for a solve of dimension n.
[[nodiscard]] std::size_t krylov_rows(std::size_t n, const LanczosOptions& opts);

/// Per-thread O(max_steps^2) scratch for the tridiagonal problem, reused
/// across solves so steady-state solves do not allocate.
struct LanczosScratch {
  std::vector<double> alpha, beta;  ///< T's diagonal and subdiagonal
  std::vector<double> diag, off;    ///< tql2 working copies
  std::vector<double> vecs;         ///< tql2 eigenvectors, k*k by column
};

/// smallest_eigvec_deflated on caller storage: runs in `block`'s first n
/// columns (at least krylov_rows(n, opts) rows) and returns the normalized
/// Ritz vector as a view into the block's last used row. The allocating
/// smallest_eigvec_deflated below wraps it, so the two are bit-identical.
std::span<const double> smallest_eigvec_in_block(
    std::size_t n, const std::function<void(const double*, double*)>& apply,
    const LanczosOptions& opts, KrylovBlock block, LanczosScratch& scratch);

/// Approximate the eigenvector of the *smallest* eigenvalue of the symmetric
/// operator `apply` (y = A x, dimension n), restricted to the subspace
/// orthogonal to the all-ones vector. For A = graph Laplacian this is the
/// Fiedler vector. Deterministic for a given seed.
std::vector<double> smallest_eigvec_deflated(
    std::size_t n, const std::function<void(const double*, double*)>& apply,
    const LanczosOptions& opts);

}  // namespace stance::order
