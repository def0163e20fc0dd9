#include "order/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace stance::order {
namespace {

double hypot2(double a, double b) { return std::sqrt(a * a + b * b); }

/// tql2 on caller storage: `diag` (n) and `e` (n; subdiagonal in
/// e[0..n-2], e[n-1] = 0) are destroyed; eigenvector j lands contiguously
/// in cols[j*n .. j*n+n) (the transpose of tql2's row-major `vecs`), so
/// each rotation updates two contiguous columns. The per-element arithmetic
/// is the classic routine's, so the values are bit-identical to it.
void tql2_columns(std::size_t n, double* diag, double* e, double* cols) {
  std::fill(cols, cols + n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) cols[i * n + i] = 1.0;
  if (n <= 1) return;

  for (std::size_t l = 0; l < n; ++l) {
    std::size_t iter = 0;
    for (;;) {
      // Find a small subdiagonal element.
      std::size_t m = l;
      while (m + 1 < n) {
        const double dd = std::abs(diag[m]) + std::abs(diag[m + 1]);
        if (std::abs(e[m]) <= 1e-15 * dd) break;
        ++m;
      }
      if (m == l) break;
      STANCE_ASSERT_MSG(++iter <= 60, "tql2: QL iteration failed to converge");

      // Form the implicit Wilkinson shift.
      double g = (diag[l + 1] - diag[l]) / (2.0 * e[l]);
      double r = hypot2(g, 1.0);
      g = diag[m] - diag[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      for (std::size_t i = m; i-- > l;) {
        double f = s * e[i];
        const double b = c * e[i];
        r = hypot2(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          diag[i + 1] -= p;
          e[m] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = diag[i + 1] - p;
        r = (diag[i] - g) * s + 2.0 * c * b;
        p = s * r;
        diag[i + 1] = g + p;
        g = c * r - b;
        // Accumulate the transformation.
        double* const ci = cols + i * n;
        double* const cj = cols + (i + 1) * n;
        for (std::size_t k = 0; k < n; ++k) {
          f = cj[k];
          cj[k] = s * ci[k] + c * f;
          ci[k] = c * ci[k] - s * f;
        }
      }
      if (r == 0.0 && m > l + 1) continue;
      diag[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }

  // Sort eigenvalues (and columns) ascending.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (diag[j] < diag[k]) k = j;
    }
    if (k != i) {
      std::swap(diag[i], diag[k]);
      std::swap_ranges(cols + i * n, cols + (i + 1) * n, cols + k * n);
    }
  }
}

// Vector kernels over the first n entries of a Krylov row. Each reduction
// is one left-to-right chain: the summation order is part of the result.
void deflate(double* v, std::size_t n) {
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += v[i];
  mean /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) v[i] -= mean;
}

double norm(const double* v, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += v[i] * v[i];
  return std::sqrt(s);
}

double dot(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

// Fused passes: an update followed by the next reduction over the updated
// values, element by element. Each element sees the same operations and
// each chain the same order as two separate loops, at one memory pass.

/// w -= c * q, then the dot of the updated w with `next`.
double axpy_dot(double* w, double c, const double* q, const double* next, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] -= c * q[i];
    s += w[i] * next[i];
  }
  return s;
}

/// w -= c * q, then the norm of the updated w.
double axpy_norm(double* w, double c, const double* q, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] -= c * q[i];
    s += w[i] * w[i];
  }
  return std::sqrt(s);
}

}  // namespace

void tql2(std::vector<double>& diag, std::vector<double>& off,
          std::vector<double>& vecs) {
  const std::size_t n = diag.size();
  STANCE_REQUIRE(off.size() + 1 == n || (n == 0 && off.empty()),
                 "tql2: off-diagonal must have n-1 entries");
  // e[i] holds the subdiagonal shifted up one slot, per the classic routine.
  std::vector<double> e(n, 0.0);
  std::copy(off.begin(), off.end(), e.begin());
  std::vector<double> cols(n * n);
  tql2_columns(n, diag.data(), e.data(), cols.data());
  vecs.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) vecs[i * n + j] = cols[j * n + i];
  }
}

std::size_t krylov_rows(std::size_t n, const LanczosOptions& opts) {
  return std::min(static_cast<std::size_t>(opts.max_steps), n - 1) + 2;
}

std::span<const double> smallest_eigvec_in_block(
    std::size_t n, const std::function<void(const double*, double*)>& apply,
    const LanczosOptions& opts, KrylovBlock block, LanczosScratch& scratch) {
  STANCE_REQUIRE(n >= 2, "need at least 2 unknowns");
  const std::size_t m = krylov_rows(n, opts) - 2;
  STANCE_REQUIRE(block.rows >= m + 2 && block.stride >= n,
                 "Krylov block too small for the solve");
  // Rows 0..m hold the Lanczos vectors; row m+1 is w, then the Ritz vector.
  double* const w = block.row(m + 1);

  Rng rng(opts.seed);
  double* const v0 = block.row(0);
  for (std::size_t i = 0; i < n; ++i) v0[i] = rng.uniform(-1.0, 1.0);
  deflate(v0, n);
  double nv = norm(v0, n);
  if (nv < 1e-300) {  // pathological start; use a deterministic ramp
    for (std::size_t i = 0; i < n; ++i) v0[i] = static_cast<double>(i);
    deflate(v0, n);
    nv = norm(v0, n);
  }
  for (std::size_t i = 0; i < n; ++i) v0[i] /= nv;

  auto& alpha = scratch.alpha;  // diagonal of T
  auto& beta = scratch.beta;    // subdiagonal of T
  alpha.clear();
  beta.clear();
  for (std::size_t j = 0; j < m; ++j) {
    const double* const q = block.row(j);
    apply(q, w);
    const double a = dot(w, q, n);
    alpha.push_back(a);
    // w -= a v_j + beta_{j-1} v_{j-1}, summing w for the deflation below.
    const double* const prev = j > 0 ? block.row(j - 1) : nullptr;
    const double b_prev = j > 0 ? beta[j - 1] : 0.0;
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      w[i] -= a * q[i];
      if (prev != nullptr) w[i] -= b_prev * prev[i];
      mean += w[i];
    }
    mean /= static_cast<double>(n);
    // Full reorthogonalization (against the deflated subspace too): cheap at
    // these Krylov sizes and essential for mesh Laplacians. Modified
    // Gram-Schmidt: each pass removes one projection and sums the next dot.
    const double* const q0 = block.row(0);
    double c = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      w[i] -= mean;
      c += w[i] * q0[i];
    }
    for (std::size_t r = 0; r < j; ++r) c = axpy_dot(w, c, block.row(r), block.row(r + 1), n);
    const double b = axpy_norm(w, c, q, n);
    if (b < opts.tolerance) break;  // invariant subspace found
    beta.push_back(b);
    double* const next = block.row(j + 1);
    for (std::size_t i = 0; i < n; ++i) next[i] = w[i] / b;
  }

  // Smallest Ritz pair of T.
  const std::size_t k = alpha.size();
  scratch.diag.assign(alpha.begin(), alpha.end());
  scratch.off.assign(k, 0.0);
  std::copy_n(beta.begin(), std::min(beta.size(), k - 1), scratch.off.begin());
  scratch.vecs.resize(k * k);
  tql2_columns(k, scratch.diag.data(), scratch.off.data(), scratch.vecs.data());

  double* const ritz = w;
  std::fill(ritz, ritz + n, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    const double coeff = scratch.vecs[j];  // eigenvector of the smallest eigenvalue
    if (coeff == 0.0) continue;
    const double* const q = block.row(j);
    for (std::size_t i = 0; i < n; ++i) ritz[i] += coeff * q[i];
  }
  deflate(ritz, n);
  const double rn = norm(ritz, n);
  if (rn > 1e-300) {
    for (std::size_t i = 0; i < n; ++i) ritz[i] /= rn;
  }
  return {ritz, n};
}

std::vector<double> smallest_eigvec_deflated(
    std::size_t n, const std::function<void(const double*, double*)>& apply,
    const LanczosOptions& opts) {
  STANCE_REQUIRE(n >= 2, "need at least 2 unknowns");
  const std::size_t rows = krylov_rows(n, opts);
  std::vector<double> storage(rows * n);
  LanczosScratch scratch;
  const auto ritz =
      smallest_eigvec_in_block(n, apply, opts, KrylovBlock{storage.data(), n, rows}, scratch);
  return {ritz.begin(), ritz.end()};
}

}  // namespace stance::order
