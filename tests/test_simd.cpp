// Determinism oracles for the SIMD pack path: the AVX2 gather kernels must
// be byte-identical to the scalar loops at the kernel level for every
// element width, offset, and tail shape, and every executor (gather/scatter,
// IrregularLoop, EdgeSweep, CG) must match its sequential reference in the
// process-wide dispatch mode. ctest runs this binary twice: once as the
// host resolves the mode and once as test_simd_scalar under
// STANCE_SIMD=scalar, so both pack paths run end to end on an AVX2 host.
// Also covers STANCE_SIMD mode resolution. The kernel comparison self-skips
// on hosts without AVX2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/cg.hpp"
#include "exec/edge_sweep.hpp"
#include "exec/gather_scatter.hpp"
#include "exec/irregular_loop.hpp"
#include "exec/operators.hpp"
#include "exec/simd.hpp"
#include "graph/builders.hpp"
#include "mp/cluster.hpp"
#include "test_util.hpp"

#define STANCE_REQUIRE_AVX2()                                   \
  if (!exec::simd::avx2_supported())                            \
  GTEST_SKIP() << "host CPU has no AVX2; scalar-only coverage " \
                  "already asserted elsewhere in this suite"

namespace stance {
namespace {

using exec::simd::Mode;

// --- mode plumbing ----------------------------------------------------------

TEST(SimdMode, NamesAreStable) {
  EXPECT_STREQ(exec::simd::mode_name(Mode::kAuto), "auto");
  EXPECT_STREQ(exec::simd::mode_name(Mode::kScalar), "scalar");
  EXPECT_STREQ(exec::simd::mode_name(Mode::kAvx2), "avx2");
}

TEST(SimdMode, DispatchNeverReturnsAuto) {
  const Mode m = exec::simd::dispatch_mode();
  EXPECT_NE(m, Mode::kAuto);
  if (!exec::simd::avx2_supported()) {
    EXPECT_EQ(m, Mode::kScalar);
  }
}

TEST(SimdMode, ResolveIsIdentityForScalarAndChecksAvx2) {
  EXPECT_EQ(exec::simd::resolve(Mode::kScalar), Mode::kScalar);
  EXPECT_EQ(exec::simd::resolve(Mode::kAuto), exec::simd::dispatch_mode());
  if (exec::simd::avx2_supported()) {
    EXPECT_EQ(exec::simd::resolve(Mode::kAvx2), Mode::kAvx2);
  } else {
    EXPECT_THROW((void)exec::simd::resolve(Mode::kAvx2), std::invalid_argument);
  }
}

TEST(SimdMode, DispatchFollowsStanceSimd) {
  const char* raw = std::getenv("STANCE_SIMD");
  const std::string v = raw == nullptr ? "" : raw;
  if (v == "scalar" || v == "off" || v == "0") {
    EXPECT_EQ(exec::simd::dispatch_mode(), Mode::kScalar);
  } else if (v.empty() || v == "auto" || v == "on") {
    EXPECT_EQ(exec::simd::dispatch_mode(),
              exec::simd::avx2_supported() ? Mode::kAvx2 : Mode::kScalar);
  }
}

// --- kernel-level byte identity ---------------------------------------------

/// idx: a deterministic scramble of [0, n) with repeats — the worst case a
/// schedule can produce (duplicated ghost references).
std::vector<std::int32_t> scrambled_indices(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> idx(n);
  for (std::size_t k = 0; k < n; ++k) {
    idx[k] = static_cast<std::int32_t>(
        rng.uniform(0.0, static_cast<double>(n)));
  }
  return idx;
}

template <typename T>
void expect_pack_identical(std::size_t n, std::uint64_t seed) {
  const auto idx = scrambled_indices(n == 0 ? 1 : n, seed);
  std::vector<T> src(n == 0 ? 1 : n);
  for (std::size_t i = 0; i < src.size(); ++i) {
    T v{};
    const auto bits = 0x9E3779B97F4A7C15ull * (seed + i + 1);
    std::memcpy(&v, &bits, sizeof(T));
    src[i] = v;
  }
  // Offset starts exercise unaligned index and destination pointers (a
  // frame packs several lists back to back); sentinel padding catches
  // out-of-range writes.
  for (const std::size_t begin : {std::size_t{0}, std::min(n, std::size_t{3})}) {
    std::vector<T> scalar_dst(n + 8, T{}), simd_dst(n + 8, T{});
    exec::simd::pack_indexed(src.data(), idx.data() + begin, n - begin,
                             scalar_dst.data() + begin, Mode::kScalar);
    exec::simd::pack_indexed(src.data(), idx.data() + begin, n - begin,
                             simd_dst.data() + begin, Mode::kAvx2);
    ASSERT_EQ(std::memcmp(scalar_dst.data(), simd_dst.data(),
                          scalar_dst.size() * sizeof(T)),
              0)
        << "n=" << n << " begin=" << begin << " width=" << sizeof(T);
  }
}

TEST(SimdPack, ByteIdenticalForEveryWidthAndTailShape) {
  STANCE_REQUIRE_AVX2();
  // Sizes straddle every vector-width boundary: empty, sub-vector, exact
  // multiples, one-past, and large.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{31},
                              std::size_t{32}, std::size_t{33},
                              std::size_t{1000}, std::size_t{65536}}) {
    expect_pack_identical<double>(n, 11 + n);
    expect_pack_identical<float>(n, 12 + n);
    expect_pack_identical<std::uint64_t>(n, 13 + n);
    expect_pack_identical<std::int32_t>(n, 14 + n);
  }
}

// --- executors against their sequential references ------------------------
// These run in whatever mode dispatch_mode() resolved, so the two ctest
// registrations of this binary cover the AVX2 and the scalar pack paths.

/// This rank's slice of a global vector under `part`.
std::vector<double> local_slice(const partition::IntervalPartition& part, mp::Rank rank,
                                const std::vector<double>& global) {
  std::vector<double> out(static_cast<std::size_t>(part.size(rank)));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = global[static_cast<std::size_t>(
        part.to_global(rank, static_cast<graph::Vertex>(i)))];
  }
  return out;
}

TEST(SimdExec, GatherScatterMatchGlobalReference) {
  Rng rng(41);
  const graph::Csr g = graph::random_delaunay(3000, 41);
  const auto part = test::random_partition(g.num_vertices(), 4, rng);
  const auto results = test::build_all_schedules(g, part);
  const auto x = test::seeded_values(static_cast<std::size_t>(g.num_vertices()), 500);

  // Sequential reference: every ghost reads its owner's value, and each
  // owner adds the ghosts' contributions back in ascending source rank —
  // the combine order the executor guarantees.
  std::vector<double> expected = x;
  for (const auto& ir : results) {
    for (const auto global : ir.schedule.ghost_globals) {
      expected[static_cast<std::size_t>(global)] += x[static_cast<std::size_t>(global)];
    }
  }

  mp::Cluster cluster(sim::MachineSpec::uniform(results.size()));
  cluster.run([&](mp::Process& p) {
    const auto& s = results[static_cast<std::size_t>(p.rank())].schedule;
    std::vector<double> local = local_slice(part, p.rank(), x);
    std::vector<double> ghost(static_cast<std::size_t>(s.nghost), 0.0);
    exec::gather<double>(p, s, local, std::span<double>(ghost));
    for (std::size_t slot = 0; slot < ghost.size(); ++slot) {
      EXPECT_EQ(ghost[slot], x[static_cast<std::size_t>(s.ghost_globals[slot])])
          << "slot " << slot;
    }
    exec::scatter_add<double>(p, s, ghost, std::span<double>(local));
    test::expect_vectors_eq(local, local_slice(part, p.rank(), expected));
  });
}

TEST(SimdExec, IrregularLoopMatchesReferenceIterate) {
  Rng rng(42);
  const graph::Csr g = graph::random_delaunay(2000, 42);
  const auto part = test::random_partition(g.num_vertices(), 3, rng);
  const auto results = test::build_all_schedules(g, part);
  const auto y0 = test::seeded_values(static_cast<std::size_t>(g.num_vertices()), 600);
  std::vector<double> reference = y0;
  exec::IrregularLoop::reference_iterate(g, reference, 5);

  mp::Cluster cluster(sim::MachineSpec::uniform(results.size()));
  cluster.run([&](mp::Process& p) {
    const auto& ir = results[static_cast<std::size_t>(p.rank())];
    exec::IrregularLoop loop(ir.lgraph, ir.schedule);
    std::vector<double> y = local_slice(part, p.rank(), y0);
    loop.iterate(p, y, 5);
    test::expect_vectors_eq(y, local_slice(part, p.rank(), reference));  // bit-identical
  });
}

TEST(SimdExec, EdgeSweepMatchesReferenceSweep) {
  Rng rng(43);
  const graph::Csr g = graph::random_delaunay(2000, 43);
  const auto part = test::random_partition(g.num_vertices(), 3, rng);
  const auto results = test::build_all_schedules(g, part);
  const auto y = test::seeded_values(static_cast<std::size_t>(g.num_vertices()), 700);
  std::vector<double> reference(y.size());
  exec::EdgeSweep::reference_sweep(g, y, reference);

  mp::Cluster cluster(sim::MachineSpec::uniform(results.size()));
  cluster.run([&](mp::Process& p) {
    const auto& ir = results[static_cast<std::size_t>(p.rank())];
    exec::EdgeSweep sweep(ir.lgraph, ir.schedule);
    const std::vector<double> yl = local_slice(part, p.rank(), y);
    const std::vector<double> expected = local_slice(part, p.rank(), reference);
    std::vector<double> acc(yl.size(), 0.0);
    sweep.sweep(p, yl, acc);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      // The sweep adds fluxes in a different order than the reference.
      EXPECT_NEAR(acc[i], expected[i], 1e-12 * (1.0 + std::abs(expected[i]))) << "local " << i;
    }
  });
}

TEST(SimdExec, ConjugateGradientMatchesReferenceApply) {
  const auto g = graph::random_delaunay(800, 44);
  const auto part = partition::IntervalPartition::from_weights(
      g.num_vertices(), std::vector<double>{1, 2, 1});
  const auto results = test::build_all_schedules(g, part);
  const auto x_star = test::seeded_values(static_cast<std::size_t>(g.num_vertices()), 44);
  std::vector<double> b(x_star.size());
  exec::LaplacianOperator::reference_apply(g, 0.5, x_star, b);

  mp::Cluster cluster(sim::MachineSpec::uniform(results.size()));
  cluster.run([&](mp::Process& p) {
    const auto& ir = results[static_cast<std::size_t>(p.rank())];
    exec::LaplacianOperator A(ir.lgraph, ir.schedule, 0.5);
    // Every SpMV of the solve is this apply: exact against the reference.
    const std::vector<double> xl = local_slice(part, p.rank(), x_star);
    std::vector<double> ax(xl.size());
    A.apply(p, xl, ax);
    const std::vector<double> bl = local_slice(part, p.rank(), b);
    test::expect_vectors_eq(ax, bl);

    std::vector<double> x(xl.size(), 0.0);
    exec::CgOptions opts;
    opts.tolerance = 1e-10;
    const auto result = exec::conjugate_gradient(p, A, bl, x, opts);
    EXPECT_TRUE(result.converged);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], xl[i], 1e-6) << "local " << i;
    }
  });
}

}  // namespace
}  // namespace stance
