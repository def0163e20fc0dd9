// Tests for the Phase-A orderings: every method must produce a permutation,
// be deterministic, and the locality-aware methods must beat the random
// baseline on contiguous-partition edge cut (the paper's §3.1 property).
// Spectral ordering is additionally pinned bit for bit: its permutation must
// not depend on how many threads bisect the subtrees.
#include <gtest/gtest.h>

#include <cstdint>

#include "graph/builders.hpp"
#include "graph/metrics.hpp"
#include "mp/transport.hpp"
#include "order/ordering.hpp"
#include "order/quality.hpp"
#include "support/fnv.hpp"

namespace stance::order {
namespace {

using graph::Csr;
using graph::EdgeIndex;

const Csr& test_mesh() {
  static const Csr g = graph::random_delaunay(600, 42);
  return g;
}

// --- basic helpers -----------------------------------------------------------

TEST(Invert, RoundTrips) {
  const std::vector<Vertex> perm{2, 0, 3, 1};
  const auto inv = invert(perm);
  EXPECT_EQ(inv, (std::vector<Vertex>{1, 3, 0, 2}));
  EXPECT_EQ(invert(inv), perm);
}

TEST(IsPermutation, DetectsDefects) {
  EXPECT_TRUE(is_permutation(std::vector<Vertex>{0, 1, 2}));
  EXPECT_FALSE(is_permutation(std::vector<Vertex>{0, 0, 2}));
  EXPECT_FALSE(is_permutation(std::vector<Vertex>{0, 1, 3}));
  EXPECT_FALSE(is_permutation(std::vector<Vertex>{-1, 0, 1}));
  EXPECT_TRUE(is_permutation(std::vector<Vertex>{}));
}

TEST(IdentityOrder, IsIdentity) {
  const auto p = identity_order(5);
  for (Vertex i = 0; i < 5; ++i) EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
}

TEST(MethodName, AllNamed) {
  for (const Method m : all_methods()) EXPECT_NE(method_name(m), "?");
}

// --- every method yields a valid deterministic permutation -------------------

class OrderingMethod : public ::testing::TestWithParam<Method> {};

TEST_P(OrderingMethod, ProducesPermutation) {
  const auto perm = compute(test_mesh(), GetParam(), 7);
  EXPECT_EQ(perm.size(), static_cast<std::size_t>(test_mesh().num_vertices()));
  EXPECT_TRUE(is_permutation(perm));
}

TEST_P(OrderingMethod, DeterministicForSeed) {
  const auto a = compute(test_mesh(), GetParam(), 7);
  const auto b = compute(test_mesh(), GetParam(), 7);
  EXPECT_EQ(a, b);
}

TEST_P(OrderingMethod, WorksOnTriangulatedGrid) {
  const Csr g = graph::grid_2d_tri(12, 12);
  const auto perm = compute(g, GetParam(), 3);
  EXPECT_TRUE(is_permutation(perm));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, OrderingMethod,
                         ::testing::ValuesIn(all_methods().begin(), all_methods().end()),
                         [](const auto& info) {
                           std::string n = method_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// --- locality quality ---------------------------------------------------------

EdgeIndex cut_at(const Csr& g, const std::vector<Vertex>& perm, int parts) {
  const Csr pg = g.permuted(perm);
  const std::vector<int> procs{parts};
  return graph::cut_profile(pg, procs)[0];
}

class LocalityMethod : public ::testing::TestWithParam<Method> {};

TEST_P(LocalityMethod, BeatsRandomBaselineOnMesh) {
  const Csr& g = test_mesh();
  const auto perm = compute(g, GetParam(), 7);
  const auto rnd = random_order(g.num_vertices(), 99);
  for (const int parts : {2, 4, 8}) {
    EXPECT_LT(cut_at(g, perm, parts), cut_at(g, rnd, parts) / 2)
        << method_name(GetParam()) << " at p=" << parts;
  }
}

TEST_P(LocalityMethod, GoodForAWideRangeOfPartitions) {
  // The paper's §3.1 claim: one transformation serves many processor counts.
  // Sanity bound: cut at p parts stays under c * sqrt(n * p) for meshes.
  const Csr& g = test_mesh();
  const auto perm = compute(g, GetParam(), 7);
  const double n = static_cast<double>(g.num_vertices());
  for (const int parts : {2, 3, 5, 8, 16}) {
    // A random order cuts ~E*(1-1/p) edges (~1400+ here); locality-aware
    // orders stay within a multiple of the sqrt(n*p) mesh-cut scaling.
    const double bound = 12.0 * std::sqrt(n * parts);
    EXPECT_LT(static_cast<double>(cut_at(g, perm, parts)), bound)
        << method_name(GetParam()) << " at p=" << parts;
  }
}

INSTANTIATE_TEST_SUITE_P(GeometricAndSpectral, LocalityMethod,
                         ::testing::Values(Method::kRcb, Method::kInertial,
                                           Method::kMorton, Method::kHilbert,
                                           Method::kSpectral, Method::kCuthillMckee),
                         [](const auto& info) {
                           std::string n = method_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// --- method-specific behaviour -------------------------------------------------

TEST(RcbOrder, SplitsAlongLongAxisFirst) {
  // Points strung along x: RCB order must follow x order.
  std::vector<graph::Point2> pts;
  for (int i = 0; i < 16; ++i) pts.push_back({static_cast<double>(i), 0.1});
  const auto perm = rcb_order(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(perm[i], static_cast<Vertex>(i));
  }
}

TEST(HilbertOrder, NeighborsOnCurveAreClose) {
  // Hilbert's defining property vs Morton: consecutive curve positions are
  // adjacent grid cells. Check mean jump distance is small.
  const auto pts = graph::random_points(2000, 5);
  const auto perm = hilbert_order(pts);
  const auto pos_to_vertex = invert(perm);
  double total = 0.0;
  for (std::size_t i = 1; i < pos_to_vertex.size(); ++i) {
    total += dist(pts[static_cast<std::size_t>(pos_to_vertex[i - 1])],
                  pts[static_cast<std::size_t>(pos_to_vertex[i])]);
  }
  const double mean_jump = total / static_cast<double>(pos_to_vertex.size() - 1);
  EXPECT_LT(mean_jump, 0.08);  // ~sqrt(1/2000)=0.022 ideal; generous bound
}

TEST(CuthillMckee, ReducesBandwidthOnGrid) {
  // Row-major grid has bandwidth nx; RCM should not exceed it and must
  // crush the bandwidth of a randomly permuted version.
  const Csr g = graph::grid_2d(20, 20);
  const auto rnd = random_order(g.num_vertices(), 3);
  const Csr shuffled = g.permuted(rnd);
  const auto rcm = cuthill_mckee_order(shuffled);
  EXPECT_LE(graph::bandwidth(shuffled.permuted(rcm)), 2 * 20);
  EXPECT_GT(graph::bandwidth(shuffled), 100);
}

TEST(CuthillMckee, HandlesDisconnectedGraphs) {
  const Csr g = Csr::from_edges(
      6, std::vector<graph::Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto perm = cuthill_mckee_order(g);
  EXPECT_TRUE(is_permutation(perm));
}

/// Two 8-cliques joined by the single edge 7-8.
Csr dumbbell() {
  std::vector<graph::Edge> edges;
  for (Vertex i = 0; i < 8; ++i) {
    for (Vertex j = static_cast<Vertex>(i + 1); j < 8; ++j) {
      edges.push_back({i, j});          // clique A: 0..7
      edges.push_back({static_cast<Vertex>(i + 8), static_cast<Vertex>(j + 8)});
    }
  }
  edges.push_back({7, 8});  // bridge
  return Csr::from_edges(16, edges);
}

/// Disjoint union of two triangulated grids (81 + 77 vertices): the
/// Laplacian's zero eigenvalue is double, so the Fiedler vector is the
/// component indicator.
Csr two_components() {
  const Csr a = graph::grid_2d_tri(9, 9);
  const Csr b = graph::grid_2d_tri(7, 11);
  std::vector<graph::Edge> edges;
  for (Vertex u = 0; u < a.num_vertices(); ++u) {
    for (const Vertex v : a.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  const Vertex off = a.num_vertices();
  for (Vertex u = 0; u < b.num_vertices(); ++u) {
    for (const Vertex v : b.neighbors(u)) {
      if (u < v) edges.push_back({static_cast<Vertex>(u + off), static_cast<Vertex>(v + off)});
    }
  }
  return Csr::from_edges(static_cast<Vertex>(off + b.num_vertices()), edges);
}

TEST(SpectralOrder, SplitsDumbbellAtTheBridge) {
  // Two dense cliques joined by one edge: the Fiedler split must separate
  // the cliques, so a 2-way contiguous cut of the ordering cuts ~1 edge.
  const Csr g = dumbbell();
  const auto perm = spectral_order(g);
  EXPECT_TRUE(is_permutation(perm));
  EXPECT_LE(cut_at(g, perm, 2), 2);
}

TEST(SpectralOrder, OptionsValidated) {
  SpectralOptions bad;
  bad.leaf_size = 1;
  EXPECT_THROW(spectral_order(test_mesh(), bad), std::invalid_argument);
  bad = SpectralOptions{};
  bad.lanczos_steps = 0;
  EXPECT_THROW(spectral_order(test_mesh(), bad), std::invalid_argument);
}

// --- spectral bit-identity oracles ------------------------------------------
// FNV-1a fingerprints of spectral_order's permutation, recorded from the
// serial implementation that preceded subtree-parallel bisection. Any
// change to the Lanczos arithmetic, the seed assignment or the median split
// moves them.
//
// The values hold for builds that keep a*b+c as two roundings (the default
// x86-64 target). Where the compiler may contract it into an FMA
// (-march=native on FMA hardware, aarch64) the Fiedler vectors' last bits
// differ, so only the thread-count invariance is checked there.
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
constexpr bool kPinsApply = false;
#else
constexpr bool kPinsApply = true;
#endif

std::uint64_t fingerprint(const std::vector<Vertex>& perm) {
  support::Fnv1a h;
  for (const Vertex v : perm) h.mix(static_cast<std::uint64_t>(v));
  return h.digest();
}

struct PinnedCase {
  const char* name;
  Csr graph;
  SpectralOptions opts;
  std::uint64_t fingerprint;
};

SpectralOptions opts_with(Vertex leaf_size, int lanczos_steps = SpectralOptions{}.lanczos_steps,
                          std::uint64_t seed = SpectralOptions{}.seed) {
  SpectralOptions o;
  o.leaf_size = leaf_size;
  o.lanczos_steps = lanczos_steps;
  o.seed = seed;
  return o;
}

/// Small pinned inputs: all but the last fall below the public entry's
/// serial cutoff, so the sweep below is what runs them threaded.
const std::vector<PinnedCase>& pinned_cases() {
  const Vertex leaf = SpectralOptions{}.leaf_size;
  static const std::vector<PinnedCase> cases{
      {"test_mesh", test_mesh(), {}, 0xa69f99c18afa5c0full},
      {"dumbbell_leaf4", dumbbell(), opts_with(4), 0x4f01a3cfd85e15a3ull},
      {"two_components", two_components(), {}, 0xbcd720380e2e474aull},
      {"leaf_size_plus_one", graph::random_delaunay(leaf + 1, 3), {}, 0x5b70b0cf000b4eb1ull},
      {"odd_n", graph::random_delaunay(1001, 11), {}, 0x5e315eb0b1de87cbull},
      {"lanczos_steps_ge_n", graph::random_delaunay(120, 9), opts_with(leaf, 200),
       0x2419f4b32cb1c263ull},
      {"leaf2_deep_tree", graph::random_delaunay(257, 23), opts_with(2, 60, 5),
       0x2ee53e5dcd56fa2full},
      {"mesh_2500", graph::random_delaunay(2500, 17), {}, 0x7b57a7082db483a7ull},
  };
  return cases;
}

TEST(SpectralPins, PublicEntryMatchesRecordedFingerprints) {
  if (!kPinsApply) GTEST_SKIP() << "FMA target: fingerprints are build-specific";
  for (const auto& c : pinned_cases()) {
    EXPECT_EQ(fingerprint(spectral_order(c.graph, c.opts)), c.fingerprint) << c.name;
  }
}

TEST(SpectralPins, PaperMeshMatchesRecordedFingerprint) {
  // The paper-scale mesh takes the threaded path on any multi-core host.
  // compute() is the Phase A entry the runtime calls (default options).
  if (!kPinsApply) GTEST_SKIP() << "FMA target: fingerprints are build-specific";
  // Ordering never touches the transport: the tcp rerun of this binary would
  // only repeat the 30k-vertex solve (the costliest case under TSan).
  if (mp::resolve_transport_kind(mp::TransportKind::kDefault) != mp::TransportKind::kVirtual) {
    GTEST_SKIP() << "transport-independent; runs on the virtual backend only";
  }
  EXPECT_EQ(fingerprint(compute(graph::paper_mesh(), Method::kSpectral)), 0x38d2b935a976ea0dull);
}

TEST(SpectralPins, PermutationIndependentOfThreadCount) {
  for (const auto& c : pinned_cases()) {
    const auto serial = detail::spectral_order(c.graph, c.opts, 1);
    if (kPinsApply) {
      EXPECT_EQ(fingerprint(serial), c.fingerprint) << c.name;
    }
    for (const unsigned threads : {2u, 3u, 4u, 7u}) {
      EXPECT_EQ(detail::spectral_order(c.graph, c.opts, threads), serial)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(SpectralPins, DetailSeamValidatesLikeThePublicEntry) {
  EXPECT_THROW((void)detail::spectral_order(test_mesh(), opts_with(1), 4), std::invalid_argument);
  EXPECT_THROW((void)detail::spectral_order(test_mesh(), {}, 0), std::invalid_argument);
  // Graphs no larger than a leaf, and the empty graph, on many threads.
  EXPECT_EQ(detail::spectral_order(graph::random_delaunay(20, 1), {}, 4), identity_order(20));
  EXPECT_TRUE(detail::spectral_order(Csr::from_edges(0, {}), {}, 3).empty());
}

TEST(ComputeDispatch, CoordlessGraphRejectsGeometricMethods) {
  const Csr g = Csr::from_edges(4, std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 3}});
  EXPECT_THROW(compute(g, Method::kRcb), std::invalid_argument);
  EXPECT_THROW(compute(g, Method::kHilbert), std::invalid_argument);
  // Edge-based methods are fine.
  EXPECT_TRUE(is_permutation(compute(g, Method::kCuthillMckee)));
  EXPECT_TRUE(is_permutation(compute(g, Method::kSpectral)));
}

TEST(CompareOrderings, SkipsGeometricWithoutCoords) {
  const Csr g = Csr::from_edges(4, std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 3}});
  const std::vector<int> procs{2};
  const auto reports = compare_orderings(g, all_methods(), procs);
  // identity, random, spectral, cuthill-mckee survive.
  EXPECT_EQ(reports.size(), 4u);
}

TEST(EvaluateOrdering, ReportsCutsPerProcCount) {
  const Csr& g = test_mesh();
  const auto perm = compute(g, Method::kHilbert);
  const std::vector<int> procs{1, 2, 4};
  const auto r = evaluate_ordering(g, perm, Method::kHilbert, procs);
  ASSERT_EQ(r.cuts.size(), 3u);
  EXPECT_EQ(r.cuts[0], 0);
  EXPECT_GT(r.bandwidth, 0);
  EXPECT_GT(r.avg_edge_span, 0.0);
}

}  // namespace
}  // namespace stance::order
