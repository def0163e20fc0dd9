// Unit tests for graph::Csr.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "graph/builders.hpp"
#include "graph/csr.hpp"
#include "graph/delta.hpp"

namespace stance::graph {
namespace {

Csr triangle() {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  return Csr::from_edges(3, edges);
}

TEST(Csr, EmptyGraph) {
  const Csr g = Csr::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Csr, IsolatedVertices) {
  const Csr g = Csr::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_FALSE(g.is_connected());
}

TEST(Csr, TriangleStructure) {
  const Csr g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 2.0);
}

TEST(Csr, NeighborsAreSorted) {
  const std::vector<Edge> edges{{2, 0}, {2, 3}, {2, 1}};
  const Csr g = Csr::from_edges(4, edges);
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0);
  EXPECT_EQ(nb[1], 1);
  EXPECT_EQ(nb[2], 3);
}

TEST(Csr, SelfLoopsDropped) {
  const std::vector<Edge> edges{{0, 0}, {0, 1}};
  const Csr g = Csr::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Csr, DuplicateEdgesCollapsed) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}};
  const Csr g = Csr::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Csr, OutOfRangeEdgeRejected) {
  const std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW(Csr::from_edges(3, edges), std::invalid_argument);
}

TEST(Csr, EdgeListRoundTrips) {
  const Csr g = triangle();
  const auto edges = g.edge_list();
  const Csr g2 = Csr::from_edges(g.num_vertices(), edges);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.offsets(), g.offsets());
  EXPECT_EQ(g2.targets(), g.targets());
}

TEST(Csr, CoordsAttachAndValidate) {
  Csr g = triangle();
  EXPECT_FALSE(g.has_coords());
  g.set_coords({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_TRUE(g.has_coords());
  EXPECT_DOUBLE_EQ(g.coord(1).x, 1.0);
  EXPECT_THROW(g.set_coords({{0, 0}}), std::invalid_argument);
}

TEST(Csr, PermutedRelabelsEdgesAndCoords) {
  Csr g = triangle();
  g.set_coords({{0, 0}, {1, 0}, {0, 1}});
  // perm: old 0 -> 2, old 1 -> 0, old 2 -> 1.
  const std::vector<Vertex> perm{2, 0, 1};
  const Csr pg = g.permuted(perm);
  EXPECT_EQ(pg.num_edges(), 3);
  EXPECT_TRUE(pg.is_symmetric());
  // Old vertex 0 (coord 0,0) is now vertex 2.
  EXPECT_DOUBLE_EQ(pg.coord(2).x, 0.0);
  EXPECT_DOUBLE_EQ(pg.coord(0).x, 1.0);  // old vertex 1
}

TEST(Csr, PermutedByIdentityIsIdentical) {
  const Csr g = triangle();
  const std::vector<Vertex> id{0, 1, 2};
  const Csr pg = g.permuted(id);
  EXPECT_EQ(pg.offsets(), g.offsets());
  EXPECT_EQ(pg.targets(), g.targets());
}

TEST(Csr, PermutedPreservesDegreeMultiset) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Csr g = Csr::from_edges(4, edges);
  const std::vector<Vertex> perm{3, 1, 0, 2};
  const Csr pg = g.permuted(perm);
  std::vector<Vertex> da, db;
  for (Vertex v = 0; v < 4; ++v) {
    da.push_back(g.degree(v));
    db.push_back(pg.degree(perm[static_cast<std::size_t>(v)]));
  }
  EXPECT_EQ(da, db);
}

TEST(Csr, PathGraphConnectivity) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  EXPECT_TRUE(Csr::from_edges(4, edges).is_connected());
  const std::vector<Edge> split{{0, 1}, {2, 3}};
  EXPECT_FALSE(Csr::from_edges(4, split).is_connected());
}

TEST(Csr, PermutationSizeValidated) {
  const Csr g = triangle();
  const std::vector<Vertex> bad{0, 1};
  EXPECT_THROW(g.permuted(bad), std::invalid_argument);
}

// --- fingerprint: pinned digests and the memo's lifecycle -------------------

// Digests of the two reference meshes, stripped to bare structure and then
// given their coordinates and/or the weights of ramp_weights(). Plan-cache
// keys and delta stamps are built on these values: they must never move.
constexpr std::uint64_t kTinyBare = 0xc08a57ef16d784a4ull;
constexpr std::uint64_t kTinyCoords = 0xd1f08296c7b7c157ull;
constexpr std::uint64_t kTinyWeights = 0x8b1c1b7b2023cf55ull;
constexpr std::uint64_t kTinyBoth = 0xd28b16fee2749fceull;
constexpr std::uint64_t kPaperBare = 0xe12dd97e9d6489c8ull;
constexpr std::uint64_t kPaperCoords = 0x7b3302c2ef9dfc75ull;
constexpr std::uint64_t kPaperWeights = 0xae0bc083819120edull;
constexpr std::uint64_t kPaperBoth = 0xb5c3122605bfd108ull;

std::vector<double> ramp_weights(Vertex nv) {
  std::vector<double> w(static_cast<std::size_t>(nv));
  for (Vertex v = 0; v < nv; ++v) w[static_cast<std::size_t>(v)] = 1.0 + 0.25 * (v % 7);
  return w;
}

Csr bare(const Csr& g) { return Csr::from_edges(g.num_vertices(), g.edge_list()); }

void expect_pinned(const Csr& mesh, std::uint64_t k_bare, std::uint64_t k_coords,
                   std::uint64_t k_weights, std::uint64_t k_both) {
  ASSERT_TRUE(mesh.has_coords());
  const Csr b = bare(mesh);
  EXPECT_EQ(b.fingerprint(), k_bare);
  Csr c = b;
  c.set_coords(mesh.coords());
  EXPECT_EQ(c.fingerprint(), k_coords);
  Csr w = b;
  w.set_weights(ramp_weights(b.num_vertices()));
  EXPECT_EQ(w.fingerprint(), k_weights);
  Csr cw = c;
  cw.set_weights(ramp_weights(b.num_vertices()));
  EXPECT_EQ(cw.fingerprint(), k_both);
  EXPECT_EQ(mesh.fingerprint(), k_coords);
}

TEST(CsrFingerprint, PinnedDigestsOfTheReferenceMeshes) {
  expect_pinned(tiny_mesh(), kTinyBare, kTinyCoords, kTinyWeights, kTinyBoth);
  expect_pinned(paper_mesh(), kPaperBare, kPaperCoords, kPaperWeights, kPaperBoth);
}

TEST(CsrFingerprint, MutatorsAfterAFirstCallRehashLikeAFreshGraph) {
  const Csr mesh = tiny_mesh();
  Csr g = bare(mesh);
  EXPECT_EQ(g.fingerprint(), kTinyBare);
  g.set_coords(mesh.coords());
  EXPECT_EQ(g.fingerprint(), kTinyCoords);
  g.set_weights(ramp_weights(g.num_vertices()));
  EXPECT_EQ(g.fingerprint(), kTinyBoth);

  Csr h = bare(mesh);
  EXPECT_EQ(h.fingerprint(), kTinyBare);
  h.set_weights(ramp_weights(h.num_vertices()));
  EXPECT_EQ(h.fingerprint(), kTinyWeights);
  EXPECT_THROW(h.set_coords({{0, 0}}), std::invalid_argument);  // rejected: no change
  EXPECT_EQ(h.fingerprint(), kTinyWeights);
  h.set_coords(mesh.coords());
  EXPECT_EQ(h.fingerprint(), kTinyBoth);
}

TEST(CsrFingerprint, CopiesAndMovesCarryTheDigest) {
  Csr src = tiny_mesh();
  ASSERT_EQ(src.fingerprint(), kTinyCoords);

  Csr copy = src;
  EXPECT_EQ(copy.fingerprint(), kTinyCoords);
  copy.set_weights(ramp_weights(copy.num_vertices()));
  EXPECT_EQ(copy.fingerprint(), kTinyBoth);
  EXPECT_EQ(src.fingerprint(), kTinyCoords);  // the copy's edit is its own

  Csr assigned = triangle();
  ASSERT_NE(assigned.fingerprint(), kTinyCoords);
  assigned = src;
  EXPECT_EQ(assigned.fingerprint(), kTinyCoords);
  assigned = copy;
  EXPECT_EQ(assigned.fingerprint(), kTinyBoth);

  Csr moved(std::move(copy));
  EXPECT_EQ(moved.fingerprint(), kTinyBoth);
  // A moved-from vector is empty, so the source now hashes as an empty graph.
  EXPECT_EQ(copy.fingerprint(), Csr{}.fingerprint());

  Csr move_assigned = bare(tiny_mesh());
  ASSERT_EQ(move_assigned.fingerprint(), kTinyBare);
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.fingerprint(), kTinyBoth);
}

TEST(CsrFingerprint, ApplyResultMatchesARecomputation) {
  const Csr g = tiny_mesh();
  const auto edges = g.edge_list();
  CsrDelta d;
  d.insert_edges = {{0, 8}, {2, 6}};
  d.remove_edges = {edges[3], edges[10]};
  d.weight_edits = {{1, 3.0}, {7, 0.5}};
  const Csr g2 = g.apply(d);
  Csr fresh = bare(g2);
  fresh.set_coords(g2.coords());
  fresh.set_weights(g2.weights());
  EXPECT_EQ(g2.fingerprint(), fresh.fingerprint());
  EXPECT_EQ(d.result_fingerprint, fresh.fingerprint());
  EXPECT_NE(d.result_fingerprint, kTinyCoords);
  EXPECT_EQ(d.base_fingerprint, kTinyCoords);
}

TEST(CsrFingerprint, RacingFirstCallsAgree) {
  // One shared, never-hashed graph; four threads released together so the
  // first calls overlap. Under ThreadSanitizer this is the memo's race check.
  const Csr g = paper_mesh();
  constexpr int kThreads = 4;
  std::array<std::uint64_t, kThreads> seen{};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(t)] = g.fingerprint();
    });
  }
  for (auto& th : threads) th.join();
  for (const std::uint64_t fp : seen) EXPECT_EQ(fp, kPaperCoords);
}

}  // namespace
}  // namespace stance::graph
