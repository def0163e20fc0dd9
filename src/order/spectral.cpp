// Recursive spectral bisection indexing — the transformation the paper uses
// for its experimental mesh ("Recursive Spectral Bisection-based indexing",
// §5, citing Kaddoura/Ou/Ranka [19] and Pothen/Simon/Liou [26]).
//
// At each recursion level the Fiedler vector (eigenvector of the second-
// smallest Laplacian eigenvalue) of the induced subgraph is approximated by
// deflated Lanczos (lanczos.hpp); the subgraph is split at the median
// Fiedler value and the lower half receives the lower index range.
//
// Sibling subtrees are independent, so they are bisected concurrently; each
// Lanczos solve itself stays serial (its reductions fix the result's bits).
// The permutation is bit-identical for every thread count because nothing a
// node computes depends on which thread runs it or when:
//
//  * The bisection tree's shape depends only on sizes (mid = n/2, leaf
//    size), so the Lanczos seeds — one per internal node, drawn in preorder
//    from one stream — are pre-drawn and looked up by preorder index.
//  * A node owns positions [off, off+n) of the id array, and uses the same
//    columns of every row of one shared Krylov block; concurrent nodes
//    cover disjoint positions, hence disjoint memory.
//  * The induced subgraph is a CSR whose neighbour order matches the parent
//    graph's, so every SpMV sums in the same order.
//
// Scheduling: the tree fans out level by level (each level's nodes bisected
// in parallel) until a level holds at least one node per thread; then each
// thread finishes a contiguous block of that level's subtrees depth-first.
#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "order/lanczos.hpp"
#include "order/ordering.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace stance::order {
namespace {

using graph::EdgeIndex;

/// Below this many vertices the whole ordering runs on the caller: the
/// fork/join handshake would cost more than the subtrees it spreads.
constexpr Vertex kParallelMinVertices = 2048;

/// A node of the bisection tree: positions [off, off+n) of the id array;
/// `index` is its preorder rank among internal nodes (its seed's slot).
struct Node {
  std::size_t off = 0;
  std::size_t n = 0;
  std::size_t index = 0;
};

/// Internal (bisected) nodes in the subtree of a node of size n.
std::size_t internal_nodes(std::size_t n, std::size_t leaf) {
  if (n <= leaf) return 0;
  return 1 + internal_nodes(n / 2, leaf) + internal_nodes(n - n / 2, leaf);
}

/// Per-thread storage reused across every node the thread bisects. The
/// caller reserves it before the fork, so pool threads never allocate;
/// growing it inside per-thread malloc arenas instead cost 1.4 MB more peak
/// RSS on the paper mesh.
struct Scratch {
  Scratch(const Csr& g, std::size_t max_steps)
      : local(static_cast<std::size_t>(g.num_vertices()), -1) {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    offsets.reserve(n + 1);
    adj.reserve(g.targets().size());
    order.reserve(n);
    for (auto* v : {&lanczos.alpha, &lanczos.beta, &lanczos.diag, &lanczos.off}) {
      v->reserve(max_steps);
    }
    lanczos.vecs.reserve(max_steps * max_steps);
  }

  std::vector<Vertex> local;       ///< global -> local id, -1 outside the node
  std::vector<EdgeIndex> offsets;  ///< induced subgraph CSR: row starts
  std::vector<Vertex> adj;         ///< induced subgraph CSR: local neighbours
  std::vector<Vertex> order;       ///< local ids, median-partitioned
  LanczosScratch lanczos;          ///< tridiagonal problem of each solve
};

class Rsb {
 public:
  Rsb(const Csr& g, const SpectralOptions& opts, std::span<Vertex> ids)
      : g_(g), leaf_(static_cast<std::size_t>(opts.leaf_size)), ids_(ids) {
    const std::size_t n = ids.size();
    Rng seed_stream(opts.seed);
    seeds_.resize(internal_nodes(n, leaf_));
    for (auto& s : seeds_) s = seed_stream();
    lopts_.max_steps = opts.lanczos_steps;
    lopts_.tolerance = opts.tolerance;
    if (!seeds_.empty()) {
      const std::size_t rows = krylov_rows(n, lopts_);
      storage_ = std::make_unique_for_overwrite<double[]>(rows * n);
      block_ = KrylovBlock{storage_.get(), n, rows};
    }
  }

  [[nodiscard]] bool is_leaf(const Node& node) const { return node.n <= leaf_; }

  std::pair<Node, Node> children(const Node& node) const {
    const std::size_t mid = node.n / 2;
    return {Node{node.off, mid, node.index + 1},
            Node{node.off + mid, node.n - mid, node.index + 1 + internal_nodes(mid, leaf_)}};
  }

  /// Leaf: sort by original id for determinism (intervals this small are
  /// already local). Internal node: reorder its ids around the median of
  /// the Fiedler vector, the lower half first.
  void visit(const Node& node, Scratch& s) const {
    const auto ids = ids_.subspan(node.off, node.n);
    if (is_leaf(node)) {
      std::sort(ids.begin(), ids.end());
      return;
    }
    induce(ids, s);
    const auto f = fiedler(node, s);
    // Sort the local indices by Fiedler value; median split.
    s.order.resize(node.n);
    std::iota(s.order.begin(), s.order.end(), Vertex{0});
    const std::size_t mid = node.n / 2;
    std::nth_element(s.order.begin(), s.order.begin() + static_cast<std::ptrdiff_t>(mid),
                     s.order.end(), [&](Vertex a, Vertex b) {
                       const double fa = f[static_cast<std::size_t>(a)];
                       const double fb = f[static_cast<std::size_t>(b)];
                       if (fa != fb) return fa < fb;
                       return ids[static_cast<std::size_t>(a)] < ids[static_cast<std::size_t>(b)];
                     });
    for (Vertex& v : s.order) v = ids[static_cast<std::size_t>(v)];
    std::copy(s.order.begin(), s.order.end(), ids.begin());
  }

  /// Visit `node` and its whole subtree depth-first on the calling thread.
  void subtree(const Node& node, Scratch& s) const {
    visit(node, s);
    if (is_leaf(node)) return;
    const auto [left, right] = children(node);
    subtree(left, s);
    subtree(right, s);
  }

 private:
  /// Induced subgraph of `ids` as a local CSR (neighbours in g's order).
  /// Two passes size it exactly, so a thread's scratch never exceeds its
  /// largest node.
  void induce(std::span<const Vertex> ids, Scratch& s) const {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      s.local[static_cast<std::size_t>(ids[i])] = static_cast<Vertex>(i);
    }
    s.offsets.resize(ids.size() + 1);
    s.offsets[0] = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EdgeIndex deg = 0;
      for (const Vertex u : g_.neighbors(ids[i])) deg += s.local[static_cast<std::size_t>(u)] >= 0;
      s.offsets[i + 1] = s.offsets[i] + deg;
    }
    s.adj.resize(static_cast<std::size_t>(s.offsets[ids.size()]));
    auto out = s.adj.begin();
    for (const Vertex v : ids) {
      for (const Vertex u : g_.neighbors(v)) {
        const Vertex lu = s.local[static_cast<std::size_t>(u)];
        if (lu >= 0) *out++ = lu;
      }
    }
    for (const Vertex v : ids) s.local[static_cast<std::size_t>(v)] = -1;
  }

  /// Fiedler vector of the induced subgraph's Laplacian via deflated Lanczos,
  /// in the node's columns of the shared Krylov block.
  std::span<const double> fiedler(const Node& node, Scratch& s) const {
    LanczosOptions lopts = lopts_;
    lopts.seed = seeds_[node.index];
    const std::size_t n = node.n;
    return smallest_eigvec_in_block(
        n,
        [&s, n](const double* x, double* y) {
          for (std::size_t i = 0; i < n; ++i) {
            const auto b = static_cast<std::size_t>(s.offsets[i]);
            const auto e = static_cast<std::size_t>(s.offsets[i + 1]);
            double acc = static_cast<double>(e - b) * x[i];
            for (std::size_t k = b; k < e; ++k) acc -= x[static_cast<std::size_t>(s.adj[k])];
            y[i] = acc;
          }
        },
        lopts, block_.columns_from(node.off), s.lanczos);
  }

  const Csr& g_;
  const std::size_t leaf_;
  const std::span<Vertex> ids_;
  std::vector<std::uint64_t> seeds_;  ///< Lanczos seed by preorder index
  LanczosOptions lopts_;
  std::unique_ptr<double[]> storage_;
  KrylovBlock block_;
};

}  // namespace

namespace detail {

std::vector<Vertex> spectral_order(const Csr& g, const SpectralOptions& opts, unsigned threads) {
  STANCE_REQUIRE(opts.leaf_size >= 2, "spectral leaf size must be >= 2");
  STANCE_REQUIRE(opts.lanczos_steps > 0, "need at least one Lanczos step");
  STANCE_REQUIRE(threads >= 1, "spectral ordering needs at least one thread");
  std::vector<Vertex> ids(static_cast<std::size_t>(g.num_vertices()));
  std::iota(ids.begin(), ids.end(), Vertex{0});
  const Rsb rsb(g, opts, ids);

  // One pool index per thread, so each index owns its Scratch; thread t
  // takes the contiguous block [L*t/T, L*(t+1)/T) of a level of L nodes.
  support::ThreadPool pool(threads);
  std::vector<Scratch> scratch;
  scratch.reserve(threads);
  const std::size_t max_steps = std::min(static_cast<std::size_t>(opts.lanczos_steps), ids.size());
  for (unsigned t = 0; t < threads; ++t) scratch.emplace_back(g, max_steps);
  auto for_each_block = [&](const std::vector<Node>& level, auto&& fn) {
    pool.parallel_for(threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        for (std::size_t k = level.size() * t / threads; k < level.size() * (t + 1) / threads;
             ++k) {
          fn(level[k], scratch[t]);
        }
      }
    });
  };

  std::vector<Node> level{Node{0, ids.size(), 0}};
  while (!level.empty() && level.size() < threads) {
    for_each_block(level, [&](const Node& node, Scratch& s) { rsb.visit(node, s); });
    std::vector<Node> next;
    for (const Node& node : level) {
      if (rsb.is_leaf(node)) continue;
      const auto [left, right] = rsb.children(node);
      next.push_back(left);
      next.push_back(right);
    }
    level = std::move(next);
  }
  for_each_block(level, [&](const Node& node, Scratch& s) { rsb.subtree(node, s); });
  return invert(ids);
}

}  // namespace detail

std::vector<Vertex> spectral_order(const Csr& g, SpectralOptions opts) {
  const unsigned threads = g.num_vertices() < kParallelMinVertices
                               ? 1u
                               : std::max(1u, std::thread::hardware_concurrency());
  return detail::spectral_order(g, opts, threads);
}

}  // namespace stance::order
