#pragma once

#include <cstdint>

#include "agc/graph/frozen.hpp"
#include "agc/graph/graph.hpp"

/// \file generators.hpp
/// Deterministic (seeded) graph generators used by tests, examples and the
/// benchmark harness.  Every generator is reproducible: the same (parameters,
/// seed) pair yields the same graph on every platform.

namespace agc::graph {

/// Path v0 - v1 - ... - v_{n-1}.
[[nodiscard]] Graph path(std::size_t n);

/// Cycle on n >= 3 vertices.
[[nodiscard]] Graph cycle(std::size_t n);

/// Star: vertex 0 joined to 1..n-1.
[[nodiscard]] Graph star(std::size_t n);

/// Complete graph K_n.
[[nodiscard]] Graph complete(std::size_t n);

/// Complete bipartite graph K_{a,b} (left part 0..a-1, right part a..a+b-1).
[[nodiscard]] Graph complete_bipartite(std::size_t a, std::size_t b);

/// rows x cols 2D grid (4-neighborhood).
[[nodiscard]] Graph grid(std::size_t rows, std::size_t cols);

/// Complete binary tree on n vertices (vertex 0 is the root, children of i
/// are 2i+1 and 2i+2).
[[nodiscard]] Graph binary_tree(std::size_t n);

/// Erdos-Renyi G(n, p).
[[nodiscard]] Graph random_gnp(std::size_t n, double p, std::uint64_t seed);

/// Random d-regular(ish) graph via the pairing model with repair: every
/// vertex ends with degree exactly d when n*d is even and d < n (duplicate /
/// self-loop pairings are re-matched; a handful of vertices may end one below
/// d if repair is impossible).
///
/// Up to 64 attempts shuffle the n*d stubs (Fisher-Yates, one Rng::below
/// draw per stub) and pair them in order; the first simple pairing is the
/// graph.  A pairing is simple with probability about e^{-(d^2-1)/4} — 2.4 %
/// at d = 4, 1.4e-7 at d = 8 — so from d = 8 on all 64 attempts fail in
/// practice and a 65th shuffle feeds the repair.  The cost is those shuffles: each attempt
/// is checked in one flat n x d block (a duplicate scans at most d entries)
/// and stops at its first bad pair, and only the final graph is built.
/// The output is a pure function of (n, d, seed), pinned digest for digest
/// by Generators.PinnedDigests: a faster check or build must keep every Rng
/// draw, every edge and every sorted row.
[[nodiscard]] Graph random_regular(std::size_t n, std::size_t d, std::uint64_t seed);

/// Random graph with maximum degree capped at dmax: m edge slots are drawn
/// uniformly, an edge is kept only if both endpoints are below the cap.
[[nodiscard]] Graph random_bounded_degree(std::size_t n, std::size_t dmax,
                                          std::size_t target_m, std::uint64_t seed);

/// Random geometric graph: n points in the unit square, edge iff distance
/// <= radius.  The classic model for sensor-network workloads.
[[nodiscard]] Graph random_geometric(std::size_t n, double radius, std::uint64_t seed);

/// Preferential-attachment (Barabasi-Albert): each new vertex attaches to
/// `attach` existing vertices with probability proportional to degree.
[[nodiscard]] Graph barabasi_albert(std::size_t n, std::size_t attach,
                                    std::uint64_t seed);

/// d-dimensional hypercube Q_d on 2^d vertices (vertices adjacent iff their
/// labels differ in one bit); Delta = d exactly, a clean regular testbed.
[[nodiscard]] Graph hypercube(std::size_t d);

/// Complete k-partite graph with `part` vertices per part: Delta = (k-1)*part
/// and chromatic number exactly k — the adversarial shape for palette tests.
[[nodiscard]] Graph complete_multipartite(std::size_t k, std::size_t part);

/// Caterpillar: a spine path of `spine` vertices, each with `legs` pendant
/// leaves.  Arboricity 1, Delta = legs + 2; exercises the tree-ish regime.
[[nodiscard]] Graph caterpillar(std::size_t spine, std::size_t legs);

/// Blow-up of a cycle: `blow` copies of each of the `len` cycle positions,
/// complete bipartite between consecutive position classes.  Dense, regular,
/// odd-cycle-like: a classic hard instance for local color reduction.
[[nodiscard]] Graph cycle_blowup(std::size_t len, std::size_t blow);

/// Chung-Lu power-law graph: vertex v's expected degree is proportional to
/// (v + 1)^(-1/(gamma-1)) — a degree sequence whose tail follows a power law
/// with exponent `gamma` — scaled so the mean expected degree is avg_deg.
/// Sampled in O(n + m) with the Miller-Hagberg skip algorithm over the
/// monotone weight sequence, re-seeded every 2^12 source vertices so the
/// stream can be replayed chunk by chunk (the frozen builder's two passes).
[[nodiscard]] Graph random_powerlaw(std::size_t n, double gamma, double avg_deg,
                                    std::uint64_t seed);

// --- Streaming builders (web-graph scale, docs/SCALE.md) --------------------
// Same (parameters, seed) -> bit-identical edge set as the Graph-returning
// generator above, but written straight into a frozen CSR: one counting pass
// and one fill pass over the replayed random stream, so no nested adjacency
// vectors — and no second copy of the edge list — ever exist.  Each pass
// defers its scattered writes a fixed 32 edges behind a prefetch, in order,
// so the cache misses overlap the stream (docs/SCALE.md).

/// G(n, p) streamed into a frozen CSR; equals
/// FrozenGraph::from_graph(random_gnp(n, p, seed)) for every input.
[[nodiscard]] FrozenGraph stream_gnp_frozen(std::size_t n, double p,
                                            std::uint64_t seed);

/// Chung-Lu power-law streamed into a frozen CSR; equals
/// FrozenGraph::from_graph(random_powerlaw(n, gamma, avg_deg, seed)).
[[nodiscard]] FrozenGraph stream_powerlaw_frozen(std::size_t n, double gamma,
                                                 double avg_deg,
                                                 std::uint64_t seed);

/// A small deterministic PRNG (splitmix64 seeded xorshift) shared by the
/// generators, exposed for tests and fault injection.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound), by rejection: bound must be > 0.  One
  /// divide per call unless the draw lands within `bound` of 2^64, where the
  /// rejection limit is computed.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

 private:
  std::uint64_t s_[2];
};

}  // namespace agc::graph
