// Graph substrate: structure, generators, line graph, validity oracles,
// orientation/degeneracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "agc/graph/checks.hpp"
#include "agc/graph/generators.hpp"
#include "agc/graph/line_graph.hpp"
#include "agc/graph/orientation.hpp"
#include "agc/graph/spec.hpp"
#include "agc/graph/view.hpp"

namespace {

using namespace agc::graph;

TEST(GraphCore, EdgeInsertRemove) {
  Graph g(5);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(g.add_edge(2, 1));  // duplicate, reversed
  EXPECT_FALSE(g.add_edge(3, 3));  // self-loop
  EXPECT_EQ(g.m(), 2u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.m(), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphCore, NeighborsSorted) {
  Graph g(6);
  g.add_edge(3, 5);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  g.add_edge(3, 1);
  const auto nbrs = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphCore, IsolateAndAddVertex) {
  Graph g = star(6);
  EXPECT_EQ(g.degree(0), 5u);
  g.isolate(0);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.m(), 0u);
  const Vertex v = g.add_vertex();
  EXPECT_EQ(v, 6u);
  EXPECT_EQ(g.n(), 7u);
}

TEST(GraphCore, EdgesSortedCanonical) {
  const auto g = random_gnp(50, 0.2, 3);
  const auto edges = edge_list(g);
  EXPECT_EQ(edges.size(), g.m());
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Generators, StructuredShapes) {
  EXPECT_EQ(path(10).m(), 9u);
  EXPECT_EQ(cycle(10).m(), 10u);
  EXPECT_EQ(cycle(10).max_degree(), 2u);
  EXPECT_EQ(star(10).max_degree(), 9u);
  EXPECT_EQ(complete(8).m(), 28u);
  EXPECT_EQ(complete_bipartite(3, 4).m(), 12u);
  EXPECT_EQ(grid(4, 5).m(), 4 * 4 + 3 * 5u);
  EXPECT_EQ(binary_tree(15).max_degree(), 3u);
}

TEST(Generators, Deterministic) {
  const auto a = random_gnp(100, 0.1, 77);
  const auto b = random_gnp(100, 0.1, 77);
  EXPECT_EQ(edge_list(a), edge_list(b));
  const auto c = random_gnp(100, 0.1, 78);
  EXPECT_NE(edge_list(a), edge_list(c));
}

TEST(Generators, RegularDegrees) {
  for (std::size_t d : {2u, 3u, 8u, 15u}) {
    const std::size_t n = (d % 2 == 1) ? 100 : 101;  // n*d must be even
    const auto g = random_regular(n % 2 == 0 || d % 2 == 0 ? n : n + 1, d, d);
    std::size_t exact = 0;
    for (Vertex v = 0; v < g.n(); ++v) {
      EXPECT_LE(g.degree(v), d);
      exact += g.degree(v) == d;
    }
    // The pairing + repair model leaves at most a few vertices short.
    EXPECT_GE(exact, g.n() - 4);
  }
}

TEST(Generators, BoundedDegreeRespectsCap) {
  const auto g = random_bounded_degree(200, 7, 600, 5);
  EXPECT_LE(g.max_degree(), 7u);
  EXPECT_GT(g.m(), 400u);
}

TEST(Generators, GeometricAndBarabasi) {
  const auto geo = random_geometric(150, 0.15, 9);
  EXPECT_GT(geo.m(), 0u);
  const auto ba = barabasi_albert(200, 3, 4);
  EXPECT_GE(ba.m(), 3 * (200 - 4) * 9 / 10u);  // ~3 per arriving vertex
  // Preferential attachment: the max degree dwarfs the attach parameter.
  EXPECT_GT(ba.max_degree(), 9u);
}

TEST(Generators, RngUniformity) {
  Rng rng(1);
  std::size_t buckets[8] = {};
  for (int i = 0; i < 8000; ++i) ++buckets[rng.below(8)];
  for (auto b : buckets) {
    EXPECT_GT(b, 800u);
    EXPECT_LT(b, 1200u);
  }
}

/// FNV-1a over 64-bit words: n, m and topology_version, then every row's
/// degree and sorted neighbors.
std::uint64_t adjacency_digest(GraphView g) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
  mix(g.n());
  mix(g.m());
  mix(g.topology_version());
  for (Vertex v = 0; v < g.n(); ++v) {
    mix(g.degree(v));
    for (const Vertex u : g.neighbors(v)) mix(u);
  }
  return h;
}

// Every random generator's output, pinned to digests of the builders that
// grew each row through Graph::add_edge: a faster build must keep the same
// draws, edges, sorted rows, m() and topology_version().
TEST(Generators, PinnedDigests) {
  struct Regular {
    std::size_t n, d;
    std::uint64_t seed, want;
  };
  constexpr Regular kRegular[] = {
      // perfbench table1's four graphs: every attempt fails, fallback.
      {1500, 4, 1238, 0x12a08d91698ff7fdULL},
      {1500, 8, 1242, 0xe3ce9cdce940c66bULL},
      {1500, 16, 1250, 0x127fd1c312413e65ULL},
      {1500, 32, 1266, 0x1b63f19c57abc86bULL},
      // A clean pairing at attempt 3, 46 and 0.
      {100, 3, 1, 0x50cc5bde3ad2a671ULL},
      {200, 4, 9, 0xddacbc4d588f408dULL},
      {300, 2, 5, 0xf7b49865dad3f21fULL},
      // d >= n/2, fallback (11-vertex 10-regular is K_11).
      {20, 10, 3, 0x2e0bd6fd68bda9e6ULL},
      {11, 10, 4, 0xe64e55be6e99758cULL},
      {40, 20, 6, 0x07091d0a686b0c79ULL},
  };
  for (const Regular& r : kRegular) {
    EXPECT_EQ(adjacency_digest(random_regular(r.n, r.d, r.seed)), r.want)
        << "regular n=" << r.n << " d=" << r.d << " seed=" << r.seed;
  }
  EXPECT_EQ(adjacency_digest(random_gnp(4000, 0.002, 11)), 0xde0f507d91f82806ULL);
  EXPECT_EQ(adjacency_digest(random_powerlaw(5000, 2.2, 10.0, 7)),
            0x0f447f24607bfae4ULL);
  EXPECT_EQ(adjacency_digest(stream_gnp_frozen(100000, 0.00016, 1)),
            0x6e98ce92d52410fcULL);
  EXPECT_EQ(adjacency_digest(stream_powerlaw_frozen(100000, 2.5, 8.0, 3)),
            0x360025baa63fc77bULL);
  EXPECT_EQ(adjacency_digest(random_bounded_degree(500, 7, 1500, 5)),
            0x97e3accd4b58658fULL);
  EXPECT_EQ(adjacency_digest(barabasi_albert(500, 3, 4)), 0xf9b0538ecf300ba8ULL);
  EXPECT_EQ(adjacency_digest(random_geometric(400, 0.08, 9)), 0x25a46c2e3bfac535ULL);
}

TEST(Rng, BelowMatchesReference) {
  // below() skips the divide behind the rejection limit when the draw is
  // far from it; it must draw and return exactly what the two-divide
  // formula does.  At 2^63 + 1 about half the draws are rejected, and at
  // 2^64 - 1 every draw takes the limit check.
  const auto reference = [](Rng& rng, std::uint64_t bound, std::size_t& rejected) {
    const std::uint64_t limit = ~0ULL - (~0ULL % bound);
    std::uint64_t r = rng.next();
    for (; r >= limit; r = rng.next()) ++rejected;
    return r % bound;
  };
  constexpr std::uint64_t kBounds[] = {1,
                                       2,
                                       3,
                                       (std::uint64_t{1} << 32) - 1,
                                       (std::uint64_t{1} << 32) + 1,
                                       (std::uint64_t{1} << 63) + 1,
                                       ~std::uint64_t{0}};
  for (const std::uint64_t bound : kBounds) {
    std::size_t rejected = 0;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      Rng got(seed);
      Rng want(seed);
      for (int i = 0; i < 256; ++i) {
        ASSERT_EQ(got.below(bound), reference(want, bound, rejected))
            << "bound=" << bound << " seed=" << seed << " draw " << i;
      }
      ASSERT_EQ(got.next(), want.next()) << "bound=" << bound << " seed=" << seed;
    }
    if (bound == (std::uint64_t{1} << 63) + 1) {  // ~1 rejection per call
      EXPECT_GT(rejected, 64u * 256 / 2);
      EXPECT_LT(rejected, 64u * 256 * 2);
    }
  }
}

TEST(LineGraphTest, TriangleIsTriangle) {
  const auto lg = line_graph(complete(3));
  EXPECT_EQ(lg.graph.n(), 3u);
  EXPECT_EQ(lg.graph.m(), 3u);
}

TEST(LineGraphTest, DegreesAndMapping) {
  const auto g = random_gnp(40, 0.15, 6);
  const auto lg = line_graph(g);
  EXPECT_EQ(lg.graph.n(), g.m());
  const auto edges = edge_list(g);
  for (Vertex i = 0; i < lg.graph.n(); ++i) {
    const auto [u, v] = lg.edge_of[i];
    EXPECT_EQ(lg.graph.degree(i), g.degree(u) + g.degree(v) - 2);
    EXPECT_EQ(lg.vertex_of({u, v}), i);
  }
  // Max degree of L(G) <= 2*Delta - 2.
  EXPECT_LE(lg.graph.max_degree(), 2 * g.max_degree() - 2);
}

TEST(Checks, ProperColoring) {
  const auto g = cycle(6);
  std::vector<Color> ok = {0, 1, 0, 1, 0, 1};
  std::vector<Color> bad = {0, 1, 0, 1, 0, 0};
  EXPECT_TRUE(is_proper_coloring(g, ok));
  EXPECT_FALSE(is_proper_coloring(g, bad));
  EXPECT_EQ(palette_size(ok), 2u);
  EXPECT_EQ(max_color(bad), 1u);
}

TEST(Checks, PaletteSizeMatchesSortUnique) {
  const auto reference = [](std::vector<Color> colors) {
    std::sort(colors.begin(), colors.end());
    return static_cast<std::size_t>(std::unique(colors.begin(), colors.end()) -
                                    colors.begin());
  };
  constexpr Color kMax = ~Color{0};
  EXPECT_EQ(palette_size(std::vector<Color>{}), 0u);
  EXPECT_EQ(palette_size(std::vector<Color>{5}), 1u);
  EXPECT_EQ(palette_size(std::vector<Color>{0}), 1u);
  EXPECT_EQ(palette_size(std::vector<Color>(7, 63)), 1u);
  // Colours up to 2^64 - 1 take the sorting branch.
  EXPECT_EQ(palette_size(std::vector<Color>{kMax}), 1u);
  EXPECT_EQ(palette_size(std::vector<Color>{kMax, 0, kMax, kMax - 1, 64, 0}), 4u);
  // Either side of the bitmap's max < 64 n bound.
  EXPECT_EQ(palette_size(std::vector<Color>{127, 0}), 2u);
  EXPECT_EQ(palette_size(std::vector<Color>{128, 0}), 2u);
  EXPECT_EQ(palette_size(std::vector<Color>{128, 128}), 1u);
  // Random vectors against the reference.
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(200);
    const std::uint64_t span = trial % 3 == 0   ? kMax
                               : trial % 3 == 1 ? 64 * n
                                                : 1 + rng.below(64 * n);
    std::vector<Color> colors(n);
    for (auto& c : colors) c = span == kMax ? rng.next() : rng.below(span);
    EXPECT_EQ(palette_size(colors), reference(colors)) << "trial " << trial;
  }
}

TEST(Checks, DefectVector) {
  const auto g = complete(4);
  std::vector<Color> colors = {0, 0, 1, 1};
  const auto d = defect_vector(g, colors);
  EXPECT_EQ(d, (std::vector<std::size_t>{1, 1, 1, 1}));
  EXPECT_TRUE(is_defective_coloring(g, colors, 1));
  EXPECT_FALSE(is_defective_coloring(g, colors, 0));
}

TEST(Checks, DegeneracyKnownValues) {
  EXPECT_EQ(degeneracy(path(10)), 1u);
  EXPECT_EQ(degeneracy(cycle(10)), 2u);
  EXPECT_EQ(degeneracy(complete(6)), 5u);
  EXPECT_EQ(degeneracy(binary_tree(31)), 1u);
  EXPECT_EQ(degeneracy(grid(5, 5)), 2u);
  EXPECT_EQ(degeneracy(complete_bipartite(3, 7)), 3u);
}

TEST(Checks, MisOracle) {
  const auto g = path(5);
  EXPECT_TRUE(is_mis(g, {true, false, true, false, true}));
  EXPECT_TRUE(is_mis(g, {false, true, false, true, false}));
  EXPECT_FALSE(is_mis(g, {true, true, false, false, true}));   // not independent
  EXPECT_FALSE(is_mis(g, {true, false, false, false, true}));  // not maximal
}

TEST(Checks, MatchingOracle) {
  const auto g = path(6);
  EXPECT_TRUE(is_maximal_matching(g, std::vector<Edge>{{0, 1}, {2, 3}, {4, 5}}));
  EXPECT_FALSE(is_maximal_matching(g, std::vector<Edge>{{0, 1}}));  // not maximal
  EXPECT_FALSE(is_maximal_matching(
      g, std::vector<Edge>{{0, 1}, {1, 2}}));  // shares endpoint
  EXPECT_TRUE(is_maximal_matching(g, std::vector<Edge>{{1, 2}, {3, 4}}));
}

TEST(Checks, EdgeColoringOracle) {
  const auto g = star(4);
  EXPECT_TRUE(is_proper_edge_coloring(g, std::vector<Color>{0, 1, 2}));
  EXPECT_FALSE(is_proper_edge_coloring(g, std::vector<Color>{0, 1, 1}));
}

TEST(OrientationTest, ByIdAndDegeneracy) {
  const auto g = random_gnp(80, 0.1, 8);
  const auto by_id = orient_by_id(g);
  EXPECT_EQ(by_id.edges.size(), g.m());

  const auto order = smallest_last_order(g);
  const auto o = orient_by_order(g, order);
  // Smallest-last orientation witnesses degeneracy.
  EXPECT_LE(o.max_out_degree(g.n()), degeneracy(g));
}

TEST(OrientationTest, ArbdefectWitnessConsistency) {
  // Every color class with degeneracy <= d admits an orientation with
  // out-degree <= d; cross-check max_class_degeneracy against classes.
  const auto g = random_regular(120, 10, 11);
  std::vector<Color> classes(g.n());
  for (Vertex v = 0; v < g.n(); ++v) classes[v] = v % 4;
  const auto cd = max_class_degeneracy(g, classes);
  EXPECT_TRUE(is_arbdefective_coloring(g, classes, cd));
  if (cd > 0) {
    EXPECT_FALSE(is_arbdefective_coloring(g, classes, (cd + 1) / 2 - 1));
  }
}

// Long-lived consumers (the agcd service) key caches and snapshots on the
// topology version, so churn that re-creates the same edge must never reuse
// a version number.
TEST(GraphCore, TopologyVersionMonotoneUnderChurn) {
  Graph g(4);
  const std::uint64_t v0 = g.topology_version();
  std::uint64_t last = v0;
  // The same edge added and removed repeatedly: every successful mutation
  // bumps, and no version ever repeats even though the topology does.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(g.add_edge(1, 2));
    EXPECT_GT(g.topology_version(), last);
    last = g.topology_version();
    ASSERT_TRUE(g.remove_edge(1, 2));
    EXPECT_GT(g.topology_version(), last);
    last = g.topology_version();
  }
  EXPECT_EQ(last, v0 + 6);
}

TEST(GraphCore, TopologyVersionIgnoresFailedOps) {
  Graph g(4);
  g.add_edge(0, 1);
  const std::uint64_t v = g.topology_version();
  EXPECT_FALSE(g.add_edge(0, 1));     // duplicate
  EXPECT_FALSE(g.add_edge(2, 2));     // self-loop
  EXPECT_FALSE(g.remove_edge(1, 3));  // absent
  EXPECT_EQ(g.topology_version(), v);
  g.isolate(3);  // already isolated: removes nothing
  EXPECT_EQ(g.topology_version(), v);
  g.isolate(0);  // drops {0,1}
  EXPECT_GT(g.topology_version(), v);
  const std::uint64_t w = g.topology_version();
  EXPECT_EQ(g.add_vertex(), 4u);
  EXPECT_GT(g.topology_version(), w);
}

// GraphSpec churn headroom: the estimate grows monotonically with the extra
// vertices/edges a service may grow into, while the spec's identity —
// canonical spelling and content hash — never budges.
TEST(SpecTest, EstimatedBytesChurnHeadroom) {
  const auto spec = GraphSpec::parse("gnp:1000,0.01,7");
  const auto base = spec.estimated_bytes();
  EXPECT_EQ(base, spec.estimated_bytes(0, 0));
  EXPECT_GT(spec.estimated_bytes(100, 0), base);
  EXPECT_GT(spec.estimated_bytes(0, 1000), base);
  EXPECT_GT(spec.estimated_bytes(100, 1000), spec.estimated_bytes(100, 0));
  // Headroom is linear in the declared per-vertex/per-edge constants
  // (mutable adjacency-vector rate: 48/vertex, 16/edge).
  EXPECT_EQ(spec.estimated_bytes(10, 20) - base, 10 * 48 + 20 * 16);

  const auto canon = spec.to_string();
  const auto hash = spec.content_hash();
  (void)spec.estimated_bytes(1 << 20, 1 << 20);
  EXPECT_EQ(spec.to_string(), canon);
  EXPECT_EQ(spec.content_hash(), hash);
}

}  // namespace
