// The web-graph-scale substrate (docs/SCALE.md): frozen CSR vs mutable
// backend conformance, streamed-vs-materialized generator bit-identity,
// byte-lane color storage, and the flat front door's color contract against
// the sequential pipeline — across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "agc/coloring/pipeline.hpp"
#include "agc/exec/executor.hpp"
#include "agc/graph/frozen.hpp"
#include "agc/graph/generators.hpp"
#include "agc/graph/spec.hpp"
#include "agc/graph/view.hpp"
#include "agc/runtime/packed.hpp"
#include "agc/runtime/trace.hpp"
#include "agc/scale/flat.hpp"

namespace {

using namespace agc;
using graph::Color;
using graph::FrozenGraph;
using graph::Graph;
using graph::GraphSpec;
using graph::GraphView;
using graph::Vertex;

// --- GraphView conformance: both backends answer identically ----------------

void expect_view_conformance(GraphView a, GraphView b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  for (Vertex v = 0; v < a.n(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "vertex " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "vertex " << v;
  }
  EXPECT_EQ(graph::edge_list(a), graph::edge_list(b));
  for (Vertex v = 0; v < a.n(); ++v) {
    for (const Vertex u : a.neighbors(v)) {
      EXPECT_TRUE(a.has_edge(v, u));
      EXPECT_TRUE(b.has_edge(v, u));
    }
  }
  // A few guaranteed non-edges (self-loops never exist).
  for (Vertex v = 0; v < a.n(); ++v) {
    EXPECT_FALSE(a.has_edge(v, v));
    EXPECT_FALSE(b.has_edge(v, v));
  }
}

TEST(FrozenGraph, ConformsToMutableBackend) {
  for (const char* spec :
       {"gnp:n=300,p=0.03,seed=5", "regular:n=200,d=8,seed=3", "grid:12,17",
        "star:40", "path:1", "powerlaw:n=400,gamma=2.5,avgdeg=8,seed=9"}) {
    SCOPED_TRACE(spec);
    const Graph g = GraphSpec::parse(spec).build();
    const FrozenGraph f = FrozenGraph::from_graph(g);
    expect_view_conformance(GraphView(g), GraphView(f));
  }
}

TEST(FrozenGraph, EmptyAndIsolated) {
  const Graph g(5);  // no edges at all
  const FrozenGraph f = FrozenGraph::from_graph(g);
  EXPECT_EQ(f.n(), 5u);
  EXPECT_EQ(f.m(), 0u);
  EXPECT_EQ(f.max_degree(), 0u);
  expect_view_conformance(GraphView(g), GraphView(f));

  const FrozenGraph none;
  EXPECT_EQ(none.n(), 0u);
  EXPECT_EQ(none.m(), 0u);
}

TEST(FrozenGraph, FromCsrRejectsMalformedShapes) {
  EXPECT_THROW(FrozenGraph::from_csr({}, {}), std::invalid_argument);
  EXPECT_THROW(FrozenGraph::from_csr({1, 2}, {0}), std::invalid_argument);
  EXPECT_THROW(FrozenGraph::from_csr({0, 2}, {1}), std::invalid_argument);
  EXPECT_THROW(FrozenGraph::from_csr({0, 2, 1}, {1, 0}), std::invalid_argument);
}

// --- Streamed generators: bit-identical to build-then-freeze ----------------

TEST(StreamedGenerators, GnpMatchesMaterialized) {
  for (const double p : {0.0, 0.002, 0.05, 0.5, 1.0}) {
    SCOPED_TRACE(p);
    const auto streamed = graph::stream_gnp_frozen(500, p, 42);
    const auto frozen = FrozenGraph::from_graph(graph::random_gnp(500, p, 42));
    EXPECT_EQ(streamed, frozen);
  }
}

TEST(StreamedGenerators, PowerlawMatchesMaterialized) {
  for (const double gamma : {2.1, 2.5, 3.0}) {
    SCOPED_TRACE(gamma);
    const auto streamed = graph::stream_powerlaw_frozen(600, gamma, 10.0, 7);
    const auto frozen =
        FrozenGraph::from_graph(graph::random_powerlaw(600, gamma, 10.0, 7));
    EXPECT_EQ(streamed, frozen);
    EXPECT_GT(streamed.m(), 0u);
  }
}

TEST(StreamedGenerators, PowerlawDegreesSkew) {
  // Chung-Lu with the descending weight sequence: early vertices carry the
  // heavy tail, and the mean degree lands near the requested one.
  const auto f = graph::stream_powerlaw_frozen(2000, 2.5, 8.0, 11);
  const double mean = 2.0 * double(f.m()) / double(f.n());
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 12.0);
  std::size_t head = 0, tail = 0;
  for (Vertex v = 0; v < 100; ++v) head += f.degree(v);
  for (Vertex v = 1900; v < 2000; ++v) tail += f.degree(v);
  EXPECT_GT(head, 4 * tail);
}

TEST(StreamedGenerators, SpecBuildFrozenMatchesBuild) {
  for (const char* spec :
       {"gnp:n=400,p=0.01,seed=3", "powerlaw:n=300,gamma=2.2,avgdeg=6,seed=1",
        "regular:n=120,d=6,seed=8", "hypercube:6"}) {
    SCOPED_TRACE(spec);
    const auto s = GraphSpec::parse(spec);
    EXPECT_EQ(s.build_frozen(), FrozenGraph::from_graph(s.build()));
  }
}

// --- The resolve() seam -----------------------------------------------------

TEST(ResolvedGraph, BackendFollowsMutabilityNeed) {
  const auto spec = GraphSpec::parse("gnp:n=100,p=0.05,seed=2");
  auto ro = spec.resolve(graph::Mutability::ReadOnly);
  EXPECT_TRUE(ro.frozen());
  EXPECT_THROW((void)ro.graph(), std::logic_error);

  auto mu = spec.resolve(graph::Mutability::Mutable);
  EXPECT_FALSE(mu.frozen());
  EXPECT_EQ(mu.graph().n(), 100u);
  expect_view_conformance(ro.view(), mu.view());

  // Views stay valid across moves of the owner (heap-backed storage).
  auto moved = std::move(ro);
  EXPECT_EQ(moved.view().n(), 100u);
}

TEST(ResolvedGraph, PowerlawSpecRoundTrips) {
  const auto s = GraphSpec::parse("powerlaw:500,2.5,8,13");
  EXPECT_EQ(s.to_string(), "powerlaw:n=500,gamma=2.5,avgdeg=8,seed=13");
  EXPECT_EQ(GraphSpec::parse(s.to_string()), s);
  EXPECT_GT(s.estimated_bytes(), 0u);
}

// --- PackedColors -----------------------------------------------------------

TEST(PackedColors, RoundTripsEveryWidthAndGathersLikeGet) {
  // Every width, so every lane size 1..8 and every mask; the last entry's
  // 8-byte load reads the tail padding.
  for (std::uint32_t bits = 1; bits <= 64; ++bits) {
    SCOPED_TRACE(bits);
    const std::size_t n = 257;
    runtime::PackedColors p(n, bits);
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    const auto value = [&](std::size_t i) {
      return (0x9E3779B97F4A7C15ULL * (i + 1)) & mask;
    };
    for (std::size_t i = 0; i < n; ++i) p.set(i, value(i));
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(p.get(i), value(i)) << i;
    // Overwrites must not disturb neighbors, the last entry included.
    p.set(100, 0);
    p.set(n - 1, mask);
    EXPECT_EQ(p.get(99), value(99));
    EXPECT_EQ(p.get(101), value(101));
    EXPECT_EQ(p.get(100), 0u);
    EXPECT_EQ(p.get(n - 2), value(n - 2));
    EXPECT_EQ(p.get(n - 1), mask);
    // One gather over every index, in a scrambled order.
    std::vector<graph::Vertex> at(n);
    for (std::size_t i = 0; i < n; ++i) {
      at[i] = static_cast<graph::Vertex>((i * 101) % n);
    }
    std::vector<std::uint64_t> out(n);
    p.gather(at, out.data());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], p.get(at[i])) << i;
  }
}

// --- Flat front door: the pipeline's colors at any thread count ------------

TEST(FlatRunner, MatchesEnginePipelineAcrossThreadsAndBackends) {
  for (const char* spec :
       {"gnp:n=400,p=0.02,seed=17", "regular:n=300,d=10,seed=4",
        "powerlaw:n=350,gamma=2.4,avgdeg=7,seed=6"}) {
    SCOPED_TRACE(spec);
    const auto s = GraphSpec::parse(spec);
    const Graph g = s.build();
    const FrozenGraph f = s.build_frozen();

    coloring::PipelineOptions popts;
    const auto oracle = coloring::color_delta_plus_one(GraphView(g), popts);
    ASSERT_TRUE(oracle.proper);

    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      scale::FlatOptions fo;
      fo.threads = threads;
      const auto flat = scale::color_delta_plus_one_flat(GraphView(f), fo);
      EXPECT_TRUE(flat.converged);
      EXPECT_TRUE(flat.proper);
      EXPECT_EQ(flat.colors, oracle.colors);
      EXPECT_EQ(flat.rounds, oracle.rounds);
      EXPECT_GT(flat.state_bytes, 0u);
    }
  }
}

TEST(FlatRunner, TrivialGraphs) {
  const FrozenGraph f = GraphSpec::parse("path:1").build_frozen();
  const auto one = scale::color_delta_plus_one_flat(GraphView(f));
  EXPECT_TRUE(one.converged);
  EXPECT_TRUE(one.proper);
  EXPECT_EQ(one.colors.size(), 1u);

  const FrozenGraph none;
  const auto zero = scale::color_delta_plus_one_flat(GraphView(none));
  EXPECT_TRUE(zero.converged);
  EXPECT_TRUE(zero.colors.empty());
}

// --- Cross-backend golden traces --------------------------------------------

TEST(FrozenGraph, EnginePipelineTraceIdenticalAcrossBackends) {
  const auto s = GraphSpec::parse("gnp:n=250,p=0.04,seed=23");
  const Graph g = s.build();
  const FrozenGraph f = s.build_frozen();

  auto run_traced = [](GraphView view, std::size_t threads) {
    coloring::PipelineOptions opts;
    if (threads > 1) opts.iter.executor = exec::make_executor(threads);
    runtime::TraceRecorder trace(view, nullptr);
    opts.iter.on_round = trace.observer();
    const auto rep = coloring::color_delta_plus_one(view, opts);
    std::vector<std::size_t> digest;
    for (const auto& p : trace.points()) {
      digest.push_back(p.round);
      digest.push_back(p.distinct_colors);
      digest.push_back(p.monochromatic_edges);
    }
    digest.push_back(rep.rounds);
    digest.insert(digest.end(), rep.colors.begin(), rep.colors.end());
    return digest;
  };

  const auto base = run_traced(GraphView(g), 1);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(run_traced(GraphView(f), threads), base);
    EXPECT_EQ(run_traced(GraphView(g), threads), base);
  }
}

}  // namespace
