// Seeded Luby-style randomized (Delta+1)-coloring (coloring::luby): the
// determinism contract is the whole point of the suite.  Per-vertex
// randomness is a pure function of (RunOptions::seed, round, vertex id), so
// one seed must replay bit-identically across 1/2/8 threads, while distinct
// seeds must drive distinct trajectories.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "agc/coloring/luby.hpp"
#include "agc/coloring/registry.hpp"
#include "agc/exec/executor.hpp"
#include "agc/graph/checks.hpp"
#include "agc/graph/frozen.hpp"
#include "agc/graph/generators.hpp"
#include "agc/graph/spec.hpp"

namespace {

using namespace agc;
using coloring::Color;

coloring::PipelineReport run_luby(graph::GraphView g, std::uint64_t seed,
                                  std::shared_ptr<runtime::RoundExecutor> ex = {}) {
  coloring::PipelineOptions opts;
  opts.run().seed = seed;
  opts.run().executor = std::move(ex);
  return coloring::color_luby(g, opts);
}

/// The colors (FNV-1a digest), rounds and transport metrics of one run.
std::string fingerprint(const coloring::PipelineReport& rep) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Color c : rep.colors) h = (h ^ c) * 1099511628211ULL;
  char buf[160];
  std::snprintf(buf, sizeof buf, "colors=%016llx rounds=%zu metrics=%llu/%llu/%llu",
                static_cast<unsigned long long>(h), rep.rounds,
                static_cast<unsigned long long>(rep.metrics.messages),
                static_cast<unsigned long long>(rep.metrics.total_bits),
                static_cast<unsigned long long>(rep.metrics.max_edge_bits));
  return buf;
}

TEST(Luby, ProperAndWithinPalette) {
  for (std::size_t delta : {3u, 8u, 32u, 96u}) {
    const auto g = graph::random_regular(800, delta, 55 + delta);
    const auto rep = run_luby(g, 42);
    ASSERT_TRUE(rep.converged) << "delta=" << delta;
    EXPECT_TRUE(rep.proper);
    EXPECT_TRUE(graph::is_proper_coloring(g, rep.colors));
    for (const Color c : rep.colors) EXPECT_LE(c, g.max_degree());
    // Luby is NOT locally-iterative: mid-run it holds candidates, not a
    // proper coloring, and the report must say so honestly.
    EXPECT_FALSE(rep.proper_each_round);
    // O(log n) expected: far below any Delta-dependent bound.
    EXPECT_LE(rep.rounds, 40u) << "delta=" << delta;
  }
}

TEST(Luby, SeedReplayAcrossThreads) {
  const auto g = graph::random_regular(1000, 40, 733);
  const auto base = run_luby(g, 7);
  ASSERT_TRUE(base.converged);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const auto bsp = run_luby(g, 7, exec::make_executor(threads));
    EXPECT_EQ(bsp.colors, base.colors) << "bsp threads=" << threads;
    EXPECT_EQ(bsp.rounds, base.rounds) << "bsp threads=" << threads;
  }
}

TEST(Luby, TrajectoryIsPinned) {
  // Pinned from the engine program that ran Luby before it became an
  // IterativeRule: every seed must keep its trajectory at every thread count.
  struct Pin {
    const char* graph;
    std::uint64_t seed;
    const char* expect;
  };
  const Pin pins[] = {
      {"regular:n=1000,d=40,seed=733", 1,
       "colors=839a495cc0d0c012 rounds=7 metrics=279986/1959902/49"},
      {"regular:n=1000,d=40,seed=733", 7,
       "colors=823ada21cc254485 rounds=7 metrics=279986/1959902/49"},
      {"regular:n=1000,d=40,seed=733", 0xDEADBEEF,
       "colors=430ce1ee7a63ceb3 rounds=7 metrics=279986/1959902/49"},
      {"gnp:n=2000,p=0.01,seed=5", 1,
       "colors=305b213162bef1c6 rounds=5 metrics=198830/1391810/35"},
      {"gnp:n=2000,p=0.01,seed=5", 7,
       "colors=e9cbcfd831c94be6 rounds=5 metrics=198830/1391810/35"},
      {"gnp:n=2000,p=0.01,seed=5", 0xDEADBEEF,
       "colors=6ee7bde415b532fd rounds=6 metrics=238596/1670172/42"},
  };
  for (const Pin& pin : pins) {
    const graph::Graph g = graph::GraphSpec::parse(pin.graph).build();
    for (const std::size_t threads : {1u, 2u, 8u}) {
      EXPECT_EQ(fingerprint(run_luby(g, pin.seed, exec::make_executor(threads))),
                pin.expect)
          << pin.graph << " seed=" << pin.seed << " threads=" << threads;
    }
  }
}

TEST(Luby, DistinctSeedsDistinctTrajectories) {
  const auto g = graph::random_regular(600, 24, 88);
  std::set<std::vector<Color>> colorings;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 99ull, 0xDEADBEEFull}) {
    const auto rep = run_luby(g, seed);
    ASSERT_TRUE(rep.converged) << "seed=" << seed;
    EXPECT_TRUE(graph::is_proper_coloring(g, rep.colors));
    colorings.insert(rep.colors);
  }
  // On a 600-vertex 24-regular graph the probability of two seeds colliding
  // is negligible; all five trajectories must differ.
  EXPECT_EQ(colorings.size(), 5u);
}

TEST(Luby, SameSeedSameRunIsStable) {
  // Replay determinism on the same executor config: two invocations with
  // identical options are byte-equal, including the round count.
  const auto g = graph::random_gnp(500, 0.04, 11);
  const auto a = run_luby(g, 31337);
  const auto b = run_luby(g, 31337);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Luby, FrozenBackendMatchesDynamicBackend) {
  const auto g = graph::random_regular(700, 16, 204);
  const auto frozen = graph::FrozenGraph::from_graph(g);
  const auto dyn = run_luby(g, 5);
  const auto frz = run_luby(frozen, 5);
  ASSERT_TRUE(dyn.converged);
  ASSERT_TRUE(frz.converged);
  EXPECT_EQ(dyn.colors, frz.colors);
  EXPECT_EQ(dyn.rounds, frz.rounds);
}

TEST(Luby, TrivialGraphs) {
  {
    graph::Graph g(1);
    const auto rep = run_luby(g, 1);
    ASSERT_TRUE(rep.converged);
    EXPECT_EQ(rep.colors[0], 0u);
  }
  {
    graph::Graph g(2);
    g.add_edge(0, 1);
    const auto rep = run_luby(g, 1);
    ASSERT_TRUE(rep.converged);
    EXPECT_NE(rep.colors[0], rep.colors[1]);
    EXPECT_LE(rep.colors[0], 1u);
    EXPECT_LE(rep.colors[1], 1u);
  }
  {
    graph::Graph g(8);  // Delta = 0: everyone takes color 0 immediately
    const auto rep = run_luby(g, 1);
    ASSERT_TRUE(rep.converged);
    for (const Color c : rep.colors) EXPECT_EQ(c, 0u);
  }
}

TEST(Luby, RegistryEntryCarriesTheSeed) {
  // The ONE seed spelling: the registry run() must pick the seed up from
  // RunOptions::seed, matching a direct color_luby call.
  const auto g = graph::random_regular(400, 12, 61);
  const auto* a = coloring::find_algo("luby");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->requires_seed);
  coloring::PipelineOptions opts;
  opts.run().seed = 1234;
  const auto via_registry = a->run(g, opts);
  const auto direct = run_luby(g, 1234);
  EXPECT_EQ(via_registry.colors, direct.colors);
  EXPECT_EQ(via_registry.rounds, direct.rounds);
}

}  // namespace
