// Degenerate and boundary instances: empty graphs, single edges, Delta in
// {0,1,2}, disconnected graphs, and the less-traveled API paths.
#include <gtest/gtest.h>

#include "agc/coloring/ag.hpp"
#include "agc/coloring/pipeline.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/edge/edge_coloring.hpp"
#include "agc/graph/generators.hpp"
#include "agc/selfstab/ss_line.hpp"

namespace {

using namespace agc;

TEST(EdgeCases, EmptyAndSingletonGraphs) {
  for (std::size_t n : {0u, 1u, 5u}) {
    const graph::Graph g(n);  // edgeless
    const auto rep = coloring::color_delta_plus_one(g);
    EXPECT_TRUE(rep.converged);
    EXPECT_TRUE(rep.proper);
    EXPECT_LE(rep.palette, 1u);
  }
}

TEST(EdgeCases, SingleEdgeAllPipelines) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  for (const auto& rep :
       {coloring::color_delta_plus_one(g), coloring::color_delta_plus_one_exact(g),
        coloring::color_kuhn_wattenhofer(g), coloring::color_linial_greedy(g)}) {
    EXPECT_TRUE(rep.converged && rep.proper);
    EXPECT_LE(graph::max_color(rep.colors), 1u);  // 2 = Delta+1 colors
  }
}

TEST(EdgeCases, DisjointUnionColorsIndependently) {
  // Two components with very different Delta.
  graph::Graph g(20);
  for (graph::Vertex v = 1; v < 10; ++v) g.add_edge(0, v);  // star, Delta=9
  for (graph::Vertex v = 10; v + 1 < 20; ++v) g.add_edge(v, v + 1);  // path
  const auto rep = coloring::color_delta_plus_one_exact(g);
  EXPECT_TRUE(rep.converged && rep.proper);
  EXPECT_LE(graph::max_color(rep.colors), 9u);
}

TEST(EdgeCases, DeltaOneMatchingGraph) {
  graph::Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  const auto rep = coloring::color_delta_plus_one_exact(g);
  EXPECT_TRUE(rep.converged && rep.proper);
  EXPECT_LE(graph::max_color(rep.colors), 1u);

  const auto ec = edge::color_edges_distributed(g);
  EXPECT_TRUE(ec.converged && ec.proper);
}

TEST(EdgeCases, SelfStabTinyDelta) {
  for (std::size_t delta : {1u, 2u}) {
    const auto g = delta == 1 ? graph::path(2) : graph::cycle(9);
    selfstab::SsConfig cfg(g.n(), delta, selfstab::PaletteMode::ExactDeltaPlusOne);
    runtime::EngineOptions eo;
    eo.delta_bound = delta;
    runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
    engine.install(selfstab::ss_coloring_factory(cfg));
    const auto rep = selfstab::run_until_stable(engine, cfg, 4000);
    EXPECT_TRUE(rep.stabilized) << "delta=" << delta;
    EXPECT_LE(graph::max_color(rep.colors), delta);
  }
}

TEST(EdgeCases, SsLineODeltaMode) {
  const auto g = graph::random_regular(40, 4, 6);
  selfstab::SsLineConfig cfg(g.n(), 4, selfstab::LineTask::EdgeColoring,
                             selfstab::PaletteMode::ODelta);
  runtime::EngineOptions eo;
  eo.delta_bound = 4;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_line_factory(cfg));
  const auto rep = selfstab::run_until_line_stable(engine, cfg, 40000);
  EXPECT_TRUE(rep.stabilized);
  EXPECT_TRUE(graph::is_proper_edge_coloring(
      g, selfstab::current_edge_colors(engine)));
}

TEST(EdgeCases, ReductionAlreadyBelowTarget) {
  const auto g = graph::path(10);
  std::vector<graph::Color> alternating(10);
  for (std::size_t v = 0; v < 10; ++v) alternating[v] = v % 2;
  auto res = coloring::reduce_colors(g, alternating, 5);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.rounds, 0u);
  EXPECT_EQ(res.colors, alternating);
}

TEST(EdgeCases, AgModulusOnTinyInputs) {
  EXPECT_GE(coloring::ag_modulus(0, 1), 2u);
  EXPECT_GT(coloring::ag_modulus(1, 4), 2u);
  const auto q = coloring::ag_modulus(1, 1000);  // palette dominates
  EXPECT_GE(q * q, 1000u);
}

}  // namespace
