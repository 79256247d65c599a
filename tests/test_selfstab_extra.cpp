// Self-stabilization robustness: parameter sweeps of the exact mode's number
// theory, restricted-bandwidth operation, continuous-fault torture, growth,
// and the Section 4.2 adjustment-radius guarantees.
#include <gtest/gtest.h>

#include "agc/graph/checks.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/ss_mis.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {

using namespace agc;
using selfstab::PaletteMode;
using selfstab::SsConfig;

TEST(SsConfigSweep, ExactModeConstructsForAllSmallDelta) {
  // The exact mode needs q_excl^2 <= p^3 for the largest prime p <= 2*Delta+1;
  // verify the arithmetic works out for every Delta up to 128 (prime gaps
  // could in principle break it — they don't).
  for (std::size_t delta = 1; delta <= 128; ++delta) {
    ASSERT_NO_THROW({
      SsConfig cfg(100000, delta, PaletteMode::ExactDeltaPlusOne);
      EXPECT_EQ(cfg.final_palette(), delta + 1);
    }) << "delta=" << delta;
  }
}

TEST(SsConfigSweep, StepNeverEscapesStateSpace) {
  // Property: from any (possibly corrupted) state and any neighbor multiset
  // drawn from the state space, step() stays inside the state space.
  SsConfig cfg(500, 6, PaletteMode::ExactDeltaPlusOne);
  graph::Rng rng(5);
  for (int trial = 0; trial < 5000; ++trial) {
    const std::uint64_t color = rng.below(cfg.span() + 10);  // incl. invalid
    std::vector<std::uint64_t> nbrs(rng.below(7));
    for (auto& c : nbrs) c = rng.below(cfg.span());
    std::sort(nbrs.begin(), nbrs.end());
    const auto next = cfg.step(rng.below(500), cfg.truncate(color), nbrs);
    EXPECT_LT(next, cfg.span());
  }
}

TEST(SsCongest, ColorsFitInLogarithmicMessages) {
  // The self-stabilizing coloring sends one color per round; its width is
  // O(log n + log Delta) bits, so it runs under CONGEST.
  const auto g = graph::random_regular(150, 6, 3);
  SsConfig cfg(g.n(), 6, PaletteMode::ODelta);
  ASSERT_LE(cfg.color_bits(), 32u);
  runtime::EngineOptions eo;
  eo.delta_bound = 6;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::CONGEST, 32), eo);
  engine.install(selfstab::ss_coloring_factory(cfg));
  EXPECT_TRUE(
      selfstab::run_stabilization(engine, {}, selfstab::coloring_spec(cfg)).recovered);
}

TEST(SsTorture, ContinuousFaultsThenQuiescence) {
  // Faults EVERY round for 60 rounds; stabilization measured after the last.
  const std::size_t dmax = 8;
  const auto g = graph::random_bounded_degree(200, dmax, 600, 13);
  SsConfig cfg(g.n(), dmax, PaletteMode::ExactDeltaPlusOne);
  runtime::EngineOptions eo;
  eo.delta_bound = dmax;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_coloring_factory(cfg));

  runtime::Adversary adv(17);
  for (int round = 0; round < 60; ++round) {
    adv.corrupt_random(engine, 3, cfg.span());
    adv.churn_edges(engine, 1, 1, dmax);
    engine.step();
  }
  EXPECT_TRUE(
      selfstab::run_stabilization(engine, {}, selfstab::coloring_spec(cfg)).recovered);
  EXPECT_LE(graph::max_color(selfstab::current_colors(engine)), dmax);
}

TEST(SsGrowth, VerticesJoinDuringExecution) {
  const std::size_t dmax = 6;
  graph::Graph g = graph::cycle(40);
  SsConfig cfg(200, dmax, PaletteMode::ODelta);  // n-bound covers future growth
  runtime::EngineOptions eo;
  eo.delta_bound = dmax;
  eo.n_bound = 200;
  runtime::Engine engine(std::move(g), runtime::Transport(runtime::Model::LOCAL),
                         eo);
  engine.install(selfstab::ss_coloring_factory(cfg));
  auto spec = selfstab::coloring_spec(cfg);
  spec.recovery_budget = 5000;
  ASSERT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);

  graph::Rng rng(23);
  for (int i = 0; i < 30; ++i) {
    const auto v = engine.add_vertex();
    for (int k = 0; k < 3; ++k) {
      const auto u = static_cast<graph::Vertex>(rng.below(v));
      if (engine.graph().degree(u) < dmax && engine.graph().degree(v) < dmax) {
        engine.add_edge(v, u);
      }
    }
    engine.step();  // joins are interleaved with execution
  }
  EXPECT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);
  EXPECT_TRUE(
      graph::is_proper_coloring(engine.graph(), selfstab::current_colors(engine)));
}

TEST(SsMisExtra, StableMisVertexSurvivesRemoteFaults) {
  // Theorem 4.6's core: a vertex in the MIS whose 1-hop neighborhood is
  // untouched stays in the MIS, whatever happens further away.
  const auto g = graph::random_regular(150, 5, 47);
  SsConfig cfg(g.n(), 5, PaletteMode::ODelta);
  runtime::EngineOptions eo;
  eo.delta_bound = 5;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_mis_factory(cfg));
  auto spec = selfstab::mis_spec(cfg);
  spec.recovery_budget = 20000;
  ASSERT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);

  const auto mis_before = selfstab::current_mis(engine);
  // Pick an MIS vertex and fault everything at distance >= 2 from it.
  graph::Vertex anchor = 0;
  while (!mis_before[anchor]) ++anchor;
  std::vector<bool> protected_zone(g.n(), false);
  protected_zone[anchor] = true;
  for (auto u : g.neighbors(anchor)) protected_zone[u] = true;

  graph::Rng rng(3);
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    if (!protected_zone[v] && rng.below(3) == 0) {
      engine.corrupt_ram(v, 0, rng.below(cfg.span()));
      engine.corrupt_ram(v, 1, rng.below(3));
    }
  }
  ASSERT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);
  EXPECT_TRUE(selfstab::current_mis(engine)[anchor]);
}

TEST(SsLineExtra, EdgeChurnHealsEdgeColoring) {
  const std::size_t dmax = 6;
  const auto g = graph::random_bounded_degree(80, dmax, 180, 29);
  selfstab::SsLineConfig cfg(g.n(), dmax, selfstab::LineTask::EdgeColoring);
  runtime::EngineOptions eo;
  eo.delta_bound = dmax;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_line_factory(cfg));
  auto spec = selfstab::line_spec(cfg);
  spec.recovery_budget = 60000;
  ASSERT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);

  runtime::Adversary adv(31);
  adv.churn_edges(engine, 15, 15, dmax);
  ASSERT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);
  const auto colors = selfstab::current_edge_colors(engine);
  EXPECT_TRUE(graph::is_proper_edge_coloring(engine.graph(), colors));
  EXPECT_LT(graph::max_color(colors), 2 * dmax - 1);
}

TEST(SsModes, ODeltaPaletteIsActuallyODelta) {
  for (std::size_t delta : {2u, 5u, 11u, 23u}) {
    SsConfig cfg(10000, delta, PaletteMode::ODelta);
    // The I_0 AG field is the Excl stage's field: about 4*Delta.
    EXPECT_LE(cfg.final_palette(), 5 * delta + 12);
    EXPECT_GT(cfg.final_palette(), delta);
  }
}

}  // namespace
