// Self-stabilization suite: Section 4 (coloring, MIS, line-graph MM and
// edge coloring) and the Section 7 exact-(Delta+1) variant, under RAM
// corruption, worst-case color cloning, edge churn and vertex churn, all
// through the one stabilization runner and each task's one legality check.
#include <gtest/gtest.h>

#include <algorithm>

#include "agc/exec/executor.hpp"
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

runtime::Engine make_engine(graph::Graph g, std::size_t delta_bound) {
  runtime::EngineOptions opts;
  opts.delta_bound = delta_bound;
  return runtime::Engine(std::move(g), runtime::Transport(runtime::Model::LOCAL),
                         opts);
}

std::size_t stabilization_budget(const SsConfig& cfg, std::size_t n) {
  // O(Delta + log* n) with generous constants.
  return 24 * (cfg.delta() + 2) + 8 * (cfg.schedule().stages() + 2) + 64 + n / 10;
}

/// run_stabilization from the engine's current state, fault-free, with the
/// settle capped at `budget` rounds.
selfstab::StabilizationOutcome settle(runtime::Engine& engine,
                                      selfstab::StabilizationSpec spec,
                                      std::size_t budget) {
  spec.recovery_budget = budget;
  return selfstab::run_stabilization(engine, {}, spec);
}

TEST(SsColoring, StabilizesFromScratchODelta) {
  const auto g = graph::random_regular(120, 6, 11);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  ASSERT_TRUE(
      settle(engine, selfstab::coloring_spec(cfg), stabilization_budget(cfg, g.n()))
          .recovered);
  const auto colors = selfstab::current_colors(engine);
  EXPECT_TRUE(graph::is_proper_coloring(g, colors));
  EXPECT_LT(graph::max_color(colors), cfg.final_palette());
}

TEST(SsColoring, StabilizesFromScratchExact) {
  const auto g = graph::random_regular(120, 6, 12);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ExactDeltaPlusOne);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  ASSERT_TRUE(
      settle(engine, selfstab::coloring_spec(cfg), stabilization_budget(cfg, g.n()))
          .recovered);
  const auto colors = selfstab::current_colors(engine);
  EXPECT_TRUE(graph::is_proper_coloring(g, colors));
  EXPECT_LE(graph::max_color(colors), g.max_degree());  // exactly Delta+1 colors
}

TEST(SsColoring, RecoversFromRamCorruption) {
  const auto g = graph::random_gnp(150, 0.06, 5);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  const auto spec = selfstab::coloring_spec(cfg);
  ASSERT_TRUE(settle(engine, spec, stabilization_budget(cfg, g.n())).recovered);

  runtime::Adversary adv(99);
  adv.corrupt_random(engine, 40, cfg.span() * 2);  // includes invalid values
  adv.clone_neighbor(engine, 20);                  // guaranteed conflicts
  EXPECT_TRUE(settle(engine, spec, stabilization_budget(cfg, g.n())).recovered);
}

TEST(SsColoring, RecoversFromChurn) {
  const std::size_t dmax = 10;
  const auto g = graph::random_bounded_degree(120, dmax, 300, 17);
  SsConfig cfg(g.n(), dmax, PaletteMode::ExactDeltaPlusOne);
  runtime::EngineOptions eo;
  eo.delta_bound = dmax;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_coloring_factory(cfg));
  const auto spec = selfstab::coloring_spec(cfg);
  ASSERT_TRUE(settle(engine, spec, stabilization_budget(cfg, g.n())).recovered);

  runtime::Adversary adv(7);
  adv.churn_edges(engine, 30, 30, dmax);
  adv.churn_vertices(engine, 5, 3, dmax);
  EXPECT_TRUE(settle(engine, spec, stabilization_budget(cfg, g.n())).recovered);
  // The palette stays Delta+1.
  EXPECT_LE(graph::max_color(selfstab::current_colors(engine)), dmax);
}

TEST(SsColoring, AdjustmentRadiusOne) {
  // Corrupt a single vertex; only its 1-hop neighborhood may change color.
  const auto g = graph::random_regular(100, 4, 23);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  const auto spec = selfstab::coloring_spec(cfg);
  ASSERT_TRUE(settle(engine, spec, stabilization_budget(cfg, g.n())).recovered);

  const auto before = selfstab::current_colors(engine);
  const graph::Vertex victim = 42;
  // Clone a neighbor's color: forces victim (and possibly that neighborhood)
  // to recompute.
  engine.corrupt_ram(victim, 0, before[engine.graph().neighbors(victim)[0]]);
  ASSERT_TRUE(settle(engine, spec, stabilization_budget(cfg, g.n())).recovered);

  const auto after = selfstab::current_colors(engine);
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    if (v == victim || g.has_edge(v, victim)) continue;
    EXPECT_EQ(after[v], before[v]) << "vertex " << v << " outside the 1-hop "
                                   << "neighborhood changed color";
  }
}

TEST(SsMis, StabilizesAndRecovers) {
  const auto g = graph::random_gnp(120, 0.05, 31);
  SsConfig cfg(g.n(), std::max<std::size_t>(g.max_degree(), 1), PaletteMode::ODelta);
  auto engine = make_engine(g, std::max<std::size_t>(g.max_degree(), 1));
  engine.install(selfstab::ss_mis_factory(cfg));
  const auto spec = selfstab::mis_spec(cfg);
  ASSERT_TRUE(settle(engine, spec, 4 * stabilization_budget(cfg, g.n())).recovered);
  EXPECT_TRUE(graph::is_mis(g, selfstab::current_mis(engine)));

  runtime::Adversary adv(3);
  adv.corrupt_random(engine, 30, cfg.span(), /*word=*/0);  // colors
  adv.corrupt_random(engine, 30, 4, /*word=*/1);           // statuses
  EXPECT_TRUE(settle(engine, spec, 4 * stabilization_budget(cfg, g.n())).recovered);
  EXPECT_TRUE(graph::is_mis(g, selfstab::current_mis(engine)));
}

TEST(SsLine, EdgeColoringStabilizesToTwoDeltaMinusOne) {
  const auto g = graph::random_regular(60, 5, 77);
  selfstab::SsLineConfig cfg(g.n(), g.max_degree(), selfstab::LineTask::EdgeColoring);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_line_factory(cfg));
  const std::size_t budget =
      4 * stabilization_budget(cfg.coloring(), g.n()) + 4 * g.n();
  ASSERT_TRUE(settle(engine, selfstab::line_spec(cfg), budget).recovered);
  const auto colors = selfstab::current_edge_colors(engine);
  EXPECT_TRUE(graph::is_proper_edge_coloring(g, colors));
  EXPECT_LT(graph::max_color(colors), 2 * g.max_degree() - 1)
      << "palette must be exactly 2*Delta-1";
}

TEST(SsLine, MaximalMatchingStabilizesAndRecovers) {
  const auto g = graph::random_gnp(60, 0.08, 41);
  selfstab::SsLineConfig cfg(g.n(), std::max<std::size_t>(g.max_degree(), 1),
                             selfstab::LineTask::MaximalMatching);
  auto engine = make_engine(g, std::max<std::size_t>(g.max_degree(), 1));
  engine.install(selfstab::ss_line_factory(cfg));
  const std::size_t budget =
      8 * stabilization_budget(cfg.coloring(), g.n()) + 8 * g.n();
  const auto spec = selfstab::line_spec(cfg);
  ASSERT_TRUE(settle(engine, spec, budget).recovered);
  EXPECT_TRUE(graph::is_maximal_matching(g, selfstab::current_matching(engine)));

  runtime::Adversary adv(5);
  for (graph::Vertex v = 0; v < 20; ++v) {
    adv.corrupt_random(engine, 3, cfg.coloring().span() << 2);
  }
  EXPECT_TRUE(settle(engine, spec, budget).recovered);
  EXPECT_TRUE(graph::is_maximal_matching(g, selfstab::current_matching(engine)));
}

// --- one legality check per task -------------------------------------------

/// An ss-line engine on gnp(60, 0.08, 41), settled by the runner.
struct SettledLine {
  explicit SettledLine(selfstab::LineTask task)
      : g(graph::random_gnp(60, 0.08, 41)),
        cfg(g.n(), g.max_degree(), task),
        engine(make_engine(g, g.max_degree())) {
    engine.install(selfstab::ss_line_factory(cfg));
    EXPECT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);
  }

  /// Overwrite `at`'s replica of the edge to `to`.
  void write_replica(graph::Vertex at, graph::Vertex to, std::uint64_t word) {
    const auto nbrs = engine.graph().neighbors(at);
    const auto port = std::find(nbrs.begin(), nbrs.end(), to) - nbrs.begin();
    engine.corrupt_ram(at, static_cast<std::size_t>(port), word);
  }

  graph::Graph g;
  selfstab::SsLineConfig cfg;
  runtime::Engine engine;
  selfstab::StabilizationSpec spec = selfstab::line_spec(cfg);
};

TEST(LineCheck, ReportsAnEdgeWhoseReplicasDisagree) {
  SettledLine s(selfstab::LineTask::EdgeColoring);
  ASSERT_FALSE(s.spec.check(s.engine));
  const graph::Edge e = graph::edge_list(s.g).front();
  const auto [at_u, at_w] = *selfstab::edge_replicas(s.engine, e);
  ASSERT_EQ(at_u, at_w);
  // The larger endpoint's replica takes another final color, same status:
  // the smaller endpoint's replicas, which current_edge_colors reads, still
  // form a proper final edge coloring.
  const std::uint64_t other = selfstab::packed_color(at_w) == 0 ? 1 : 0;
  ASSERT_TRUE(s.cfg.coloring().is_final(other));
  const std::uint64_t forged = selfstab::pack_cs(other, at_w & 3);
  s.write_replica(e.second, e.first, forged);
  ASSERT_EQ(*selfstab::edge_replicas(s.engine, e), std::pair(at_u, forged));
  EXPECT_TRUE(
      graph::is_proper_edge_coloring(s.g, selfstab::current_edge_colors(s.engine)));

  const selfstab::Violation v = s.spec.check(s.engine);
  EXPECT_EQ(v.kind, selfstab::ViolationKind::InvalidState);
  EXPECT_EQ(std::minmax(v.u, v.v), std::minmax(e.first, e.second));
}

TEST(LineCheck, MatchingNeedsAFinalProperEdgeColoring) {
  SettledLine s(selfstab::LineTask::MaximalMatching);
  ASSERT_FALSE(s.spec.check(s.engine));
  ASSERT_TRUE(graph::is_maximal_matching(s.g, selfstab::current_matching(s.engine)));
  // Rewrite both replicas of one edge, each keeping its status, so the
  // matching stays maximal and the replicas agree.
  const auto recolor = [&](graph::Edge e, std::uint64_t color) {
    const auto [at_u, at_w] = *selfstab::edge_replicas(s.engine, e);
    s.write_replica(e.first, e.second, selfstab::pack_cs(color, at_u & 3));
    s.write_replica(e.second, e.first, selfstab::pack_cs(color, at_w & 3));
  };
  const graph::Vertex u = 0;
  ASSERT_GE(s.g.degree(u), 2u);
  const graph::Edge e{u, s.g.neighbors(u)[0]};
  const graph::Edge f{u, s.g.neighbors(u)[1]};
  const std::uint64_t color =
      selfstab::packed_color(selfstab::edge_replicas(s.engine, e)->first);

  // A color outside the final palette.
  recolor(e, s.cfg.coloring().final_palette());
  ASSERT_TRUE(graph::is_maximal_matching(s.g, selfstab::current_matching(s.engine)));
  EXPECT_EQ(s.spec.check(s.engine).kind, selfstab::ViolationKind::OutOfPalette);

  // Two edges at u sharing a final color.
  recolor(e, selfstab::packed_color(selfstab::edge_replicas(s.engine, f)->first));
  ASSERT_TRUE(graph::is_maximal_matching(s.g, selfstab::current_matching(s.engine)));
  EXPECT_EQ(s.spec.check(s.engine).kind, selfstab::ViolationKind::MonochromaticEdge);

  recolor(e, color);
  EXPECT_FALSE(s.spec.check(s.engine));
}

// An Undecided vertex is not legal, even when every other vertex already
// forms a maximal independent set with it on the NotMIS side.
TEST(MisCheck, FreshODeltaSettleWaitsForTheLastUndecidedVertex) {
  const auto g = graph::random_gnp(80, 0.06, 45);
  const SsConfig cfg(g.n(), 11, PaletteMode::ODelta);
  auto engine = make_engine(g, 11);
  engine.install(selfstab::ss_mis_factory(cfg));
  const auto out = selfstab::run_stabilization(engine, {}, selfstab::mis_spec(cfg));
  ASSERT_TRUE(out.recovered);
  EXPECT_EQ(out.first_legal_round, 6u);
  EXPECT_EQ(out.rounds, 6u + 8);
}

// --- the fixed-point guard --------------------------------------------------

/// Once the runner reports recovered, the configuration is a fixed point:
/// 16 more fault-free rounds leave the task's outputs unchanged.
void expect_fixed_point(runtime::Engine& engine,
                        const selfstab::StabilizationSpec& spec, const char* task) {
  runtime::PeriodicAdversary adv(
      13, {.period = 3, .last_round = 9, .corrupt = 2, .clones = 1});
  runtime::RunOptions opts;
  opts.adversary = &adv;
  const auto out = selfstab::run_stabilization(engine, opts, spec);
  ASSERT_TRUE(out.recovered) << task;
  EXPECT_GT(out.fault_events, 0u) << task;
  const std::vector<std::uint64_t> fixed = spec.outputs(engine);
  for (int r = 1; r <= 16; ++r) {
    engine.step();
    ASSERT_EQ(spec.outputs(engine), fixed) << task << " moved " << r << " rounds on";
  }
}

TEST(FixedPoint, RecoveredStatesStopMovingForEveryTask) {
  const auto g = graph::random_gnp(90, 0.07, 61);
  const std::size_t delta = g.max_degree();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const PaletteMode mode :
         {PaletteMode::ODelta, PaletteMode::ExactDeltaPlusOne}) {
      const SsConfig cfg(g.n(), delta, mode);
      auto engine = make_engine(g, delta);
      engine.set_executor(exec::make_executor(threads));
      engine.install(selfstab::ss_coloring_factory(cfg));
      expect_fixed_point(engine, selfstab::coloring_spec(cfg),
                         mode == PaletteMode::ODelta ? "ss-color" : "ss-color-exact");
    }
    const SsConfig cfg(g.n(), delta, PaletteMode::ODelta);
    auto mis = make_engine(g, delta);
    mis.set_executor(exec::make_executor(threads));
    mis.install(selfstab::ss_mis_factory(cfg));
    expect_fixed_point(mis, selfstab::mis_spec(cfg), "ss-mis");
    for (const auto task :
         {selfstab::LineTask::EdgeColoring, selfstab::LineTask::MaximalMatching}) {
      const selfstab::SsLineConfig lcfg(g.n(), delta, task);
      auto line = make_engine(g, delta);
      line.set_executor(exec::make_executor(threads));
      line.install(selfstab::ss_line_factory(lcfg));
      expect_fixed_point(line, selfstab::line_spec(lcfg),
                         task == selfstab::LineTask::EdgeColoring ? "ss-line edges"
                                                                  : "ss-line matching");
    }
  }
}

}  // namespace
