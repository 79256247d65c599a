// The locally-iterative sweep — run_locally_iterative's backend for hook-free
// BSP runs — against the round engine, which a no-op fault adversary forces
// without changing the run: every registry algorithm that runs through
// run_locally_iterative (Luby included), on both graph backends, at 1/2/8
// threads, must report the same colors, rounds, convergence, per-round
// properness, metrics, RoundEnd events and observer trace — the sweep hands
// rules their neighbors in CSR order, the engine sorted.  Also pins, for
// every rule the library's entry points run, the is_final contract (final
// colors are fixed points of step()) that lets the sweep skip final
// vertices, and the order contract (step() ignores the neighbors' order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../src/coloring/fyz_stages.hpp"
#include "agc/arb/arbag.hpp"
#include "agc/arb/defective.hpp"
#include "agc/coloring/ag.hpp"
#include "agc/coloring/ag3.hpp"
#include "agc/coloring/fyz.hpp"
#include "agc/coloring/kuhn_wattenhofer.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/luby.hpp"
#include "agc/coloring/palette.hpp"
#include "agc/coloring/pipeline.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/coloring/registry.hpp"
#include "agc/coloring/symmetry.hpp"
#include "agc/exec/executor.hpp"
#include "agc/graph/generators.hpp"
#include "agc/graph/spec.hpp"
#include "agc/math/primes.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/iterative.hpp"

namespace {

using namespace agc;
using graph::Color;
using graph::GraphView;

/// Injects nothing, so it changes no observable — but any adversary routes
/// run_locally_iterative onto the engine.
class NoopAdversary final : public runtime::FaultAdversary {
 public:
  std::size_t inject(runtime::Engine&, std::size_t) override { return 0; }
};

/// Keeps the (round, value) of every RoundEnd event and the tag of the
/// latest RunStart (the running stage).
class Recorder final : public obs::EventSink {
 public:
  void emit(const obs::Event& ev) override {
    if (ev.kind == obs::EventKind::RoundEnd) ends.emplace_back(ev.round, ev.value);
    if (ev.kind == obs::EventKind::RunStart) stage = ev.label != nullptr ? ev.label : "";
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ends;
  std::string stage;
};

/// Everything the two backends must agree on.
struct Observed {
  std::vector<Color> colors;
  std::size_t rounds = 0;
  bool converged = false;
  bool proper_each_round = false;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_edge_bits = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> round_ends;
  /// (round, FNV digest of the coloring) per on_round call.
  std::vector<std::pair<std::size_t, std::uint64_t>> trace;
};

std::uint64_t digest(std::span<const Color> colors) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Color c : colors) h = (h ^ c) * 1099511628211ULL;
  return h;
}

template <typename Report>
Observed observe(const Report& rep, const Recorder& rec,
                 std::vector<std::pair<std::size_t, std::uint64_t>> trace) {
  Observed o;
  o.colors = rep.colors;
  o.rounds = rep.rounds;
  o.converged = rep.converged;
  o.proper_each_round = rep.proper_each_round;
  o.messages = rep.metrics.messages;
  o.total_bits = rep.metrics.total_bits;
  o.max_edge_bits = rep.metrics.max_edge_bits;
  o.round_ends = rec.ends;
  o.trace = std::move(trace);
  return o;
}

Observed run_algo(const coloring::AlgoSpec& algo, GraphView g,
                  std::size_t threads, bool on_engine) {
  Recorder rec;
  NoopAdversary noop;
  std::vector<std::pair<std::size_t, std::uint64_t>> trace;
  coloring::PipelineOptions po;
  po.run().executor = exec::make_executor(threads);
  po.run().sink = &rec;
  if (on_engine) po.run().adversary = &noop;
  po.iter.on_round = [&](std::size_t round, std::span<const Color> colors) {
    trace.emplace_back(round, digest(colors));
  };
  const coloring::PipelineReport rep = algo.run(g, po);
  return observe(rep, rec, std::move(trace));
}

Observed run_rule(GraphView g, std::vector<Color> init,
                  const runtime::IterativeRule& rule,
                  runtime::IterativeOptions io, bool on_engine) {
  Recorder rec;
  NoopAdversary noop;
  std::vector<std::pair<std::size_t, std::uint64_t>> trace;
  io.sink = &rec;
  if (on_engine) io.adversary = &noop;
  io.on_round = [&](std::size_t round, std::span<const Color> colors) {
    trace.emplace_back(round, digest(colors));
  };
  const runtime::IterativeResult res =
      runtime::run_locally_iterative(g, std::move(init), rule, io);
  return observe(res, rec, std::move(trace));
}

void expect_same(const Observed& sweep, const Observed& engine) {
  EXPECT_EQ(sweep.colors, engine.colors);
  EXPECT_EQ(sweep.rounds, engine.rounds);
  EXPECT_EQ(sweep.converged, engine.converged);
  EXPECT_EQ(sweep.proper_each_round, engine.proper_each_round);
  EXPECT_EQ(sweep.messages, engine.messages);
  EXPECT_EQ(sweep.total_bits, engine.total_bits);
  EXPECT_EQ(sweep.max_edge_bits, engine.max_edge_bits);
  EXPECT_EQ(sweep.round_ends, engine.round_ends);
  EXPECT_EQ(sweep.trace, engine.trace);
}

// ---------------------------------------------------------------------------
// Sweep == engine, for every registry algorithm built on
// run_locally_iterative.
// ---------------------------------------------------------------------------

TEST(SweepVsEngine, EveryIterativeAlgorithmEveryBackendEveryThreadCount) {
  // "gnp:n=150,p=0.006" leaves most vertices isolated; path:0 is empty.
  const char* const specs[] = {
      "regular:n=120,d=6,seed=3",
      "gnp:n=150,p=0.05,seed=7",
      "powerlaw:n=160,gamma=2.5,avgdeg=5,seed=9",
      "gnp:n=150,p=0.006,seed=5",
      "path:1",
      "path:0",
  };
  const char* const algos[] = {"gps", "kw",  "ag",  "exact", "odelta",
                               "fyz", "eps", "sublinear", "luby"};
  for (const char* spec : specs) {
    const auto s = graph::GraphSpec::parse(spec);
    const graph::Graph dyn = s.build();
    const graph::FrozenGraph frz = s.build_frozen();
    for (const GraphView g : {GraphView(dyn), GraphView(frz)}) {
      for (const char* name : algos) {
        const coloring::AlgoSpec* algo = coloring::find_algo(name);
        ASSERT_NE(algo, nullptr) << name;
        for (const std::size_t threads : {1u, 2u, 8u}) {
          SCOPED_TRACE(std::string(spec) + " " + name +
                       (g.frozen() ? " frozen" : " dynamic") +
                       " threads=" + std::to_string(threads));
          const Observed sweep = run_algo(*algo, g, threads, false);
          const Observed engine = run_algo(*algo, g, threads, true);
          expect_same(sweep, engine);
          EXPECT_EQ(sweep.colors.size(), g.n());
        }
      }
    }
  }
}

TEST(SweepVsEngine, ClosedFormAccountingMatchesTheBroadcastLedger) {
  // messages = rounds * sum of degrees, bits = messages * color_bits(),
  // max_edge_bits = rounds * color_bits() — on the engine's own counters.
  const auto g = graph::random_regular(300, 8, 11);
  const coloring::LinialSchedule sched(g.n(), g.max_degree());
  ASSERT_GT(sched.stages(), 0u);
  const coloring::LinialRule rule(sched);
  std::vector<Color> init = coloring::identity_coloring(g.n());
  for (Color& c : init) c += sched.offset(sched.stages());
  const Observed engine = run_rule(g, init, rule, {}, true);
  ASSERT_GT(engine.rounds, 0u);
  EXPECT_EQ(engine.messages, engine.rounds * 2 * g.m());
  EXPECT_EQ(engine.total_bits, engine.messages * rule.color_bits());
  EXPECT_EQ(engine.max_edge_bits, engine.rounds * rule.color_bits());
  expect_same(run_rule(g, init, rule, {}, false), engine);
}

TEST(SweepVsEngine, PhaseTimesBookTheStepUnderReceive) {
  const auto g = graph::random_regular(200, 8, 12);
  for (const std::size_t threads : {1u, 2u}) {
    coloring::PipelineOptions po;
    po.run().executor = exec::make_executor(threads);
    po.run().collect_phase_times = true;
    const auto rep = coloring::color_delta_plus_one(g, po);
    EXPECT_EQ(rep.phases.phase_calls(obs::Phase::Send), 0u);
    EXPECT_EQ(rep.phases.phase_calls(obs::Phase::Deliver), 0u);
    EXPECT_GE(rep.phases.phase_calls(obs::Phase::Receive), rep.rounds * threads);
    EXPECT_GT(rep.phases.phase_calls(obs::Phase::Check), 0u);
    EXPECT_GT(rep.state_bytes, 0u);
  }
}

TEST(SweepVsEngine, InitialColoringMustCoverEveryVertex) {
  const auto g = graph::path(4);
  const coloring::GreedyReduceRule rule(3, 8);
  for (const bool on_engine : {false, true}) {
    EXPECT_THROW(run_rule(g, {5, 4, 3}, rule, {}, on_engine), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Properness and transport errors reproduce on both paths.
// ---------------------------------------------------------------------------

/// Test-only rule on states c = 100 * r + tag: round 1 lifts every tag to
/// r = 1; round 2 sends tags 1 and 2 (adjacent on the path below) to the
/// same final color 500, so both endpoints of that edge change in the round
/// that makes it monochromatic, and every other tag to r = 2.
class CollideInRoundTwo final : public runtime::IterativeRule {
 public:
  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color>) const override {
    if (own >= 200) return own;
    if (own == 101 || own == 102) return 500;
    return own + 100;
  }
  [[nodiscard]] bool is_final(Color c) const override { return c >= 200; }
  [[nodiscard]] std::uint32_t color_bits() const override {
    return runtime::width_of(500);
  }
};

TEST(SweepVsEngine, MonochromaticEdgeInRoundTwoFlipsProperEachRound) {
  const auto g = graph::path(4);  // tags 1-2-3-4
  const CollideInRoundTwo rule;
  for (const std::size_t threads : {1u, 2u}) {
    runtime::IterativeOptions io;
    io.executor = exec::make_executor(threads);
    const Observed sweep = run_rule(g, {1, 2, 3, 4}, rule, io, false);
    const Observed engine = run_rule(g, {1, 2, 3, 4}, rule, io, true);
    expect_same(sweep, engine);
    EXPECT_EQ(sweep.rounds, 2u);
    EXPECT_TRUE(sweep.converged);
    EXPECT_FALSE(sweep.proper_each_round);
    EXPECT_EQ(sweep.colors, (std::vector<Color>{500, 500, 203, 204}));
  }
}

std::string error_of(GraphView g, std::vector<Color> init,
                     const runtime::IterativeRule& rule,
                     const runtime::IterativeOptions& io, bool on_engine) {
  try {
    (void)run_rule(g, std::move(init), rule, io, on_engine);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(SweepVsEngine, CongestCapBelowColorBitsThrowsTheSameError) {
  const auto g = graph::random_regular(300, 4, 2);
  const coloring::LinialSchedule sched(g.n(), g.max_degree());
  ASSERT_GT(sched.stages(), 0u);
  const coloring::LinialRule rule(sched);
  std::vector<Color> init = coloring::identity_coloring(g.n());
  for (Color& c : init) c += sched.offset(sched.stages());
  runtime::IterativeOptions io;
  io.model = runtime::Model::CONGEST;
  io.congest_bits = rule.color_bits() - 1;
  const std::string sweep = error_of(g, init, rule, io, false);
  EXPECT_EQ(sweep, error_of(g, init, rule, io, true));
  EXPECT_NE(sweep.find("exceeds CONGEST cap"), std::string::npos) << sweep;

  io.model = runtime::Model::BIT;
  EXPECT_EQ(error_of(g, init, rule, io, false), error_of(g, init, rule, io, true));
}

/// Declares 3-bit colors but steps 1 -> 2 -> 100 and 9 -> 100: the engine
/// rejects a color wider than that in the broadcast of the round after it
/// appears, if there is one.  3 is a non-final fixed point.
class OutgrowsItsWidth final : public runtime::IterativeRule {
 public:
  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color>) const override {
    if (own == 1) return 2;
    return own == 2 || own == 9 ? 100 : own;
  }
  [[nodiscard]] bool is_final(Color c) const override { return c == 0 || c >= 100; }
  [[nodiscard]] std::uint32_t color_bits() const override { return 3; }
};

TEST(SweepVsEngine, ValueWiderThanColorBitsFailsOnTheSameRound) {
  const OutgrowsItsWidth rule;
  const auto g = graph::path(3);
  // Vertex 1 reaches 100 in round 2; vertex 2 never finishes, so round 3
  // broadcasts it.
  const std::vector<Color> init{0, 1, 3};
  const std::string sweep = error_of(g, init, rule, {}, false);
  EXPECT_EQ(sweep, error_of(g, init, rule, {}, true));
  EXPECT_NE(sweep.find("wider than its declared bit width"), std::string::npos);

  // Reached in the last round: no later broadcast, so no error either way.
  const std::vector<Color> last{0, 1, 0};
  const Observed quiet = run_rule(g, last, rule, {}, false);
  expect_same(quiet, run_rule(g, last, rule, {}, true));
  EXPECT_EQ(quiet.colors, (std::vector<Color>{0, 100, 0}));

  // An isolated vertex has no port to broadcast on, so its width is never
  // checked; the sweep still steps it from its exact color.
  const graph::Graph lone(1);
  const Observed alone = run_rule(lone, {9}, rule, {}, false);
  expect_same(alone, run_rule(lone, {9}, rule, {}, true));
}

// ---------------------------------------------------------------------------
// The is_final contract, for every rule the library's entry points run.
// ---------------------------------------------------------------------------

/// on_round observer: counts the vertices that were final before a round
/// (by `is_final`) and those of them whose color changed in it.
struct FinalWatch {
  explicit FinalWatch(std::function<bool(Color)> f) : is_final(std::move(f)) {}

  std::function<bool(Color)> is_final;
  std::vector<Color> before;
  std::size_t final_steps = 0;
  std::size_t moved = 0;

  void observe(std::size_t round, std::span<const Color> now) {
    for (std::size_t v = 0; round > 0 && v < now.size(); ++v) {
      if (!is_final(before[v])) continue;
      ++final_steps;
      moved += now[v] != before[v];
    }
    before.assign(now.begin(), now.end());
  }
};

/// Engine-forced run whose on_round checks that no vertex whose color was
/// final before a round changes in it.
void expect_final_is_fixed(const char* what, GraphView g, std::vector<Color> init,
                           const runtime::IterativeRule& rule, std::size_t max_rounds) {
  SCOPED_TRACE(what);
  NoopAdversary noop;
  runtime::IterativeOptions io;
  io.adversary = &noop;
  io.max_rounds = max_rounds;
  io.check_proper_each_round = false;
  FinalWatch watch{[&](Color c) { return rule.is_final(c); }};
  io.on_round = [&](std::size_t round, std::span<const Color> now) {
    watch.observe(round, now);
  };
  const auto res = runtime::run_locally_iterative(g, std::move(init), rule, io);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(watch.final_steps, 0u);  // final vertices really were stepped
  EXPECT_EQ(watch.moved, 0u);
}

/// A rule the library's entry points run, an initial coloring it really
/// meets there, and a round cap.
struct RuleCase {
  std::string name;
  std::unique_ptr<runtime::IterativeRule> rule;
  std::vector<Color> init;
  std::size_t max_rounds;
};

/// Every rule the library's entry points run, apart from FYZ's stage rules
/// (FyzStages) and Luby's and the MIS wave's (internal to their entry
/// points).
std::vector<RuleCase> pipeline_rules(GraphView g) {
  const std::size_t delta = g.max_degree();
  const std::uint64_t n = g.n();
  std::vector<RuleCase> cases;
  const auto add = [&](const char* name, auto rule, std::vector<Color> init,
                       std::size_t max_rounds) {
    cases.push_back({name, std::make_unique<decltype(rule)>(std::move(rule)),
                     std::move(init), max_rounds});
  };

  // Linial moves every vertex down one interval per round in lockstep, so
  // start half of them at their final color to have final vertices stepped.
  const coloring::LinialSchedule lsched(n, delta);
  EXPECT_GT(lsched.stages(), 0u);
  const auto lin = coloring::linial_color(g, coloring::identity_coloring(n), n, delta);
  std::vector<Color> half = coloring::identity_coloring(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    half[v] = v % 2 == 0 ? lin.colors[v] : v + lsched.offset(lsched.stages());
  }
  add("linial", coloring::LinialRule(lsched), half, lsched.stages() + 2);

  const Color k_lin = graph::max_color(lin.colors) + 1;
  const coloring::AgRule ag(coloring::ag_modulus(delta, k_lin));
  add("ag", ag, lin.colors, ag.q() + 2);

  const auto ag_out = coloring::additive_group_color(g, lin.colors, delta);
  const Color k_ag = graph::max_color(ag_out.colors) + 1;
  add("reduce", coloring::GreedyReduceRule(delta + 1, std::max<Color>(k_ag, delta + 1)),
      ag_out.colors, k_ag + 1);

  const coloring::KwSchedule kw_sched(k_lin, delta);
  std::vector<Color> kw_init = lin.colors;
  for (Color& c : kw_init) c += kw_sched.offset(0);
  add("kw", coloring::KwRule(kw_sched), kw_init, kw_sched.round_bound());

  const std::uint64_t p3 = coloring::three_ag_modulus(delta, n);
  add("3ag", coloring::ThreeAgRule(p3), coloring::identity_coloring(n), 2 * p3 + 2);

  const auto exact = coloring::color_delta_plus_one(g);
  const std::uint64_t big_n = delta + 1;
  // Shifting any subset of a proper (<N)-coloring up by N keeps it proper;
  // the unshifted half starts final.
  std::vector<Color> shifted = exact.colors;
  for (graph::Vertex v = 0; v < n; v += 2) shifted[v] += big_n;
  add("ag(n)", coloring::AgnRule(big_n), shifted, big_n + 1);

  const coloring::MixedRule mixed(delta, k_ag);
  std::vector<Color> mixed_init = ag_out.colors;
  for (Color& c : mixed_init) c = mixed.lift(c);
  add("mixed", mixed, mixed_init, mixed.round_bound());

  const coloring::Mixed3Rule mixed3(delta, k_ag);
  std::vector<Color> mixed3_init = ag_out.colors;
  for (Color& c : mixed3_init) c = mixed3.lift(c);
  add("mixed3", mixed3, mixed3_init, mixed3.round_bound());

  // ArbAG, seeded exactly as arb::arbdefective_color seeds it.
  const std::size_t p = 2;
  const auto seed = arb::defective_color(g, p, n);
  const std::uint64_t window = 2 * ((delta + p - 1) / p) + 1;
  const auto sqrt_pal = static_cast<std::uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(seed.palette_bound))));
  const std::uint64_t q = math::next_prime(std::max<std::uint64_t>(window + 1, sqrt_pal));
  std::vector<Color> arb_init(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    arb_init[v] = arb::ArbAgRule::pack(seed.colors[v], seed.colors[v] / q,
                                       seed.colors[v] % q, q);
  }
  add("arbag", arb::ArbAgRule(q, p), arb_init, window);
  return cases;
}

TEST(IsFinalContract, EveryPipelineRuleKeepsFinalColorsFixed) {
  const auto g = graph::random_regular(300, 8, 17);
  for (const RuleCase& c : pipeline_rules(g)) {
    expect_final_is_fixed(c.name.c_str(), g, c.init, *c.rule, c.max_rounds);
  }
}

// Luby's and the MIS wave's rules are internal to their entry points:
// watch engine-forced runs of those through on_round.

TEST(IsFinalContract, LubyDoneStatesStayFixed) {
  const auto g = graph::random_regular(300, 8, 17);
  const Color d1 = g.max_degree() + 1;
  for (const std::uint64_t seed : {1u, 7u}) {
    NoopAdversary noop;
    coloring::PipelineOptions po;
    po.run().adversary = &noop;
    po.run().seed = seed;
    FinalWatch watch{[d1](Color state) { return state < d1; }};  // done
    po.iter.on_round = [&](std::size_t round, std::span<const Color> now) {
      watch.observe(round, now);
    };
    const auto rep = coloring::color_luby(g, po);
    EXPECT_TRUE(rep.proper) << "seed=" << seed;
    EXPECT_GT(watch.final_steps, 0u) << "seed=" << seed;
    EXPECT_EQ(watch.moved, 0u) << "seed=" << seed;
  }
}

TEST(IsFinalContract, MisWaveDecidedWordsStayFixed) {
  // Word = (color << 2) | status; status 0 is undecided.  The identity
  // coloring's long decreasing chains keep the wave going for many rounds.
  const auto g = graph::random_regular(300, 8, 17);
  const auto colored = coloring::color_delta_plus_one(g);
  for (const auto& colors : {colored.colors, coloring::identity_coloring(g.n())}) {
    NoopAdversary noop;
    runtime::IterativeOptions io;
    io.adversary = &noop;
    FinalWatch watch{[](Color word) { return (word & 3) != 0; }};
    io.on_round = [&](std::size_t round, std::span<const Color> now) {
      watch.observe(round, now);
    };
    const auto rep = coloring::mis_from_coloring(g, colors, io);
    EXPECT_TRUE(rep.valid);
    EXPECT_GT(watch.final_steps, 0u);
    EXPECT_EQ(watch.moved, 0u);
  }
}

TEST(IsFinalContract, FyzStagesKeepFinalColorsFixed) {
  // The FYZ stage rules live in color_fyz; watch its engine-forced run and
  // judge each round against the rule of the stage that is running.
  for (const std::size_t d : {6u, 16u}) {
    const auto g = graph::random_regular(400, d, 23);
    const std::size_t delta = g.max_degree();
    const coloring::detail::FyzStages st(g.n(), delta);
    ASSERT_FALSE(st.psched.stages.empty());
    const auto rule_of = [&](const std::string& stage) -> const runtime::IterativeRule* {
      if (stage == "fyz-partition") return &st.partition;
      if (stage == "fyz-arb") return &st.arb;
      if (stage == "fyz-list") return &st.list;
      return nullptr;
    };

    Recorder rec;
    NoopAdversary noop;
    coloring::PipelineOptions po;
    po.run().sink = &rec;
    po.run().adversary = &noop;
    std::vector<Color> before;
    std::vector<std::string> stages_seen;
    std::size_t final_steps = 0;
    std::size_t moved = 0;
    po.iter.on_round = [&](std::size_t round, std::span<const Color> now) {
      const runtime::IterativeRule* rule = rule_of(rec.stage);
      if (round == 0 && rule != nullptr) stages_seen.push_back(rec.stage);
      for (std::size_t v = 0; rule != nullptr && round > 0 && v < now.size(); ++v) {
        if (!rule->is_final(before[v])) continue;
        ++final_steps;
        moved += now[v] != before[v];
      }
      before.assign(now.begin(), now.end());
    };
    const auto rep = coloring::color_fyz(g, po);
    EXPECT_TRUE(rep.proper);
    EXPECT_EQ(stages_seen,
              (std::vector<std::string>{"fyz-partition", "fyz-arb", "fyz-list"}));
    EXPECT_GT(final_steps, 0u);
    EXPECT_EQ(moved, 0u) << "Delta=" << delta;
  }
}

// ---------------------------------------------------------------------------
// The order contract: step() reads the neighbor multiset, never the order
// the runner presents it in (the sweep passes CSR order, the engine sorted).
// ---------------------------------------------------------------------------

/// Steps every non-final vertex of `colors` on its real neighborhood,
/// presented sorted, reversed and in three seeded shuffles, and counts the
/// vertices whose five results are not all equal.
std::size_t order_dependent_steps(GraphView g, std::span<const Color> colors,
                                  const runtime::IterativeRule& rule,
                                  std::uint64_t round) {
  std::size_t bad = 0;
  std::vector<Color> sorted;
  std::vector<Color> shown;
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    if (rule.is_final(colors[v])) continue;
    sorted.clear();
    for (const graph::Vertex u : g.neighbors(v)) sorted.push_back(colors[u]);
    std::sort(sorted.begin(), sorted.end());
    const auto step = [&] { return rule.step({v, round}, colors[v], shown); };
    shown = sorted;
    const Color want = step();
    shown.assign(sorted.rbegin(), sorted.rend());
    bool same = step() == want;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      shown = sorted;
      graph::Rng rng(seed * 1000003 + v);
      for (std::size_t i = shown.size(); i > 1; --i) {
        std::swap(shown[i - 1], shown[rng.below(i)]);
      }
      same = same && step() == want;
    }
    bad += !same;
  }
  return bad;
}

TEST(OrderContract, EveryRuleIgnoresNeighbourOrder) {
  // Every round of a run from each rule's initial coloring, so the rarely
  // taken branches that sort (a greedy local maximum, a KW descent, a FYZ
  // re-proposal) are reached.
  const auto g = graph::random_regular(300, 8, 17);
  for (const RuleCase& c : pipeline_rules(g)) {
    SCOPED_TRACE(c.name);
    std::size_t bad = 0;
    std::size_t rounds = 0;
    runtime::IterativeOptions io;
    io.max_rounds = c.max_rounds;
    io.on_round = [&](std::size_t round, std::span<const Color> now) {
      bad += order_dependent_steps(g, now, *c.rule, round);
      rounds = round;
    };
    const auto res = runtime::run_locally_iterative(g, c.init, *c.rule, io);
    EXPECT_TRUE(res.converged);
    EXPECT_GT(rounds, 0u);
    EXPECT_EQ(bad, 0u);
  }

  // FYZ's three stage rules, judged on every round of color_fyz's own run.
  const auto gf = graph::random_regular(400, 16, 23);
  const coloring::detail::FyzStages st(gf.n(), gf.max_degree());
  const std::vector<std::pair<std::string, const runtime::IterativeRule*>> fyz = {
      {"fyz-partition", &st.partition}, {"fyz-arb", &st.arb}, {"fyz-list", &st.list}};
  Recorder rec;
  coloring::PipelineOptions po;
  po.run().sink = &rec;
  std::map<std::string, std::size_t> bad;
  po.iter.on_round = [&](std::size_t round, std::span<const Color> now) {
    for (const auto& [stage, rule] : fyz) {
      if (stage == rec.stage) bad[stage] += order_dependent_steps(gf, now, *rule, round);
    }
  };
  EXPECT_TRUE(coloring::color_fyz(gf, po).proper);
  for (const auto& [stage, rule] : fyz) {
    ASSERT_EQ(bad.count(stage), 1u) << stage << " never ran";
    EXPECT_EQ(bad[stage], 0u) << stage;
  }
}

}  // namespace
