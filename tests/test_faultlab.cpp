// The fault laboratory: channel adversaries inside the message path,
// recorded/replayable/shrinkable fault plans, the stabilization runner with
// its convergence watchdog under those faults, and the PeriodicAdversary
// boundary semantics — all pinned across 1/2/8 executor threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <vector>

#include "agc/arb/arbag.hpp"
#include "agc/arb/eps_coloring.hpp"
#include "agc/edge/edge_coloring.hpp"
#include "agc/exec/executor.hpp"
#include "agc/faultlab/plan.hpp"
#include "agc/faultlab/shrink.hpp"
#include "agc/faultlab/zoo.hpp"
#include "agc/graph/checks.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/ss_mis.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {

using namespace agc;
using faultlab::ChannelFaultConfig;
using faultlab::FaultPlan;
using faultlab::FaultPlanRecorder;
using faultlab::PlanAdversary;
using faultlab::WireFaults;
using runtime::FaultEvent;
using runtime::FaultKind;
using selfstab::PaletteMode;
using selfstab::SsConfig;

runtime::Engine make_engine(graph::Graph g, std::size_t delta_bound,
                            runtime::Model model = runtime::Model::LOCAL) {
  runtime::EngineOptions opts;
  opts.delta_bound = delta_bound;
  return runtime::Engine(std::move(g), runtime::Transport(model), opts);
}

// Tiny two-vertex probe program: broadcasts 100 + round, logs what arrives.
class ProbeProgram final : public runtime::VertexProgram {
 public:
  explicit ProbeProgram(std::vector<std::vector<std::uint64_t>>* log)
      : log_(log) {}
  void on_send(const runtime::VertexEnv& env, runtime::OutboxRef& out) override {
    out.broadcast(runtime::Word{100 + env.round, 8});
  }
  void on_receive(const runtime::VertexEnv&,
                  const runtime::InboxRef& in) override {
    std::vector<std::uint64_t> got;
    for (std::size_t p = 0; p < in.ports(); ++p) {
      for (const runtime::Word& w : in.from_port(p)) got.push_back(w.value);
    }
    log_->push_back(std::move(got));
  }

 private:
  std::vector<std::vector<std::uint64_t>>* log_;
};

graph::Graph k2() {
  graph::Graph g(2);
  g.add_edge(0, 1);
  return g;
}

// ---------------------------------------------------------------------------
// Channel fault semantics on a single edge
// ---------------------------------------------------------------------------

TEST(ChannelSemantics, DropDiscardsTheWholeMessage) {
  auto engine = make_engine(k2(), 1);
  std::vector<std::vector<std::uint64_t>> log;
  engine.install([&](const runtime::VertexEnv&) {
    return std::make_unique<ProbeProgram>(&log);
  });
  ChannelFaultConfig cfg;
  cfg.drop_per_million = 1'000'000;
  WireFaults chan(cfg, {}, 0);
  engine.set_channel(&chan);
  engine.step();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].empty());
  EXPECT_TRUE(log[1].empty());
  EXPECT_EQ(chan.events(), 2u);  // one per directed port
}

TEST(ChannelSemantics, CorruptFlipsOneBitWithinDeclaredWidth) {
  auto engine = make_engine(k2(), 1);
  std::vector<std::vector<std::uint64_t>> log;
  engine.install([&](const runtime::VertexEnv&) {
    return std::make_unique<ProbeProgram>(&log);
  });
  ChannelFaultConfig cfg;
  cfg.corrupt_per_million = 1'000'000;
  FaultPlanRecorder rec;
  WireFaults chan(cfg, {}, 0, &rec);
  engine.set_channel(&chan);
  engine.step();
  ASSERT_EQ(log.size(), 2u);
  for (const auto& got : log) {
    ASSERT_EQ(got.size(), 1u);
    EXPECT_NE(got[0], 100u);     // some bit flipped
    EXPECT_LT(got[0], 256u);     // still fits the declared 8-bit width
  }
  const FaultPlan plan = rec.take();
  ASSERT_EQ(plan.size(), 2u);
  for (const FaultEvent& ev : plan.events) {
    EXPECT_EQ(ev.kind, FaultKind::Corrupt);
    EXPECT_LT(ev.value, 8u);  // the flipped bit index honors the width
  }
}

TEST(ChannelSemantics, DuplicateDeliversTheWordTwice) {
  auto engine = make_engine(k2(), 1);
  std::vector<std::vector<std::uint64_t>> log;
  engine.install([&](const runtime::VertexEnv&) {
    return std::make_unique<ProbeProgram>(&log);
  });
  ChannelFaultConfig cfg;
  cfg.duplicate_per_million = 1'000'000;
  WireFaults chan(cfg, {}, 0);
  engine.set_channel(&chan);
  engine.step();
  ASSERT_EQ(log.size(), 2u);
  for (const auto& got : log) {
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], 100u);
    EXPECT_EQ(got[1], 100u);
  }
}

TEST(ChannelSemantics, DelayHoldsOneRoundAndPrepends) {
  auto engine = make_engine(k2(), 1);
  std::vector<std::vector<std::uint64_t>> log;
  engine.install([&](const runtime::VertexEnv&) {
    return std::make_unique<ProbeProgram>(&log);
  });
  ChannelFaultConfig cfg;
  cfg.delay_per_million = 1'000'000;
  cfg.last_round = 0;  // only round 0 is attacked; the flush is in-flight
  WireFaults chan(cfg, {}, 0);
  engine.set_channel(&chan);
  engine.step();  // round 0: both directions stashed
  engine.step();  // round 1: delayed word prepended to the live one
  engine.step();  // round 2: clean wire again
  ASSERT_EQ(log.size(), 6u);  // 2 vertices x 3 rounds
  EXPECT_TRUE(log[0].empty());
  EXPECT_TRUE(log[1].empty());
  EXPECT_EQ(log[2], (std::vector<std::uint64_t>{100, 101}));
  EXPECT_EQ(log[3], (std::vector<std::uint64_t>{100, 101}));
  EXPECT_EQ(log[4], (std::vector<std::uint64_t>{102}));
  EXPECT_EQ(log[5], (std::vector<std::uint64_t>{102}));
  EXPECT_EQ(chan.events(), 2u);
}

// ---------------------------------------------------------------------------
// PeriodicAdversary boundary semantics
// ---------------------------------------------------------------------------

TEST(PeriodicBoundary, RoundZeroNeverFires) {
  const auto g = graph::random_regular(40, 4, 3);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  runtime::PeriodicAdversary adv(7, {.period = 1, .corrupt = 3});
  EXPECT_EQ(adv.inject(engine, 0), 0u);  // period divides 0, still quiet
  EXPECT_EQ(adv.total_events(), 0u);
  EXPECT_EQ(adv.inject(engine, 1), 3u);
}

TEST(PeriodicBoundary, LastRoundIsInclusive) {
  const auto g = graph::random_regular(40, 4, 4);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  runtime::PeriodicAdversary adv(7, {.period = 5, .last_round = 10, .corrupt = 2});
  EXPECT_EQ(adv.inject(engine, 5), 2u);
  EXPECT_EQ(adv.inject(engine, 10), 2u);  // == last_round: fires
  EXPECT_EQ(adv.inject(engine, 15), 0u);  // > last_round: quiesced
  EXPECT_EQ(adv.total_events(), 4u);
}

TEST(PeriodicBoundary, FaultEventsEqualsAdversaryEventsAcrossEpochs) {
  const auto g = graph::random_gnp(80, 0.08, 9);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  runtime::PeriodicAdversary adv(
      11, {.period = 3, .last_round = 12, .corrupt = 2, .edge_adds = 1,
           .edge_removes = 1, .dmax = g.max_degree() + 2});
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.max_rounds = 4000;
  const auto spec = selfstab::coloring_spec(cfg);
  auto rep = selfstab::resettle(engine, opts, spec, {});
  ASSERT_TRUE(rep.recovered);
  // Second epoch rolls up via absorb(): counts must still reconcile.
  const auto rep2 = selfstab::resettle(engine, opts, spec, {});
  rep.absorb(rep2);
  EXPECT_EQ(rep.fault_events, adv.total_events());
}

TEST(PeriodicBoundary, ChurnVerticesCountsReconnectEdges) {
  const auto g = graph::random_regular(60, 4, 5);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree() + 3);
  engine.install(selfstab::ss_coloring_factory(cfg));
  FaultPlanRecorder rec;
  engine.set_fault_recorder(&rec);
  runtime::Adversary adv(21);
  adv.churn_vertices(engine, 3, 2, g.max_degree() + 3);
  adv.corrupt_random(engine, 4, cfg.span());
  adv.clone_neighbor(engine, 2);
  engine.set_fault_recorder(nullptr);
  // Every counted event left exactly one record — including the reconnect
  // add_edge events of churn_vertices.
  EXPECT_EQ(rec.take().size(), adv.events());
}

// ---------------------------------------------------------------------------
// Determinism across executor threads
// ---------------------------------------------------------------------------

/// A coloring repair's outcome and the colors it ended on.
struct ColoringRun {
  selfstab::StabilizationOutcome out;
  std::vector<graph::Color> colors;
};

/// resettle() of the coloring installed on `engine` from its current state.
ColoringRun resettle_coloring(runtime::Engine& engine, const SsConfig& cfg,
                              const runtime::RunOptions& opts) {
  ColoringRun run;
  run.out = selfstab::resettle(engine, opts, selfstab::coloring_spec(cfg), {});
  run.colors = selfstab::current_colors(engine);
  return run;
}

ColoringRun run_ss_with_channel(std::size_t threads,
                                std::uint64_t* chan_events = nullptr) {
  const auto g = graph::random_regular(150, 6, 31);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  ChannelFaultConfig ccfg;
  ccfg.seed = 77;
  ccfg.drop_per_million = 30'000;
  ccfg.corrupt_per_million = 20'000;
  ccfg.duplicate_per_million = 20'000;
  ccfg.delay_per_million = 20'000;
  ccfg.first_round = 1;
  ccfg.last_round = 30;
  WireFaults chan(ccfg, {}, 0);
  runtime::RunOptions opts;
  opts.channel = &chan;
  opts.max_rounds = 5000;
  if (threads > 1) opts.executor = exec::make_executor(threads);
  auto run = resettle_coloring(engine, cfg, opts);
  if (chan_events != nullptr) *chan_events = chan.events();
  return run;
}

TEST(ChannelDeterminism, TrajectoryIdenticalForOneTwoEightThreads) {
  std::uint64_t ev1 = 0;
  const auto base = run_ss_with_channel(1, &ev1);
  ASSERT_TRUE(base.out.recovered);
  EXPECT_GT(base.out.fault_events, 0u);
  EXPECT_EQ(base.out.fault_events, ev1);
  for (const std::size_t threads : {2, 8}) {
    std::uint64_t ev = 0;
    const auto rep = run_ss_with_channel(threads, &ev);
    EXPECT_EQ(rep.colors, base.colors) << "threads=" << threads;
    EXPECT_EQ(rep.out.rounds, base.out.rounds) << "threads=" << threads;
    EXPECT_EQ(rep.out.fault_events, base.out.fault_events) << "threads=" << threads;
    EXPECT_EQ(ev, ev1) << "threads=" << threads;
    EXPECT_EQ(rep.out.metrics.messages, base.out.metrics.messages);
    EXPECT_EQ(rep.out.metrics.total_bits, base.out.metrics.total_bits);
  }
}

// ---------------------------------------------------------------------------
// Record -> replay -> shrink
// ---------------------------------------------------------------------------

struct RecordedRun {
  ColoringRun run;
  FaultPlan plan;
};

RecordedRun record_fuzz_run() {
  const auto g = graph::random_gnp(100, 0.07, 13);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree() + 2);
  engine.install(selfstab::ss_coloring_factory(cfg));
  FaultPlanRecorder rec;
  engine.set_fault_recorder(&rec);
  ChannelFaultConfig ccfg;
  ccfg.seed = 5;
  ccfg.drop_per_million = 40'000;
  ccfg.corrupt_per_million = 30'000;
  ccfg.delay_per_million = 20'000;
  ccfg.first_round = 1;
  ccfg.last_round = 20;
  WireFaults chan(ccfg, {}, 0, &rec);
  runtime::PeriodicAdversary adv(
      3, {.period = 4, .last_round = 16, .corrupt = 3, .clones = 1,
          .edge_adds = 1, .edge_removes = 1, .dmax = g.max_degree() + 2});
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  opts.max_rounds = 5000;
  RecordedRun out;
  out.run = resettle_coloring(engine, cfg, opts);
  out.plan = rec.take();
  return out;
}

ColoringRun replay_run(const FaultPlan& plan, std::size_t threads) {
  const auto g = graph::random_gnp(100, 0.07, 13);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree() + 2);
  engine.install(selfstab::ss_coloring_factory(cfg));
  PlanAdversary adv(plan);
  WireFaults chan(plan.events);
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  opts.max_rounds = 5000;
  if (threads > 1) opts.executor = exec::make_executor(threads);
  return resettle_coloring(engine, cfg, opts);
}

TEST(RecordReplay, ReplayedPlanReproducesTheRunBitForBit) {
  const RecordedRun live = record_fuzz_run();
  ASSERT_TRUE(live.run.out.recovered);
  ASSERT_GT(live.plan.size(), 0u);
  EXPECT_EQ(live.plan.size(), live.run.out.fault_events);
  for (const std::size_t threads : {1, 2, 8}) {
    const auto rep = replay_run(live.plan, threads);
    EXPECT_EQ(rep.colors, live.run.colors) << "threads=" << threads;
    EXPECT_EQ(rep.out.rounds, live.run.out.rounds) << "threads=" << threads;
    EXPECT_EQ(rep.out.recovered, live.run.out.recovered);
    EXPECT_EQ(rep.out.fault_events, live.run.out.fault_events)
        << "threads=" << threads;
    EXPECT_EQ(rep.out.metrics.messages, live.run.out.metrics.messages);
    EXPECT_EQ(rep.out.metrics.total_bits, live.run.out.metrics.total_bits);
  }
}

TEST(RecordReplay, JsonlRoundTripsExactly) {
  const RecordedRun live = record_fuzz_run();
  std::istringstream in(live.plan.to_jsonl());
  const FaultPlan back = FaultPlan::parse(in);
  EXPECT_EQ(back.events, live.plan.events);
}

TEST(RecordReplay, PlanNumbersAreReadStrictly) {
  // std::stoull wrapped round -3 to 2^64 - 3 and a cast cut v = 2^32 + 1 to
  // 1; a scan that stopped at the first non-digit read 3.5 as 3.
  for (const char* line :
       {R"({"round":-3,"kind":"ram","u":0,"v":4,"word":0,"value":5})",
        R"({"round":3,"kind":"ram","u":0,"v":4294967297,"word":0,"value":5})",
        R"({"round":3,"kind":"add_edge","u":4294967296,"v":4,"word":0,"value":0})",
        R"({"round":3,"kind":"ram","u":0,"v":4,"word":4294967296,"value":5})",
        R"({"round":3.5,"kind":"ram","u":0,"v":4,"word":0,"value":5})",
        R"({"round":3,"kind":"ram","u":0,"v":1e3,"word":0,"value":5})",
        R"({"round":3,"kind":"ram","u":0,"v":4,"word":0,"value":18446744073709551616})"}) {
    std::istringstream in(line);
    EXPECT_THROW((void)FaultPlan::parse(in), std::runtime_error) << line;
  }
  std::istringstream max(
      R"({"round":18446744073709551615,"kind":"ram","u":4294967295,)"
      R"("v":4294967295,"word":4294967295,"value":18446744073709551615})");
  const FaultPlan plan = FaultPlan::parse(max);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events[0].round, ~std::uint64_t{0});
  EXPECT_EQ(plan.events[0].u, ~std::uint32_t{0});
  EXPECT_EQ(plan.events[0].v, ~std::uint32_t{0});
  EXPECT_EQ(plan.events[0].word, ~std::uint32_t{0});
  EXPECT_EQ(plan.events[0].value, ~std::uint64_t{0});
}

TEST(RecordReplay, ReplayRejectsVerticesOutsideTheGraph) {
  // A RAM event on vertex 99999999 reached Engine::corrupt_ram, which
  // indexes its programs unchecked: replaying it segfaulted.
  const auto replay = [](const std::string& jsonl) {
    std::istringstream in(jsonl);
    const FaultPlan plan = FaultPlan::parse(in);
    const auto g = graph::cycle(16);
    SsConfig cfg(g.n() + 4, 4, PaletteMode::ODelta);
    auto engine = make_engine(g, 4);
    engine.install(selfstab::ss_coloring_factory(cfg));
    PlanAdversary adv(plan);
    runtime::RunOptions opts;
    opts.adversary = &adv;
    opts.max_rounds = 200;
    return selfstab::run_stabilization(engine, opts, selfstab::coloring_spec(cfg));
  };
  for (const char* bad :
       {R"({"round":2,"kind":"ram","u":0,"v":99999999,"word":0,"value":5})",
        R"({"round":2,"kind":"ram","u":0,"v":16,"word":0,"value":5})",
        R"({"round":2,"kind":"add_edge","u":16,"v":3,"word":0,"value":0})",
        R"({"round":2,"kind":"remove_edge","u":3,"v":17,"word":0,"value":0})",
        R"({"round":2,"kind":"reset_vertex","u":0,"v":16,"word":0,"value":0})"}) {
    EXPECT_THROW((void)replay(bad), std::invalid_argument) << bad;
  }
  // Vertex 16 exists once an earlier AddVertex event has grown the graph.
  EXPECT_NO_THROW((void)replay(
      R"({"round":2,"kind":"add_vertex","u":0,"v":16,"word":0,"value":0})"
      "\n"
      R"({"round":2,"kind":"add_edge","u":16,"v":3,"word":0,"value":0})"
      "\n"
      R"({"round":3,"kind":"ram","u":0,"v":16,"word":0,"value":5})"));
}

TEST(RecordReplay, ShrinkerReducesAFailingPlanToAFewEvents) {
  const RecordedRun live = record_fuzz_run();
  ASSERT_GT(live.plan.size(), 10u);  // a real campaign-sized plan

  // "Failing" predicate: replaying the candidate plan breaks the coloring at
  // some round (the fault-free trajectory stays proper forever).
  const auto g = graph::random_gnp(100, 0.07, 13);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto reproduces = [&](const FaultPlan& candidate) {
    auto engine = make_engine(g, g.max_degree() + 2);
    engine.install(selfstab::ss_coloring_factory(cfg));
    // Settle fault-free first.
    auto spec = selfstab::coloring_spec(cfg);
    spec.recovery_budget = 4000;
    if (!selfstab::run_stabilization(engine, {}, spec).recovered) return false;
    PlanAdversary adv(candidate);
    WireFaults chan(candidate.events);
    engine.set_channel(&chan);
    const auto& check = spec.check;
    bool broke = false;
    const std::size_t horizon =
        static_cast<std::size_t>(adv.last_event_round()) + 4;
    for (std::size_t r = 0; r < horizon; ++r) {
      engine.step();
      adv.inject(engine, r + 1);
      if (check(engine)) {
        broke = true;
        break;
      }
    }
    engine.set_channel(nullptr);
    return broke;
  };

  // The recorded plan replays against an engine that ALSO ran the recorded
  // pre-fault trajectory; here the predicate replays onto a freshly settled
  // engine instead, so first re-anchor rounds: keep events as-is (the ss
  // algorithm is memoryless once stable, and the adversary acts by absolute
  // round — a corrupt lands whatever the round).  The predicate must hold
  // for the full plan before shrinking is meaningful.
  FaultPlan seed_plan = live.plan;
  ASSERT_TRUE(reproduces(seed_plan));

  faultlab::ShrinkStats stats;
  const FaultPlan small = faultlab::shrink_plan(seed_plan, reproduces, &stats);
  EXPECT_LE(small.size(), 10u);
  EXPECT_GT(small.size(), 0u);
  EXPECT_TRUE(reproduces(small));
  EXPECT_LT(stats.final_events, stats.initial_events);
}

// ---------------------------------------------------------------------------
// Truthful injection on the static entry points
// ---------------------------------------------------------------------------

TEST(EntryPointFaults, EdgeColoringCountsChannelAndAdversaryEvents) {
  const auto g = graph::random_regular(60, 4, 17);
  ChannelFaultConfig ccfg;
  ccfg.seed = 9;
  ccfg.corrupt_per_million = 5'000;
  WireFaults chan(ccfg, {}, 0);
  runtime::PeriodicAdversary adv(5, {.period = 6, .last_round = 18,
                                     .edge_adds = 1, .edge_removes = 1,
                                     .dmax = g.max_degree() + 1});
  edge::EdgeColoringOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  const auto rep = edge::color_edges_distributed(g, opts);
  EXPECT_EQ(rep.fault_events, adv.total_events() + chan.events());
  EXPECT_GT(rep.fault_events, 0u);
}

TEST(EntryPointFaults, ArbAgCountsChannelAndAdversaryEvents) {
  const auto g = graph::random_gnp(80, 0.1, 23);
  ChannelFaultConfig ccfg;
  ccfg.seed = 4;
  ccfg.drop_per_million = 10'000;
  WireFaults chan(ccfg, {}, 0);
  runtime::PeriodicAdversary adv(8, {.period = 2, .last_round = 6, .corrupt = 1});
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  const auto rep = arb::arbdefective_color(g, 2, 2 * g.n(), opts);
  EXPECT_EQ(rep.fault_events, adv.total_events() + chan.events());
  EXPECT_GT(rep.fault_events, 0u);
}

TEST(EntryPointFaults, EpsColoringCountsChannelEvents) {
  const auto g = graph::random_gnp(80, 0.1, 29);
  ChannelFaultConfig ccfg;
  ccfg.seed = 2;
  ccfg.duplicate_per_million = 20'000;
  WireFaults chan(ccfg, {}, 0);
  runtime::RunOptions opts;
  opts.channel = &chan;
  const auto rep = arb::eps_delta_coloring(g, 0.5, 0, opts);
  EXPECT_EQ(rep.fault_events, chan.events());
  EXPECT_GT(rep.fault_events, 0u);
}

// ---------------------------------------------------------------------------
// The stabilization runner under faults: recovery time, adjustment radius,
// watchdog
// ---------------------------------------------------------------------------

selfstab::StabilizationOutcome harness_coloring_run(std::size_t threads) {
  const auto g = graph::random_regular(120, 6, 41);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  if (threads > 1) engine.set_executor(exec::make_executor(threads));
  engine.install(selfstab::ss_coloring_factory(cfg));
  runtime::PeriodicAdversary adv(19, {.period = 3, .last_round = 6,
                                      .corrupt = 4, .clones = 2});
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.max_rounds = 5000;
  auto spec = selfstab::coloring_spec(cfg);
  spec.recovery_budget = 2000;
  return selfstab::run_stabilization(engine, opts, spec);
}

TEST(Harness, ColoringRecoveryAndAdjustmentRadiusAreDeterministic) {
  const auto base = harness_coloring_run(1);
  ASSERT_TRUE(base.recovered);
  // Golden values for seed 41 / seed 19 schedule, pinned so ANY change to the
  // trajectory (engine, channel, adversary, harness) is caught, not just
  // thread divergence.
  EXPECT_EQ(base.recovery_rounds, 2u);
  EXPECT_EQ(base.adjusted.size(), 7u);
  EXPECT_EQ(base.last_fault_round, 8u);
  EXPECT_EQ(base.first_legal_round, 10u);
  EXPECT_EQ(base.fault_events, 12u);
  EXPECT_GT(base.fault_events, 0u);
  EXPECT_GT(base.recovery_rounds, 0u);
  EXPECT_FALSE(base.adjusted.empty());
  // Locality: a handful of faulted vertices only drag a bounded neighborhood
  // with them, not the whole graph.
  EXPECT_LT(base.adjusted.size(), 120u / 2);
  for (const std::size_t threads : {2, 8}) {
    const auto rep = harness_coloring_run(threads);
    EXPECT_EQ(rep.recovered, base.recovered) << "threads=" << threads;
    EXPECT_EQ(rep.recovery_rounds, base.recovery_rounds)
        << "threads=" << threads;
    EXPECT_EQ(rep.first_legal_round, base.first_legal_round);
    EXPECT_EQ(rep.last_fault_round, base.last_fault_round);
    EXPECT_EQ(rep.adjusted, base.adjusted) << "threads=" << threads;
    EXPECT_EQ(rep.fault_events, base.fault_events);
  }
}

selfstab::StabilizationOutcome harness_mis_run(std::size_t threads) {
  const auto g = graph::random_gnp(100, 0.06, 43);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  if (threads > 1) engine.set_executor(exec::make_executor(threads));
  engine.install(selfstab::ss_mis_factory(cfg));
  runtime::PeriodicAdversary adv(23, {.period = 4, .last_round = 8,
                                      .corrupt = 3, .clones = 1});
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.max_rounds = 6000;
  auto spec = selfstab::mis_spec(cfg);
  spec.recovery_budget = 3000;
  return selfstab::run_stabilization(engine, opts, spec);
}

TEST(Harness, MisRecoveryIsDeterministicAcrossThreads) {
  const auto base = harness_mis_run(1);
  ASSERT_TRUE(base.recovered);
  EXPECT_EQ(base.recovery_rounds, 2u);   // golden, seeds 43/23
  EXPECT_EQ(base.adjusted.size(), 4u);
  EXPECT_EQ(base.fault_events, 8u);
  EXPECT_GT(base.recovery_rounds, 0u);
  for (const std::size_t threads : {2, 8}) {
    const auto rep = harness_mis_run(threads);
    EXPECT_EQ(rep.recovery_rounds, base.recovery_rounds)
        << "threads=" << threads;
    EXPECT_EQ(rep.adjusted, base.adjusted) << "threads=" << threads;
  }
}

selfstab::StabilizationOutcome harness_line_run(std::size_t threads) {
  const auto g = graph::random_regular(60, 4, 47);
  selfstab::SsLineConfig cfg(g.n(), g.max_degree(), selfstab::LineTask::EdgeColoring);
  runtime::EngineOptions eo;
  eo.delta_bound = g.max_degree();
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  if (threads > 1) engine.set_executor(exec::make_executor(threads));
  engine.install(selfstab::ss_line_factory(cfg));
  runtime::PeriodicAdversary adv(29, {.period = 5, .last_round = 10, .corrupt = 3});
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.max_rounds = 8000;
  auto spec = selfstab::line_spec(cfg);
  spec.recovery_budget = 4000;
  return selfstab::run_stabilization(engine, opts, spec);
}

TEST(Harness, LineEdgeColoringRecoveryIsDeterministicAcrossThreads) {
  const auto base = harness_line_run(1);
  ASSERT_TRUE(base.recovered);
  EXPECT_EQ(base.recovery_rounds, 6u);   // golden, seeds 47/29 (engine rounds)
  EXPECT_EQ(base.adjusted.size(), 2u);
  EXPECT_EQ(base.fault_events, 6u);
  for (const std::size_t threads : {2, 8}) {
    const auto rep = harness_line_run(threads);
    EXPECT_EQ(rep.recovery_rounds, base.recovery_rounds)
        << "threads=" << threads;
    EXPECT_EQ(rep.adjusted, base.adjusted) << "threads=" << threads;
  }
}

TEST(Harness, WatchdogReportsTheFirstInvariantViolation) {
  const auto g = graph::random_regular(80, 4, 53);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  auto spec = selfstab::coloring_spec(cfg);
  spec.recovery_budget = 2000;  // the fault-free settle's budget
  ASSERT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);
  runtime::PeriodicAdversary adv(31, {.period = 2, .last_round = 2,
                                      .corrupt = 20, .clones = 10});
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.max_rounds = 5000;
  spec.recovery_budget = 1;  // recovery takes longer than one round
  const auto out = selfstab::resettle(engine, opts, spec, spec.outputs(engine));
  EXPECT_FALSE(out.recovered);
  ASSERT_TRUE(out.violation);
  EXPECT_TRUE(out.violation.kind == selfstab::ViolationKind::MonochromaticEdge ||
              out.violation.kind == selfstab::ViolationKind::OutOfPalette);
  EXPECT_GT(out.violation.round, 0u);
  EXPECT_LT(out.violation.v, g.n());
}

TEST(Harness, CleanScheduleRecoversInZeroRoundsWithEmptyAdjustment) {
  const auto g = graph::random_regular(60, 4, 59);
  SsConfig cfg(g.n(), g.max_degree(), PaletteMode::ODelta);
  auto engine = make_engine(g, g.max_degree());
  engine.install(selfstab::ss_coloring_factory(cfg));
  runtime::RunOptions opts;
  opts.max_rounds = 4000;
  const auto out =
      selfstab::run_stabilization(engine, opts, selfstab::coloring_spec(cfg));
  ASSERT_TRUE(out.recovered);
  EXPECT_EQ(out.recovery_rounds, 0u);
  EXPECT_EQ(out.fault_events, 0u);
  EXPECT_TRUE(out.adjusted.empty());
}

}  // namespace
