// The observability subsystem: phase timers and their deterministic fold,
// event sinks (ring wraparound, JSONL escaping), the telemetry registry, and
// the golden-run guarantee that turning observability on changes NOTHING
// about a run's algorithmic output — same colors, same Metrics — at any
// thread count.  Plus the RunOptions fault-adversary hook: deterministic
// under a fixed seed, quiescent after last_round.
#include <gtest/gtest.h>

#include <sstream>

#include "agc/coloring/pipeline.hpp"
#include "agc/exec/executor.hpp"
#include "agc/graph/checks.hpp"
#include "agc/graph/generators.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/obs/telemetry.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/iterative.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {

using namespace agc;

// ---------------------------------------------------------------------------
// Phase timers.
// ---------------------------------------------------------------------------

TEST(PhaseTimer, FoldIsDeterministicAndOrderIndependentForSums) {
  obs::PhaseProfile profile;
  profile.ensure_shards(4);
  for (std::size_t s = 0; s < 4; ++s) {
    profile.shard(s)->add(obs::Phase::Send, 100 * (s + 1));
    profile.shard(s)->add(obs::Phase::Receive, 10 * (s + 1));
  }
  profile.extra()->add(obs::Phase::Check, 7);

  const obs::PhaseStats folded = profile.folded();
  EXPECT_EQ(folded.phase_ns(obs::Phase::Send), 100u + 200u + 300u + 400u);
  EXPECT_EQ(folded.phase_calls(obs::Phase::Send), 4u);
  EXPECT_EQ(folded.phase_ns(obs::Phase::Receive), 10u + 20u + 30u + 40u);
  EXPECT_EQ(folded.phase_ns(obs::Phase::Check), 7u);
  EXPECT_EQ(folded.total_ns(), 1000u + 100u + 7u);

  // Folding twice gives the identical result (pure function of the shards).
  const obs::PhaseStats again = profile.folded();
  EXPECT_EQ(folded.ns, again.ns);
  EXPECT_EQ(folded.calls, again.calls);

  profile.reset();
  EXPECT_TRUE(profile.folded().empty());
}

TEST(PhaseTimer, NullStatsDisablesTheTimer) {
  obs::PhaseStats stats;
  { obs::ScopedPhaseTimer off(nullptr, obs::Phase::Send); }
  EXPECT_TRUE(stats.empty());
  { obs::ScopedPhaseTimer on(&stats, obs::Phase::Send); }
  EXPECT_EQ(stats.phase_calls(obs::Phase::Send), 1u);
}

TEST(PhaseTimer, EnsureShardsNeverShrinks) {
  obs::PhaseProfile profile;
  profile.ensure_shards(8);
  profile.shard(7)->add(obs::Phase::Deliver, 42);
  profile.ensure_shards(2);  // no-op
  EXPECT_EQ(profile.shard_count(), 8u);
  EXPECT_EQ(profile.folded().phase_ns(obs::Phase::Deliver), 42u);
}

// ---------------------------------------------------------------------------
// Event sinks.
// ---------------------------------------------------------------------------

TEST(EventSink, RingKeepsNewestEventsOldestFirst) {
  obs::RingSink ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::Event ev;
    ev.kind = obs::EventKind::RoundEnd;
    ev.round = i;
    ring.emit(ev);
  }
  EXPECT_EQ(ring.seen(), 10u);
  EXPECT_EQ(ring.capacity(), 4u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].round, 6u + i);
}

TEST(EventSink, JsonEscaping) {
  std::string out;
  obs::json_escape("plain", out);
  EXPECT_EQ(out, "plain");

  out.clear();
  obs::json_escape("a\"b\\c\nd\te\x01", out);
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001");

  out.clear();
  obs::json_escape("caf\xc3\xa9", out);  // UTF-8 passes through
  EXPECT_EQ(out, "caf\xc3\xa9");
}

TEST(EventSink, JsonlLinesAreWellFormed) {
  std::ostringstream os;
  obs::JsonlSink sink(os);

  obs::Event ev;
  ev.kind = obs::EventKind::RunStart;
  ev.label = "tag \"quoted\"";
  ev.value = 12;
  sink.emit(ev);

  ev = obs::Event{};
  ev.kind = obs::EventKind::RoundEnd;
  ev.round = 3;
  ev.ns = 99;
  sink.emit(ev);

  EXPECT_EQ(sink.lines(), 2u);
  EXPECT_EQ(os.str(),
            "{\"kind\":\"run_start\",\"round\":0,"
            "\"label\":\"tag \\\"quoted\\\"\",\"value\":12,\"ns\":0}\n"
            "{\"kind\":\"round_end\",\"round\":3,\"value\":0,\"ns\":99}\n");
}

// ---------------------------------------------------------------------------
// Telemetry registry.
// ---------------------------------------------------------------------------

TEST(Telemetry, CountersSetGetOverwrite) {
  obs::Telemetry t;
  t.set("messages", 100);
  t.set("rounds", 7);
  t.set("messages", 200);  // overwrite, not append
  EXPECT_EQ(t.get("messages"), 200u);
  EXPECT_EQ(t.get("rounds"), 7u);
  EXPECT_EQ(t.get("missing", 5), 5u);
  EXPECT_EQ(t.counters().size(), 2u);

  t.wall_ns = 2'000'000'000;  // 2 s
  EXPECT_DOUBLE_EQ(t.rounds_per_sec(), 3.5);

  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"messages\":200"), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
}

TEST(Telemetry, RunReportExportsUnifiedRegistry) {
  const auto g = graph::random_regular(200, 8, 3);
  coloring::PipelineOptions opts;
  opts.iter.collect_phase_times = true;
  const auto rep = coloring::color_delta_plus_one(g, opts);
  ASSERT_TRUE(rep.proper);

  const obs::Telemetry t = rep.telemetry();
  EXPECT_EQ(t.get("rounds"), rep.rounds);
  EXPECT_EQ(t.get("messages"), rep.metrics.messages);
  EXPECT_EQ(t.get("total_bits"), rep.metrics.total_bits);
  EXPECT_EQ(t.get("max_edge_bits"), rep.metrics.max_edge_bits);
  EXPECT_GT(t.phases.total_ns(), 0u);
  EXPECT_GT(t.rounds_per_sec(), 0.0);
}

// ---------------------------------------------------------------------------
// Golden runs: observability must not change algorithmic output.
// ---------------------------------------------------------------------------

TEST(GoldenObservability, TelemetryOnMatchesNullSinkAtEveryThreadCount) {
  const auto g = graph::random_gnp(600, 0.02, 11);

  coloring::PipelineOptions plain;  // no sink, no phase times
  const auto want = coloring::color_delta_plus_one(g, plain);
  ASSERT_TRUE(want.proper);

  for (const std::size_t threads : {1, 2, 8}) {
    obs::RingSink ring(4096);
    coloring::PipelineOptions observed;
    observed.iter.executor = exec::make_executor(threads);
    observed.iter.sink = &ring;
    observed.iter.collect_phase_times = true;
    const auto got = coloring::color_delta_plus_one(g, observed);

    EXPECT_EQ(got.colors, want.colors) << "threads=" << threads;
    EXPECT_EQ(got.rounds, want.rounds) << "threads=" << threads;
    EXPECT_EQ(got.palette, want.palette) << "threads=" << threads;
    EXPECT_EQ(got.metrics.messages, want.metrics.messages);
    EXPECT_EQ(got.metrics.total_bits, want.metrics.total_bits);
    EXPECT_EQ(got.metrics.max_edge_bits, want.metrics.max_edge_bits);
    EXPECT_GT(ring.seen(), 0u);
    EXPECT_GT(got.phases.total_ns(), 0u);
  }
}

// ---------------------------------------------------------------------------
// RunReport composition.
// ---------------------------------------------------------------------------

TEST(RunReport, AbsorbAddsCountersAndAndsConvergence) {
  runtime::RunReport total;
  total.converged = true;

  runtime::RunReport a;
  a.rounds = 3;
  a.converged = true;
  a.metrics.messages = 10;
  a.metrics.max_edge_bits = 8;
  a.wall_ns = 100;
  a.fault_events = 1;

  runtime::RunReport b;
  b.rounds = 4;
  b.converged = false;
  b.metrics.messages = 5;
  b.metrics.max_edge_bits = 6;
  b.wall_ns = 50;

  total.absorb(a);
  EXPECT_TRUE(total.converged);
  total.absorb(b);
  EXPECT_FALSE(total.converged);
  EXPECT_EQ(total.rounds, 7u);
  EXPECT_EQ(total.metrics.messages, 15u);
  EXPECT_EQ(total.metrics.max_edge_bits, 8u);  // max, not sum
  EXPECT_EQ(total.wall_ns, 150u);
  EXPECT_EQ(total.fault_events, 1u);
}

// ---------------------------------------------------------------------------
// Fault adversary through RunOptions.
// ---------------------------------------------------------------------------

TEST(FaultAdversary, PeriodicIsDeterministicUnderAFixedSeed) {
  const auto g = graph::random_regular(300, 8, 21);
  const std::size_t delta = g.max_degree();
  selfstab::SsConfig cfg(g.n(), delta, selfstab::PaletteMode::ExactDeltaPlusOne);

  auto run_once = [&] {
    runtime::EngineOptions eo;
    eo.delta_bound = delta;
    runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
    engine.install(selfstab::ss_coloring_factory(cfg));

    runtime::PeriodicAdversary::Schedule sched;
    sched.period = 5;
    sched.last_round = 40;
    sched.corrupt = 4;
    sched.value_range = cfg.span();
    sched.clones = 2;
    runtime::PeriodicAdversary adv(123, sched);

    runtime::RunOptions opts;
    opts.max_rounds = 100000;
    opts.adversary = &adv;
    const auto rep = selfstab::resettle(engine, opts, selfstab::coloring_spec(cfg), {});
    EXPECT_TRUE(rep.recovered);
    EXPECT_GT(rep.fault_events, 0u);
    return std::pair{selfstab::current_colors(engine), rep.fault_events};
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(FaultAdversary, QuiescesAfterLastRound) {
  const auto g = graph::cycle(64);
  runtime::EngineOptions eo;
  eo.delta_bound = 2;
  selfstab::SsConfig cfg(g.n(), 2, selfstab::PaletteMode::ExactDeltaPlusOne);
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_coloring_factory(cfg));

  runtime::PeriodicAdversary::Schedule sched;
  sched.period = 1;  // every round ...
  sched.last_round = 10;  // ... but only until round 10
  sched.corrupt = 1;
  sched.value_range = cfg.span();
  runtime::PeriodicAdversary adv(7, sched);
  const std::size_t events_before = adv.total_events();

  runtime::RunOptions opts;
  opts.max_rounds = 100000;
  opts.adversary = &adv;
  const auto rep = selfstab::resettle(engine, opts, selfstab::coloring_spec(cfg), {});
  EXPECT_TRUE(rep.recovered);
  // Exactly the scheduled injections fired, then the run could stabilize.
  EXPECT_EQ(adv.total_events() - events_before, rep.fault_events);
  EXPECT_GE(rep.rounds, 10u);
}

TEST(FaultAdversary, IterativeRunnerAccountsAndReportsInjectedFaults) {
  // The pipeline algorithms are NOT self-stabilizing (that is what the
  // selfstab runners are for), so an injected fault may legitimately leave
  // the final coloring improper.  The contract under RunOptions::adversary
  // is truthful accounting: fault_events counts the injections, the mirror
  // is resynced after each one, and `proper` reports what actually holds.
  const auto g = graph::random_regular(200, 6, 9);

  struct Corrupt final : runtime::FaultAdversary {
    runtime::Adversary tools{42};
    std::size_t inject(runtime::Engine& engine, std::size_t round) override {
      if (round != 2) return 0;
      const std::size_t before = tools.events();
      // clone_neighbor keeps values inside the stage's declared message
      // width (arbitrary corruption could exceed it and be rejected by the
      // transport) while still forcing monochromatic edges.
      tools.clone_neighbor(engine, 8);
      return tools.events() - before;
    }
  } adversary;

  coloring::PipelineOptions opts;
  opts.iter.adversary = &adversary;
  const auto rep = coloring::color_delta_plus_one(g, opts);
  EXPECT_GT(rep.fault_events, 0u);
  EXPECT_EQ(rep.proper, graph::is_proper_coloring(g, rep.colors));
  EXPECT_EQ(rep.colors.size(), g.n());
}

// ---------------------------------------------------------------------------
// Structured events from a full pipeline run.
// ---------------------------------------------------------------------------

TEST(Events, PipelineEmitsBalancedStageBrackets) {
  const auto g = graph::random_regular(200, 8, 5);
  obs::RingSink ring(8192);
  coloring::PipelineOptions opts;
  opts.iter.sink = &ring;
  const auto rep = coloring::color_delta_plus_one(g, opts);
  ASSERT_TRUE(rep.proper);

  std::size_t starts = 0, ends = 0, round_ends = 0;
  for (const auto& ev : ring.snapshot()) {
    if (ev.kind == obs::EventKind::StageStart) ++starts;
    if (ev.kind == obs::EventKind::StageEnd) ++ends;
    if (ev.kind == obs::EventKind::RoundEnd) ++round_ends;
  }
  EXPECT_EQ(starts, 3u);  // linial, ag, reduce
  EXPECT_EQ(ends, 3u);
  EXPECT_EQ(round_ends, rep.rounds);
}

}  // namespace
