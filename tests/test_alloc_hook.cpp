// Zero-steady-state-allocation guarantee of the arena-backed message path
// (the tentpole property of the CSR mailbox refactor): once the engine,
// arena, spill lanes, scratch and ledger are warm, a round of
// send -> validate -> deliver -> receive performs NO heap allocation for the
// bounded models, sequential or sharded.
//
// The hook is a global operator new/delete override counting every
// allocation in the process, so this test lives in its own binary: the
// count is only examined around engine.step() calls, where the engine (and
// a non-allocating program) are the only actors.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "../src/coloring/fyz_stages.hpp"
#include "agc/coloring/ag.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/luby.hpp"
#include "agc/coloring/palette.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/coloring/registry.hpp"
#include "agc/coloring/symmetry.hpp"
#include "agc/exec/executor.hpp"
#include "agc/faultlab/zoo.hpp"
#include "agc/graph/generators.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/hooked_rounds.hpp"
#include "agc/runtime/iterative.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/ss_mis.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace agc;
using namespace agc::runtime;

/// Broadcasts one bit (legal in every model, including BIT) and folds the
/// received multiset — without allocating itself.  Its accumulator is its
/// RAM, so a RAM adversary can corrupt it (only the low bit goes out).
class ParityProgram final : public VertexProgram {
 public:
  void on_send(const VertexEnv&, OutboxRef& out) override {
    out.broadcast({acc_ & 1, 1});
  }
  void on_receive(const VertexEnv&, const InboxRef& in) override {
    std::uint64_t s = 0;
    for (const std::uint64_t v : in.multiset()) s += v;
    acc_ += s + 1;
  }
  std::span<std::uint64_t> ram() override { return {&acc_, 1}; }

 private:
  std::uint64_t acc_ = 1;
};

void expect_steady_state_alloc_free(Model model, std::size_t threads) {
  const auto g = graph::random_regular(256, 8, 5);
  Engine engine(g, Transport(model));
  engine.set_executor(exec::make_executor(threads));
  engine.install(
      [](const VertexEnv&) { return std::make_unique<ParityProgram>(); });
  for (int i = 0; i < 3; ++i) engine.step();  // warm arena, scratch, ledger

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) engine.step();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << to_string(model) << " threads=" << threads << ": "
      << (after - before) << " allocations in 8 steady-state rounds";
}

TEST(AllocHook, HookIsLive) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  // Direct operator calls: a `delete new int` pair may legally be elided.
  ::operator delete(::operator new(16));
  EXPECT_GT(g_allocs.load(std::memory_order_relaxed), before);
}

TEST(AllocHook, RoundLoopIsAllocationFreeForBoundedModels) {
  for (const Model model : {Model::SET_LOCAL, Model::CONGEST, Model::BIT}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      expect_steady_state_alloc_free(model, threads);
    }
  }
}

TEST(AllocHook, ObservabilityOnStaysAllocationFree) {
  // Phase timers AND a ring sink attached: the profile's shard vectors grow
  // during warm-up, the ring is preallocated, and Event records are
  // trivially-copyable — so the steady-state round loop stays at zero
  // allocations even with full observability enabled.
  const auto g = graph::random_regular(256, 8, 5);
  Engine engine(g, Transport(Model::SET_LOCAL));
  engine.set_executor(exec::make_executor(2));
  obs::PhaseProfile profile;
  obs::RingSink sink(64);
  engine.set_profile(&profile);
  engine.set_sink(&sink);
  engine.install(
      [](const VertexEnv&) { return std::make_unique<ParityProgram>(); });
  for (int i = 0; i < 3; ++i) engine.step();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) engine.step();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);

  // And the instrumentation actually observed the rounds: each of the two
  // shards times each pass, and each of the three passes books its barrier.
  EXPECT_GT(profile.folded().total_ns(), 0u);
  EXPECT_EQ(profile.folded().phase_calls(obs::Phase::Send), 2u * 11);
  EXPECT_EQ(profile.folded().phase_calls(obs::Phase::Barrier), 3u * 11);
  EXPECT_EQ(sink.seen(), 11u);  // one RoundEnd per step
}

TEST(AllocHook, ChannelAdversaryStaysAllocationFree) {
  // The wire attacker mutates ports in place; drops and corruptions touch
  // existing words, duplicates land in the pre-reserved spill lanes (the
  // engine's send pass doubles the lane reservation when a channel hook is
  // attached), and the delay stash is bound once per topology.  With all four
  // fault kinds firing at high rates AND full observability attached, the
  // steady-state round loop still performs zero allocations — as long as no
  // plan recorder is installed, recording being the only allocating path.
  const auto g = graph::random_regular(256, 8, 5);
  Engine engine(g, Transport(Model::SET_LOCAL));
  engine.set_executor(exec::make_executor(2));
  obs::PhaseProfile profile;
  obs::RingSink sink(64);
  engine.set_profile(&profile);
  engine.set_sink(&sink);
  engine.install(
      [](const VertexEnv&) { return std::make_unique<ParityProgram>(); });
  faultlab::ChannelFaultConfig cfg;
  cfg.seed = 3;
  cfg.drop_per_million = 100'000;
  cfg.corrupt_per_million = 100'000;
  cfg.duplicate_per_million = 100'000;
  cfg.delay_per_million = 100'000;
  faultlab::WireFaults chan(cfg, {}, 0);
  engine.set_channel(&chan);
  for (int i = 0; i < 4; ++i) engine.step();  // warm arena, lanes, stash

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) engine.step();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_GT(chan.events(), 0u);  // the adversary really was firing
}

TEST(AllocHook, HookedRoundsStayAllocationFree) {
  // The hooked round every fault-injecting runner drives: a wire attacker at
  // 10% per kind inside the round, a RAM-only PeriodicAdversary firing after
  // every round, a ring sink and phase timers (the `fault` timer included).
  // Fault events are fixed-size records and the adversary corrupts RAM in
  // place, so once warm HookedRounds adds no allocation to the round loop.
  const auto g = graph::random_regular(256, 8, 5);
  Engine engine(g, Transport(Model::SET_LOCAL));
  engine.set_executor(exec::make_executor(2));
  engine.install(
      [](const VertexEnv&) { return std::make_unique<ParityProgram>(); });
  faultlab::ChannelFaultConfig cfg;
  cfg.seed = 3;
  cfg.drop_per_million = 100'000;
  cfg.corrupt_per_million = 100'000;
  cfg.duplicate_per_million = 100'000;
  cfg.delay_per_million = 100'000;
  faultlab::WireFaults chan(cfg, {}, 0);
  PeriodicAdversary adv(7, {.period = 1, .corrupt = 4});
  obs::RingSink sink(64);
  RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  opts.sink = &sink;
  opts.collect_phase_times = true;
  HookedRounds rounds(engine, opts);
  for (int i = 0; i < 4; ++i) rounds.step();  // warm arena, lanes, stash

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) rounds.step();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);

  // Both adversaries really fired, and HookedRounds booked them.
  RunReport rep;
  rounds.finish(rep);
  EXPECT_EQ(adv.total_events(), 12u * 4);
  EXPECT_EQ(rep.fault_events, adv.total_events() + chan.events());
  EXPECT_EQ(rep.phases.phase_calls(obs::Phase::Fault), 12u);
  EXPECT_GT(sink.seen(), 12u);  // RoundEnd plus Fault events
}

/// Keeps the tag of the latest RunStart (the running stage) without
/// allocating: stage tags are static strings.
class StageSink final : public obs::EventSink {
 public:
  void emit(const obs::Event& ev) override {
    if (ev.kind == obs::EventKind::RunStart) stage = ev.label;
    ++seen;
  }
  const char* stage = nullptr;
  std::uint64_t seen = 0;
};

TEST(AllocHook, SweepRoundsAreAllocationFree) {
  // Every rule the registry pipelines run on run_locally_iterative's sweep
  // (no fault hooks, BSP executor), with the sink and phase timers on.
  //   * Stages with rounds to spare: once a stage is running, nothing
  //     between two consecutive on_round callbacks allocates — not the
  //     shard passes, the steps, the incremental properness check, the
  //     RoundEnd event nor the phase timers.
  //   * Stages too short for a steady state (Linial, AG, FYZ's partition
  //     and arb stages): each step is checked on its own, on the stage's
  //     real initial neighborhoods in CSR order, as the sweep presents them.
  // A padded ID space gives Linial stages to run.
  const auto g = graph::random_regular(1024, 16, 5);
  const std::size_t delta = g.max_degree();
  const std::uint64_t id_factor = 1024;
  const std::uint64_t id_space = g.n() * id_factor;
  const std::vector<std::string> per_round = {"reduce", "kw", "mixed", "fyz-list"};
  const std::vector<std::string> per_call = {"linial", "ag", "fyz-partition", "fyz-arb"};
  std::map<std::string, std::vector<Color>> initial;  // stage -> round-0 colors
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const char* algo : {"gps", "kw", "ag", "exact", "fyz"}) {
      struct Sample {
        const char* stage;
        std::size_t round;
        std::uint64_t allocs;
      };
      std::array<Sample, 4096> samples{};
      std::size_t taken = 0;
      StageSink sink;
      coloring::PipelineOptions po;
      po.run().executor = exec::make_executor(threads);
      po.run().sink = &sink;
      po.run().collect_phase_times = true;
      po.id_space_factor = id_factor;
      po.iter.on_round = [&](std::size_t round, std::span<const Color> colors) {
        const std::uint64_t now = g_allocs.load(std::memory_order_relaxed);
        if (taken < samples.size()) samples[taken++] = {sink.stage, round, now};
        if (round == 0) initial[sink.stage].assign(colors.begin(), colors.end());
      };
      const auto rep = coloring::find_algo(algo)->run(g, po);
      ASSERT_TRUE(rep.proper) << algo;
      ASSERT_LT(taken, samples.size()) << algo;
      EXPECT_GT(rep.phases.total_ns(), 0u) << algo;
      EXPECT_GT(sink.seen, taken) << algo;  // RunStart + one RoundEnd per round

      std::map<std::string, std::size_t> last_round;
      for (std::size_t i = 0; i + 1 < taken; ++i) {
        const Sample& a = samples[i];
        const Sample& b = samples[i + 1];
        if (a.stage != b.stage || b.round != a.round + 1) continue;  // next stage
        last_round[a.stage] = b.round;
        if (a.round < 3) continue;  // rounds 1-3 warm up
        EXPECT_EQ(b.allocs - a.allocs, 0u)
            << algo << " stage " << a.stage << " threads=" << threads
            << ": allocations in round " << b.round;
      }
      for (const auto& [stage, rounds] : last_round) {
        if (std::find(per_round.begin(), per_round.end(), stage) != per_round.end()) {
          EXPECT_GT(rounds, 5u) << algo << " stage " << stage
                                << ": too few rounds to reach a steady state";
        }
      }
    }
  }
  for (const std::string& stage : per_round) EXPECT_EQ(initial.count(stage), 1u) << stage;

  // The short stages, step by step, with the rules their entry points build.
  const coloring::LinialRule linial(coloring::LinialSchedule(id_space, delta));
  const coloring::detail::FyzStages fyz(id_space, delta);
  ASSERT_FALSE(fyz.psched.stages.empty());
  ASSERT_EQ(initial.count("ag"), 1u);
  const coloring::AgRule ag(
      coloring::ag_modulus(delta, graph::max_color(initial["ag"]) + 1));
  const std::map<std::string, const runtime::IterativeRule*> rules = {
      {"linial", &linial}, {"ag", &ag}, {"fyz-partition", &fyz.partition},
      {"fyz-arb", &fyz.arb}};
  for (const std::string& stage : per_call) {
    ASSERT_EQ(initial.count(stage), 1u) << stage;
    const std::vector<Color>& colors = initial[stage];
    const runtime::IterativeRule& rule = *rules.at(stage);
    std::vector<Color> nbrs;
    nbrs.reserve(delta);
    std::size_t stepped = 0;
    for (graph::Vertex v = 0; v < g.n(); ++v) {
      if (rule.is_final(colors[v])) continue;
      nbrs.clear();
      for (const graph::Vertex u : g.neighbors(v)) nbrs.push_back(colors[u]);
      const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
      const Color next = rule.step({v, 0}, colors[v], nbrs);
      EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u)
          << stage << " step of vertex " << v;
      EXPECT_NE(next, colors[v]) << stage;  // the stage's rules move every non-final
      ++stepped;
    }
    EXPECT_GT(stepped, 0u) << stage;
  }
}

TEST(AllocHook, LubyAndMisWaveRoundsAreAllocationFree) {
  // Luby and the MIS wave are rules on the same sweep: with the sink and
  // phase timers on, nothing between two consecutive on_round callbacks
  // allocates once the run is warm.  The wave starts from the identity
  // coloring, whose long decreasing chains give it enough rounds.
  const auto g = graph::random_regular(1024, 16, 5);
  const std::vector<Color> ids = coloring::identity_coloring(g.n());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const char* what : {"luby", "mis-wave"}) {
      obs::RingSink sink(64);
      coloring::PipelineOptions po;
      po.run().executor = exec::make_executor(threads);
      po.run().sink = &sink;
      po.run().collect_phase_times = true;
      std::array<std::uint64_t, 256> at_round{};
      std::size_t seen = 0;
      po.iter.on_round = [&](std::size_t round, std::span<const Color>) {
        if (round < at_round.size()) at_round[round] = g_allocs.load(std::memory_order_relaxed);
        seen = round;
      };
      RunReport rep;
      if (std::string(what) == "luby") {
        const auto luby = coloring::color_luby(g, po);
        ASSERT_TRUE(luby.proper);
        rep = luby;
      } else {
        const auto mis = coloring::mis_from_coloring(g, ids, po.iter);
        ASSERT_TRUE(mis.valid);
        rep = mis;
      }
      ASSERT_GT(seen, 4u) << what << ": too few rounds to reach a steady state";
      ASSERT_LT(seen, at_round.size());
      for (std::size_t r = 3; r < seen; ++r) {  // rounds 1-2 warm up
        EXPECT_EQ(at_round[r + 1] - at_round[r], 0u)
            << what << " threads=" << threads << ": allocations in round " << r + 1;
      }
      EXPECT_GT(rep.phases.total_ns(), 0u);
      EXPECT_GT(sink.seen(), seen);  // RunStart + one RoundEnd per round
    }
  }
}

TEST(AllocHook, LinialStepsAreAllocationFree) {
  // The one Mod-Linial step rebuilds each neighbor's digit polynomial where
  // it evaluates it: no per-step vector, no per-neighbor polynomial on the
  // heap.  Checked for LinialRule over a padded ID space (several stages)
  // and for the Mod-Linial branch of the self-stabilizing step (j >= 2).
  const std::size_t delta = 8;
  const std::uint64_t ids = std::uint64_t{256} << 20;
  const coloring::LinialRule rule(coloring::LinialSchedule(ids, delta));
  const selfstab::SsConfig cfg(ids, delta, selfstab::PaletteMode::ODelta);
  struct Case {
    bool selfstab;
    Color own;
    std::vector<Color> nbrs;  // sorted, delta of them, mostly same-interval
  };
  std::vector<Case> cases;
  graph::Rng rng(3);
  for (const bool ss : {false, true}) {
    const auto& sched = ss ? cfg.schedule() : rule.schedule();
    ASSERT_GE(sched.stages(), 2u);
    for (std::size_t j = ss ? 2 : 1; j <= sched.stages(); ++j) {
      for (int trial = 0; trial < 20; ++trial) {
        Case c{ss, sched.offset(j) + rng.below(sched.interval_size(j)), {}};
        while (c.nbrs.size() < delta) {
          const Color nc = rng.below(4) == 0
                               ? rng.below(sched.total_span())
                               : sched.offset(j) + rng.below(sched.interval_size(j));
          if (nc != c.own) c.nbrs.push_back(nc);
        }
        std::sort(c.nbrs.begin(), c.nbrs.end());
        cases.push_back(std::move(c));
      }
    }
  }
  for (Case& c : cases) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const Color next = c.selfstab ? cfg.step(7, c.own, c.nbrs) : rule.step({}, c.own, c.nbrs);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u)
        << (c.selfstab ? "SsConfig::step" : "LinialRule::step") << " own=" << c.own;
    EXPECT_NE(next, c.own);
  }
}

TEST(AllocHook, SelfStabilizingStepIsAllocationFreeInEveryInterval) {
  // SsConfig::step builds no neighbor subset and no forbidden set: Check-Error
  // scans the buffer, I_0 compacts its I_0 neighbors in place, Excl-Linial
  // asks its I_0 neighbors for S' as it tries each point.  Every interval,
  // both palette modes.
  const std::uint64_t ids = std::uint64_t{256} << 20;
  for (const auto mode : {selfstab::PaletteMode::ODelta,
                          selfstab::PaletteMode::ExactDeltaPlusOne}) {
    const selfstab::SsConfig cfg(ids, 8, mode);
    const auto& sched = cfg.schedule();
    ASSERT_GE(sched.stages(), 3u);
    const bool exact = mode == selfstab::PaletteMode::ExactDeltaPlusOne;
    const Color q = sched.stage(sched.stages() - 1).q;  // ODelta's I_0 field
    const Color N = cfg.final_palette();               // exact: Delta + 1
    const Color i1 = sched.offset(1);
    const Color i2 = sched.offset(2);
    // A working I_0 state — AG's <2,5>, AG(N)'s <1,3> — and I_0 neighbors
    // with and without a conflict with it: finals, working states and, in
    // exact mode, the 3AG state <0,2,6> (p = 17).
    const Color working = exact ? N + 3 : 2 * q + 5;
    const std::vector<Color> clash = {exact ? Color{3} : Color{5}, exact ? N + 6 : q + 6};
    const std::vector<Color> calm = {exact ? Color{5} : Color{3}, exact ? 2 * N + 40 : 3 * q + 1};
    struct Case {
      const char* what;
      Color own;
      std::vector<Color> nbrs;
      std::size_t into;  ///< interval of the result
    };
    std::vector<Case> cases = {
        {"reset", cfg.reset_color(7), {cfg.reset_color(8), cfg.reset_color(9), i1 + 3},
         sched.stages() - 1},
        {"invalid word", cfg.span() + 5, {i1 + 1}, sched.stages()},
        {"conflict", i1 + 5, {i1 + 5, i2 + 1}, sched.stages()},
        {"I_j, j >= 2", i2 + 11, {i2 + 12, i2 + 13, i1 + 1, 4}, 1},
        {"I_1 with I_0 neighbors", i1 + 7,
         {i1 + 8, clash[0], clash[1], calm[1], i2 + 4}, 0},
        {"I_0 with a conflict", working, {clash[0], i1 + 2, clash[1]}, 0},
        {"I_0 without one", working, {calm[0], i1 + 2, calm[1]}, 0},
    };
    std::vector<Color> next;
    for (Case& c : cases) {
      const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
      const Color out = cfg.step(7, c.own, c.nbrs);
      EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u)
          << (exact ? "exact " : "odelta ") << c.what;
      EXPECT_EQ(sched.interval_of(out), c.into) << (exact ? "exact " : "odelta ") << c.what;
      next.push_back(out);
    }
    // The two I_0 cases take different branches: a shift, a finalization.
    EXPECT_FALSE(cfg.is_final(next[5]));
    EXPECT_TRUE(cfg.is_final(next[6]));
  }
}

TEST(AllocHook, FlatSelfStabilizingRoundsAreAllocationFree) {
  // selfstab::flat_resettle from reset colors in a padded ID space (several
  // Linial rounds, then AG, then an all-I_0 confirm window), with the sink
  // and phase timers on: nothing between two consecutive RoundEnd events
  // allocates once the run is warm.
  class AllocAtRound final : public obs::EventSink {
   public:
    void emit(const obs::Event& ev) override {
      if (ev.kind == obs::EventKind::RoundEnd && taken < at.size()) {
        at[taken++] = g_allocs.load(std::memory_order_relaxed);
      }
    }
    std::array<std::uint64_t, 256> at{};
    std::size_t taken = 0;
  };
  const auto g = graph::random_regular(1024, 16, 5);
  for (const auto mode : {selfstab::PaletteMode::ODelta,
                          selfstab::PaletteMode::ExactDeltaPlusOne}) {
    const selfstab::SsConfig cfg(g.n() << 10, g.max_degree(), mode);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      std::vector<std::uint64_t> ram(g.n());
      for (graph::Vertex v = 0; v < g.n(); ++v) ram[v] = cfg.reset_color(v);
      AllocAtRound sink;
      RunOptions opts;
      opts.executor = exec::make_executor(threads);
      opts.sink = &sink;
      opts.collect_phase_times = true;
      const auto out = selfstab::flat_resettle(
          g, ram, cfg, opts, {.confirm_rounds = 6}, 0, {});
      ASSERT_TRUE(out.recovered);
      ASSERT_GT(sink.taken, 8u) << "too few rounds to reach a steady state";
      ASSERT_LT(sink.taken, sink.at.size());
      for (std::size_t r = 3; r + 1 < sink.taken; ++r) {  // rounds 1-3 warm up
        EXPECT_EQ(sink.at[r + 1] - sink.at[r], 0u)
            << "threads=" << threads << ": allocations in round " << r + 2;
      }
      EXPECT_GT(out.phases.phase_calls(obs::Phase::Receive), 0u);
      EXPECT_GT(out.phases.phase_calls(obs::Phase::Check), 0u);
    }
  }
}

TEST(AllocHook, SelfStabilizingMisAndLineRoundsAreAllocationFree) {
  // SsMisProgram and SsLineProgram keep the neighborhoods they step on in
  // program-owned scratch, and an unchanged neighbor list leaves the line
  // program's replica table alone: once warm, an engine round of either
  // allocates nothing (the line program's phase-B rounds included).
  const auto g = graph::random_regular(256, 8, 5);
  const std::size_t delta = g.max_degree();
  const selfstab::SsConfig mis_cfg(g.n(), delta, selfstab::PaletteMode::ODelta);
  const selfstab::SsLineConfig line_cfg(g.n(), delta,
                                        selfstab::LineTask::MaximalMatching);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const char* what : {"ss-mis", "ss-line"}) {
      EngineOptions eo;
      eo.delta_bound = delta;
      Engine engine(g, Transport(Model::LOCAL), eo);
      engine.set_executor(exec::make_executor(threads));
      if (std::string(what) == "ss-mis") {
        engine.install(selfstab::ss_mis_factory(mis_cfg));
      } else {
        engine.install(selfstab::ss_line_factory(line_cfg));
      }
      for (int i = 0; i < 6; ++i) engine.step();  // warm arena, lanes, scratch

      const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
      for (int i = 0; i < 16; ++i) engine.step();
      EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u)
          << what << " threads=" << threads;
    }
  }
}

TEST(AllocHook, LocalModelSpillPathReachesSteadyState) {
  // LOCAL with multi-word messages: lanes grow for a few rounds, then the
  // geometric capacities saturate and the loop is allocation-free too.
  class MultiWordProgram final : public VertexProgram {
   public:
    void on_send(const VertexEnv& env, OutboxRef& out) override {
      for (std::size_t p = 0; p < env.degree; ++p) {
        for (int k = 0; k < 3; ++k) out.send(p, {acc_ & 0xff, 8});
      }
    }
    void on_receive(const VertexEnv&, const InboxRef& in) override {
      for (std::size_t p = 0; p < in.ports(); ++p) {
        for (const Word w : in.from_port(p)) acc_ += w.value;
      }
      ++acc_;
    }

   private:
    std::uint64_t acc_ = 1;
  };

  const auto g = graph::random_regular(128, 6, 9);
  Engine engine(g, Transport(Model::LOCAL));
  engine.install(
      [](const VertexEnv&) { return std::make_unique<MultiWordProgram>(); });
  for (int i = 0; i < 3; ++i) engine.step();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) engine.step();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
