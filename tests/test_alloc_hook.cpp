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

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "agc/coloring/linial.hpp"
#include "agc/coloring/palette.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/exec/executor.hpp"
#include "agc/faultlab/channel.hpp"
#include "agc/graph/generators.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/hooked_rounds.hpp"
#include "agc/runtime/iterative.hpp"

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

  // And the instrumentation actually observed the rounds.
  EXPECT_GT(profile.folded().total_ns(), 0u);
  EXPECT_EQ(sink.seen(), 11u);  // one RoundEnd per step
}

TEST(AllocHook, ChannelAdversaryStaysAllocationFree) {
  // The wire attacker mutates ports in place; drops and corruptions touch
  // existing words, duplicates land in the pre-reserved spill lanes
  // (RoundContext doubles the lane reservation when a channel hook is
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
  faultlab::ChannelAdversary chan(cfg);
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
  faultlab::ChannelAdversary chan(cfg);
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

TEST(AllocHook, SweepRoundsAreAllocationFree) {
  // run_locally_iterative's sweep (no fault hooks, BSP executor) with the
  // sink and phase timers on: once a stage is running, nothing between two
  // consecutive on_round callbacks allocates — not the shard passes, the
  // incremental properness check, the RoundEnd event nor the phase timers.
  // GreedyReduceRule steps without allocating and, from Linial's O(Delta^2)
  // palette, runs for many rounds.
  const auto g = graph::random_regular(512, 8, 5);
  const auto lin = coloring::linial_color(g, coloring::identity_coloring(g.n()),
                                          g.n(), g.max_degree());
  const Color k = graph::max_color(lin.colors) + 1;
  const Color target = g.max_degree() + 1;
  const coloring::GreedyReduceRule rule(target, k);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    obs::RingSink sink(64);
    IterativeOptions io;
    io.executor = exec::make_executor(threads);
    io.sink = &sink;
    io.collect_phase_times = true;
    std::array<std::uint64_t, 4096> at_round{};
    std::size_t seen = 0;
    io.on_round = [&](std::size_t round, std::span<const Color>) {
      if (round < at_round.size()) at_round[round] = g_allocs.load(std::memory_order_relaxed);
      seen = round;
    };
    const auto res = run_locally_iterative(g, lin.colors, rule, io);
    ASSERT_TRUE(res.converged);
    ASSERT_GT(seen, 6u) << "too few rounds to reach a steady state";
    ASSERT_LT(seen, at_round.size());
    for (std::size_t r = 3; r < seen; ++r) {  // rounds 1-2 warm up
      EXPECT_EQ(at_round[r + 1] - at_round[r], 0u)
          << "threads=" << threads << ": allocations in round " << r + 1;
    }
    EXPECT_GT(res.phases.total_ns(), 0u);
    EXPECT_GT(sink.seen(), seen);  // RunStart + one RoundEnd per round
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
