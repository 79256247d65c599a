// M1 — google-benchmark microbenchmarks for the substrate hot paths: field
// arithmetic, Linial polynomial evaluation, AG and Linial rule steps,
// locally-iterative rounds on the sweep, and the raw engine message path
// (send/validate/deliver/receive).  These bound the simulator's throughput,
// not the paper's claims.
//
// Flags: everything google-benchmark accepts, plus the repo-wide
// `--json FILE` (BENCH_micro.json rows via bench_gbench.hpp) and
// `--threads N` / AGC_THREADS (picked up by the *Threaded benchmarks).

#include <benchmark/benchmark.h>

#include "agc/coloring/ag.hpp"
#include "agc/coloring/fyz.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/luby.hpp"
#include "agc/graph/generators.hpp"
#include "agc/math/polynomial.hpp"
#include "agc/math/primes.hpp"
#include "agc/exec/executor.hpp"
#include "agc/faultlab/channel.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/iterative.hpp"
#include "bench_gbench.hpp"

using namespace agc;

namespace {

void BM_IsPrime(benchmark::State& state) {
  std::uint64_t n = 1'000'000'007ULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::is_prime(n));
    n += 2;
  }
}
BENCHMARK(BM_IsPrime);

void BM_NextPrime(benchmark::State& state) {
  std::uint64_t n = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::next_prime(n));
    n += 1009;
    if (n > 1'000'000) n = 1000;
  }
}
BENCHMARK(BM_NextPrime);

void BM_PolynomialEval(benchmark::State& state) {
  const math::GF field(1009);
  const auto poly = math::Polynomial::from_digits(field, 123456789, 6);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.eval(x));
    x = (x + 1) % 1009;
  }
}
BENCHMARK(BM_PolynomialEval);

void BM_AgStep(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  coloring::AgRule rule(coloring::ag_modulus(delta, 4 * delta * delta));
  graph::Rng rng(7);
  std::vector<coloring::Color> nbrs(delta);
  const std::uint64_t q = rule.q();
  for (auto& c : nbrs) c = rng.below(q * q);
  std::sort(nbrs.begin(), nbrs.end());
  coloring::Color own = q * q - 1;
  for (auto _ : state) {
    own = rule.step({}, own, nbrs);
    benchmark::DoNotOptimize(own);
  }
}
BENCHMARK(BM_AgStep)->Arg(8)->Arg(64)->Arg(512);

// One Mod-Linial step at the first stage of perfbench's scale graph (ID
// space 10^6, Delta = 37: q = 101, d = 2), over 16 neighbors in the same
// interval; the own colors cycle through 256 seeded draws.
void BM_LinialStep(benchmark::State& state) {
  const coloring::LinialRule rule(coloring::LinialSchedule(1'000'000, 37));
  const coloring::LinialSchedule& sched = rule.schedule();
  const std::size_t top = sched.stages();
  const coloring::LinialStage& st = sched.stage(0);
  if (st.q != 101 || st.d != 2) state.SkipWithError("unexpected first stage");
  graph::Rng rng(11);
  const auto draw = [&] { return sched.offset(top) + rng.below(sched.interval_size(top)); };
  std::vector<coloring::Color> nbrs(16);
  for (auto& c : nbrs) c = draw();
  std::vector<coloring::Color> owns(256);
  for (auto& c : owns) c = draw();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rule.step({}, owns[i++ & 255], nbrs));
  }
}
BENCHMARK(BM_LinialStep);

void BM_EngineRound(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(1000, delta, 3));
  const graph::GraphView g = rg.view();
  coloring::AgRule rule(coloring::ag_modulus(delta, 1000));
  // Raw locally-iterative rounds: no fault hooks, so run_locally_iterative
  // evaluates them on the sweep, not the engine (the row keeps its name).
  for (auto _ : state) {
    state.PauseTiming();
    runtime::IterativeOptions io;
    io.max_rounds = 8;
    io.check_proper_each_round = false;
    auto init = coloring::identity_coloring(g.n());
    state.ResumeTiming();
    auto res = runtime::run_locally_iterative(g, std::move(init), rule, io);
    benchmark::DoNotOptimize(res.rounds);
  }
  state.SetItemsProcessed(state.iterations() * 8 * g.n());
}
BENCHMARK(BM_EngineRound)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// The same sweep rounds on the exec subsystem's thread pool; range(1) is the
// thread count (0 = hardware concurrency, honoring AGC_THREADS semantics).
void BM_EngineRoundThreaded(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(1000, delta, 3));
  const graph::GraphView g = rg.view();
  coloring::AgRule rule(coloring::ag_modulus(delta, 1000));
  const auto executor = exec::make_executor(threads);
  for (auto _ : state) {
    state.PauseTiming();
    runtime::IterativeOptions io;
    io.max_rounds = 8;
    io.check_proper_each_round = false;
    io.executor = executor;
    auto init = coloring::identity_coloring(g.n());
    state.ResumeTiming();
    auto res = runtime::run_locally_iterative(g, std::move(init), rule, io);
    benchmark::DoNotOptimize(res.rounds);
  }
  state.SetItemsProcessed(state.iterations() * 8 * g.n());
  state.counters["threads"] = static_cast<double>(executor->threads());
}
BENCHMARK(BM_EngineRoundThreaded)
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({32, 0})
    ->Unit(benchmark::kMillisecond);

void BM_LinialScheduleBuild(benchmark::State& state) {
  for (auto _ : state) {
    coloring::LinialSchedule sched(1ULL << 40, 64);
    benchmark::DoNotOptimize(sched.stages());
  }
}
BENCHMARK(BM_LinialScheduleBuild);

// ---------------------------------------------------------------------------
// Message path: rounds/sec through the engine's send -> validate -> deliver
// -> receive loop, isolated from any algorithmic work.  One broadcast word
// per vertex per round plus a multiset read per receive — the exact shape of
// every locally-iterative rule — so this measures the mailbox machinery
// (allocation, delivery, accounting), nothing else.  The arena refactor's
// acceptance gate: >= 1.5x items/sec at Delta=64 vs the committed baseline.
// ---------------------------------------------------------------------------

/// Never halts; folds the received multiset into a checksum so delivery and
/// the multiset view cannot be optimized away.
class BroadcastFoldProgram final : public runtime::VertexProgram {
 public:
  void on_send(const runtime::VertexEnv& env, runtime::OutboxRef& out) override {
    out.broadcast(
        runtime::Word{sum_ % env.n_bound, runtime::width_of(env.n_bound - 1)});
  }
  void on_receive(const runtime::VertexEnv&,
                  const runtime::InboxRef& in) override {
    std::uint64_t s = 0;
    for (const std::uint64_t v : in.multiset()) s += v;
    sum_ = s + 1;
  }

 private:
  std::uint64_t sum_ = 1;
};

void message_path_rounds(benchmark::State& state, graph::GraphView g,
                         runtime::Model model, std::size_t threads,
                         obs::PhaseProfile* profile = nullptr,
                         obs::EventSink* sink = nullptr) {
  runtime::Engine engine(g, runtime::Transport(model));
  engine.set_executor(exec::make_executor(threads));
  engine.set_profile(profile);
  engine.set_sink(sink);
  engine.install([](const runtime::VertexEnv&) {
    return std::make_unique<BroadcastFoldProgram>();
  });
  engine.step();  // warm the mailbox path before the timed region
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["threads"] =
      static_cast<double>(engine.executor() ? engine.executor()->threads() : 1);
}

void BM_MessagePathRegular(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(4096, delta, 97 + delta));
  const graph::GraphView g = rg.view();
  message_path_rounds(state, g, runtime::Model::SET_LOCAL, 1);
}
BENCHMARK(BM_MessagePathRegular)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_MessagePathGnp(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  char spec[96];
  std::snprintf(spec, sizeof spec, "gnp:n=4096,p=%.17g,seed=%zu",
                static_cast<double>(delta) / 4096.0, 55 + delta);
  const auto rg = benchutil::resolve_graph(spec);
  message_path_rounds(state, rg.view(), runtime::Model::SET_LOCAL, 1);
}
BENCHMARK(BM_MessagePathGnp)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The same loop with full observability attached: per-shard phase timers and
// a preallocated ring sink.  The plain BM_MessagePathRegular rows above ARE
// the null-sink configuration (timers compiled in, disabled behind one
// branch); this row documents the enabled cost, so the gap between the two is
// the whole price of the obs subsystem when someone turns it on.
void BM_MessagePathObserved(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(4096, delta, 97 + delta));
  const graph::GraphView g = rg.view();
  obs::PhaseProfile profile;
  obs::RingSink sink(1024);
  message_path_rounds(state, g, runtime::Model::SET_LOCAL, 1, &profile, &sink);
}
BENCHMARK(BM_MessagePathObserved)->Arg(64)->Unit(benchmark::kMillisecond);

// The same loop with a ChannelAdversary on the wire (all four fault kinds at
// 1% each).  The gap to BM_MessagePathRegular is the full price of fault
// injection: one hash roll per nonempty port per round plus the doubled spill
// lane reservation; steady-state allocation-free (tests/test_alloc_hook.cpp).
void BM_MessagePathChannelAdversary(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(4096, delta, 97 + delta));
  const graph::GraphView g = rg.view();
  faultlab::ChannelFaultConfig cfg;
  cfg.seed = 11;
  cfg.drop_per_million = 10'000;
  cfg.corrupt_per_million = 10'000;
  cfg.duplicate_per_million = 10'000;
  cfg.delay_per_million = 10'000;
  faultlab::ChannelAdversary chan(cfg);
  runtime::Engine engine(g, runtime::Transport(runtime::Model::SET_LOCAL));
  engine.set_executor(exec::make_executor(1));
  engine.set_channel(&chan);
  engine.install([](const runtime::VertexEnv&) {
    return std::make_unique<BroadcastFoldProgram>();
  });
  engine.step();  // warm the mailbox path, lanes and delay stash
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["threads"] = 1.0;
}
BENCHMARK(BM_MessagePathChannelAdversary)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// End-to-end round throughput of two registry entries: one complete
// pipeline run per iteration on the BM_MessagePathRegular graph, counting
// the rounds actually executed.  Both run fault-free, so their rounds are
// sweep rounds (Luby's rule skips done vertices like any final color).  Named
// BM_MessagePath* so the CI perf-gate filter ('MessagePath')
// tracks their rounds_per_sec against the committed baseline with no
// workflow change.
void BM_MessagePathFyz(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(4096, delta, 97 + delta));
  const graph::GraphView g = rg.view();
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    const auto rep = coloring::color_fyz(g);
    rounds += rep.rounds;
    benchmark::DoNotOptimize(rep.palette);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kIsRate);
  state.counters["threads"] = 1.0;
}
BENCHMARK(BM_MessagePathFyz)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_MessagePathLuby(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(4096, delta, 97 + delta));
  const graph::GraphView g = rg.view();
  coloring::PipelineOptions po;
  po.run().seed = 1;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    const auto rep = coloring::color_luby(g, po);
    rounds += rep.rounds;
    benchmark::DoNotOptimize(rep.palette);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kIsRate);
  state.counters["threads"] = 1.0;
}
BENCHMARK(BM_MessagePathLuby)->Arg(64)->Unit(benchmark::kMillisecond);

// The same loop on the exec backend's threads (--threads/AGC_THREADS).
void BM_MessagePathRegularThreaded(benchmark::State& state) {
  const auto delta = static_cast<std::size_t>(state.range(0));
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(4096, delta, 97 + delta));
  const graph::GraphView g = rg.view();
  message_path_rounds(state, g, runtime::Model::SET_LOCAL,
                      benchutil::gbench_threads());
}
BENCHMARK(BM_MessagePathRegularThreaded)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_gbench_main(argc, argv, "micro");
}
