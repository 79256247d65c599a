// Characterization of every engine runner that drives fault hooks between
// rounds: the locally-iterative engine path, Luby, the distributed edge
// colorer and the selfstab stabilization runner (run_stabilization /
// resettle).  Each runs under a seeded PeriodicAdversary (between rounds)
// plus seeded channel noise (faultlab::WireFaults, inside rounds), with a
// RingSink attached, at 1 and 8 threads.  The pins are the structured event
// stream (every non-RoundEnd event as kind@round:label:value), the rounds,
// fault_events, the Metrics and a digest of the final colors.  They hold the
// one fault semantics — adversary index = rounds stepped by the runner,
// Fault events stamped with engine.rounds(), channel before adversary —
// fixed across any refactor of the round loops.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "agc/coloring/luby.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/edge/edge_coloring.hpp"
#include "agc/exec/executor.hpp"
#include "agc/faultlab/zoo.hpp"
#include "agc/graph/generators.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/iterative.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_mis.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {

using namespace agc;

constexpr std::size_t kRing = std::size_t{1} << 15;

std::uint64_t digest(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t w : words) h = (h ^ w) * 1099511628211ULL;
  return h;
}

/// Wire faults at 2% per kind, live in absolute rounds [first, last].
faultlab::ChannelFaultConfig wire(std::uint64_t seed, std::uint64_t first,
                                  std::uint64_t last) {
  faultlab::ChannelFaultConfig c;
  c.seed = seed;
  c.drop_per_million = 20'000;
  c.corrupt_per_million = 20'000;
  c.duplicate_per_million = 20'000;
  c.delay_per_million = 20'000;
  c.first_round = first;
  c.last_round = last;
  return c;
}

/// Every non-RoundEnd event, then the report core and the colors digest.
std::string fingerprint(const obs::RingSink& ring, const runtime::RunReport& rep,
                        std::uint64_t colors) {
  EXPECT_LE(ring.seen(), ring.capacity());
  std::string s;
  char buf[256];
  for (const obs::Event& ev : ring.snapshot()) {
    if (ev.kind == obs::EventKind::RoundEnd) continue;
    std::snprintf(buf, sizeof buf, "%s@%llu:%s:%llu ",
                  std::string(obs::event_kind_name(ev.kind)).c_str(),
                  static_cast<unsigned long long>(ev.round),
                  ev.label != nullptr ? ev.label : "-",
                  static_cast<unsigned long long>(ev.value));
    s += buf;
  }
  std::snprintf(buf, sizeof buf,
                "| rounds=%zu faults=%zu metrics=%zu/%llu/%llu/%llu "
                "colors=%016llx",
                rep.rounds, rep.fault_events, rep.metrics.rounds,
                static_cast<unsigned long long>(rep.metrics.messages),
                static_cast<unsigned long long>(rep.metrics.total_bits),
                static_cast<unsigned long long>(rep.metrics.max_edge_bits),
                static_cast<unsigned long long>(colors));
  return s + buf;
}

graph::Graph host() { return graph::random_regular(120, 6, 41); }

runtime::Engine ss_engine(const graph::Graph& g, std::size_t threads) {
  runtime::EngineOptions eo;
  eo.delta_bound = g.max_degree();
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.set_executor(exec::make_executor(threads));
  return engine;
}

runtime::PeriodicAdversary::Schedule ram_schedule(std::uint64_t value_range,
                                                  std::size_t clones) {
  return {.period = 4, .last_round = 12, .corrupt = 2,
          .value_range = value_range, .clones = clones};
}

// --- the runners, each returning its fingerprint --------------------------

std::string iterative_run(std::size_t threads) {
  const auto g = host();
  std::vector<graph::Color> ids(g.n());
  for (graph::Vertex v = 0; v < g.n(); ++v) ids[v] = v;
  const std::uint64_t target = g.max_degree() + 1;
  // Corrupt values stay final so the reduction cannot deadlock on a tie.
  runtime::PeriodicAdversary adv(3, ram_schedule(target, 0));
  faultlab::WireFaults chan(wire(5, 1, 12), {}, 0);
  obs::RingSink ring(kRing);
  runtime::IterativeOptions io;
  io.executor = exec::make_executor(threads);
  io.adversary = &adv;
  io.channel = &chan;
  io.sink = &ring;
  io.tag = "reduce";
  const auto rep = coloring::reduce_colors(g, ids, target, io);
  return fingerprint(ring, rep, digest(rep.colors));
}

std::string luby_run(std::size_t threads) {
  const auto g = host();
  runtime::PeriodicAdversary adv(7, ram_schedule(g.max_degree() + 1, 0));
  faultlab::WireFaults chan(wire(9, 1, 12), {}, 0);
  obs::RingSink ring(kRing);
  coloring::PipelineOptions po;
  po.iter.executor = exec::make_executor(threads);
  po.iter.adversary = &adv;
  po.iter.channel = &chan;
  po.iter.sink = &ring;
  po.iter.seed = 5;
  const auto rep = coloring::color_luby(g, po);
  return fingerprint(ring, rep, digest(rep.colors));
}

std::string edge_run(std::size_t threads) {
  const auto g = host();
  // The edge program keeps no RAM: the adversary churns edges instead.
  runtime::PeriodicAdversary adv(
      5, {.period = 6, .last_round = 18, .edge_adds = 1, .edge_removes = 1,
          .dmax = g.max_degree() + 1});
  faultlab::ChannelFaultConfig ccfg;
  ccfg.seed = 9;
  ccfg.corrupt_per_million = 5'000;
  ccfg.last_round = 24;
  faultlab::WireFaults chan(ccfg, {}, 0);
  obs::RingSink ring(kRing);
  edge::EdgeColoringOptions eo;
  eo.executor = exec::make_executor(threads);
  eo.adversary = &adv;
  eo.channel = &chan;
  eo.sink = &ring;
  const auto rep = edge::color_edges_distributed(g, eo);
  return fingerprint(ring, rep, digest(rep.colors));
}

/// The runner's watchdog budget in every pin below.
selfstab::StabilizationSpec budgeted(selfstab::StabilizationSpec spec) {
  spec.recovery_budget = 2000;
  return spec;
}

std::string outcome(const obs::RingSink& ring,
                    const std::vector<std::uint64_t>& outputs,
                    const selfstab::StabilizationOutcome& out) {
  std::vector<std::uint64_t> adjusted(out.adjusted.begin(), out.adjusted.end());
  return fingerprint(ring, out, digest(outputs)) +
         " recovered=" + std::to_string(out.recovered) +
         " last_fault=" + std::to_string(out.last_fault_round) +
         " first_legal=" + std::to_string(out.first_legal_round) +
         " adjusted=" + std::to_string(adjusted.size()) + ":" +
         std::to_string(digest(adjusted));
}

std::string ss_mis_run(std::size_t threads) {
  const auto g = host();
  const selfstab::SsConfig cfg(g.n(), g.max_degree(),
                               selfstab::PaletteMode::ODelta);
  auto engine = ss_engine(g, threads);
  engine.install(selfstab::ss_mis_factory(cfg));
  runtime::PeriodicAdversary adv(23, ram_schedule(0, 1));
  faultlab::WireFaults chan(wire(31, 1, 12), {}, 0);
  obs::RingSink ring(kRing);
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  opts.sink = &ring;
  opts.tag = "ss-mis";
  opts.max_rounds = 8000;
  const auto spec = budgeted(selfstab::mis_spec(cfg));
  const auto out = selfstab::run_stabilization(engine, opts, spec);
  return outcome(ring, spec.outputs(engine), out);
}

std::string stabilization_run(std::size_t threads) {
  const auto g = host();
  const selfstab::SsConfig cfg(g.n(), g.max_degree(),
                               selfstab::PaletteMode::ODelta);
  auto engine = ss_engine(g, threads);
  engine.install(selfstab::ss_coloring_factory(cfg));
  runtime::PeriodicAdversary adv(29, ram_schedule(0, 1));
  faultlab::WireFaults chan(wire(13, 1, 16), {}, 0);
  obs::RingSink ring(kRing);
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  opts.sink = &ring;
  opts.max_rounds = 5000;
  const auto spec = budgeted(selfstab::coloring_spec(cfg));
  const auto out = selfstab::run_stabilization(engine, opts, spec);
  return outcome(ring, spec.outputs(engine), out);
}

std::string resettle_run(std::size_t threads) {
  const auto g = host();
  const selfstab::SsConfig cfg(g.n(), g.max_degree(),
                               selfstab::PaletteMode::ODelta);
  auto engine = ss_engine(g, threads);
  engine.install(selfstab::ss_coloring_factory(cfg));
  const auto spec = budgeted(selfstab::coloring_spec(cfg));
  EXPECT_TRUE(selfstab::run_stabilization(engine, {}, spec).recovered);
  const std::vector<std::uint64_t> baseline = spec.outputs(engine);
  // One service-style epoch: mutate the live engine, then repair it.
  runtime::Adversary mutate(17);
  mutate.clone_neighbor(engine, 4);
  const std::uint64_t now = engine.rounds();
  runtime::PeriodicAdversary adv(37, ram_schedule(0, 1));
  faultlab::WireFaults chan(wire(21, now + 1, now + 12), {}, 0);
  obs::RingSink ring(kRing);
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  opts.sink = &ring;
  opts.max_rounds = 5000;
  const auto out = selfstab::resettle(engine, opts, spec, baseline);
  return outcome(ring, spec.outputs(engine), out);
}

void expect_pinned(std::string (*run)(std::size_t), const char* golden) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_EQ(run(threads), golden) << "threads=" << threads;
  }
}

// --- the pins --------------------------------------------------------------

TEST(HookedRounds, IterativeEnginePathStreamIsPinned) {
  expect_pinned(
      iterative_run,
      "run_start@0:reduce:120 fault@2:channel:54 fault@3:channel:59 "
      "fault@4:channel:49 fault@4:periodic:2 fault@5:channel:48 "
      "fault@6:channel:56 fault@7:channel:49 fault@8:channel:62 "
      "fault@8:periodic:2 fault@9:channel:63 fault@10:channel:77 "
      "run_end@10:reduce:10 | rounds=10 faults=521 "
      "metrics=10/6920/50211/84 colors=81fb5c7987dca1f1");
}

TEST(HookedRounds, LubyStreamIsPinned) {
  expect_pinned(
      luby_run,
      "run_start@0:luby:120 fault@2:channel:64 fault@3:channel:54 "
      "fault@4:channel:45 fault@4:periodic:2 fault@5:channel:44 "
      "fault@6:channel:60 run_end@6:luby:6 | rounds=6 faults=269 "
      "metrics=6/4185/17224/32 colors=065f96de47700050");
}

TEST(HookedRounds, EdgeColoringStreamIsPinned) {
  // The adversary churns edges; the program re-keys its per-port state to
  // the current neighbors, so every send and read addresses a live port.
  expect_pinned(
      edge_run,
      "run_start@0:edge:120 fault@1:channel:2 fault@2:channel:2 "
      "fault@4:channel:4 fault@6:channel:2 fault@6:periodic:2 "
      "fault@7:channel:6 fault@8:channel:3 fault@9:channel:3 "
      "fault@10:channel:4 fault@11:channel:4 fault@12:channel:2 "
      "fault@12:periodic:2 fault@13:channel:2 fault@14:channel:4 "
      "fault@15:channel:5 fault@16:channel:4 fault@17:channel:1 "
      "fault@18:channel:6 fault@18:periodic:2 fault@19:channel:7 "
      "fault@20:channel:3 fault@21:channel:3 fault@22:channel:3 "
      "fault@23:channel:6 fault@24:channel:7 fault@25:channel:5 "
      "run_end@153:edge:153 | rounds=153 faults=94 "
      "metrics=153/108418/208579/298 colors=ab4634425b37b8e5");
}

// The MIS through the one runner under the same schedule: the settle runs
// with no hooks, so only the wire window's rounds after it and the
// phase-relative adversary land.
TEST(HookedRounds, RunStabilizationMisStreamIsPinned) {
  expect_pinned(
      ss_mis_run,
      "run_start@0:ss-mis:120 fault@10:channel:51 fault@11:channel:45 "
      "fault@12:channel:56 fault@13:channel:66 fault@13:periodic:3 "
      "fault@17:periodic:3 fault@21:periodic:3 run_end@31:ss-mis:31 | "
      "rounds=31 faults=227 metrics=31/22152/267300/396 "
      "colors=eccb23296f7ae3dc recovered=1 last_fault=21 first_legal=24 "
      "adjusted=5:1211731151017533623");
}

TEST(HookedRounds, RunStabilizationStreamIsPinned) {
  expect_pinned(
      stabilization_run,
      "run_start@0:-:120 fault@3:channel:56 fault@4:channel:55 fault@5:channel:62 "
      "fault@6:channel:52 fault@6:periodic:3 fault@7:channel:52 "
      "fault@8:channel:50 fault@9:channel:62 fault@10:channel:57 "
      "fault@10:periodic:3 fault@11:channel:61 fault@12:channel:59 "
      "fault@13:channel:73 fault@14:channel:65 fault@14:periodic:3 "
      "fault@15:channel:56 fault@16:channel:56 fault@17:channel:56 "
      "run_end@24:-:24 | rounds=24 faults=881 metrics=24/16778/172210/270 "
      "colors=a2715a9c85674898 recovered=1 last_fault=17 first_legal=17 "
      "adjusted=5:2708346843316792420");
}

TEST(HookedRounds, ResettleStreamIsPinned) {
  expect_pinned(
      resettle_run,
      "run_start@10:-:120 fault@12:channel:64 fault@13:channel:64 fault@14:channel:54 "
      "fault@14:periodic:3 fault@15:channel:63 fault@16:channel:57 "
      "fault@17:channel:52 fault@18:channel:65 fault@18:periodic:3 "
      "fault@19:channel:59 fault@20:channel:57 fault@21:channel:48 "
      "fault@22:channel:70 fault@22:periodic:3 fault@23:channel:84 "
      "run_end@31:-:21 | rounds=21 faults=746 metrics=21/14701/150690/330 "
      "colors=b0977695b6e79888 recovered=1 last_fault=23 first_legal=24 "
      "adjusted=8:8037149760342158901");
}

// run_stabilization observes every round it runs, the fault-free settle
// included: one RoundEnd per round, phase timers for both phases, the
// adversary (booked under `fault`) only in the fault phase.  Looking changes
// no result.
TEST(HookedRounds, RunStabilizationForwardsSinkAndPhaseTimers) {
  const auto g = host();
  const selfstab::SsConfig cfg(g.n(), g.max_degree(),
                               selfstab::PaletteMode::ODelta);
  auto run = [&](bool observe, obs::RingSink* ring, bool faults = true) {
    auto engine = ss_engine(g, 1);
    engine.install(selfstab::ss_coloring_factory(cfg));
    runtime::PeriodicAdversary adv(29, ram_schedule(0, 1));
    runtime::RunOptions opts;
    if (faults) opts.adversary = &adv;
    opts.max_rounds = 5000;
    if (observe) {
      opts.sink = ring;
      opts.collect_phase_times = true;
    }
    auto out = selfstab::run_stabilization(engine, opts,
                                           budgeted(selfstab::coloring_spec(cfg)));
    return std::pair{out, engine.rounds()};
  };
  obs::RingSink ring(kRing);
  const auto [seen, end_round] = run(true, &ring);
  const auto [blind, blind_end] = run(false, nullptr);
  // The settle is fault-free and deterministic: a twin with no adversary
  // ends it on the same round, its first legal one.
  const std::uint64_t settle_rounds =
      run(false, nullptr, /*faults=*/false).first.first_legal_round;
  ASSERT_TRUE(seen.recovered);

  std::vector<std::uint64_t> round_ends;
  for (const obs::Event& ev : ring.snapshot()) {
    if (ev.kind == obs::EventKind::RoundEnd) round_ends.push_back(ev.round);
  }
  // One RoundEnd per round of both phases, from round 1 to the last.
  ASSERT_EQ(round_ends.size(), seen.rounds);
  EXPECT_EQ(round_ends.front(), 1u);
  EXPECT_EQ(round_ends.back(), end_round);
  EXPECT_EQ(round_ends.back() - round_ends.front() + 1, round_ends.size());
  EXPECT_GT(seen.phases.total_ns(), 0u);
  EXPECT_EQ(seen.phases.phase_calls(obs::Phase::Receive), seen.rounds);
  // One check before the settle's first round and one after every round.
  EXPECT_EQ(seen.phases.phase_calls(obs::Phase::Check), seen.rounds + 1);
  // The adversary runs once per fault-phase round and never in the settle.
  ASSERT_GT(settle_rounds, 0u);
  EXPECT_EQ(seen.phases.phase_calls(obs::Phase::Fault), seen.rounds - settle_rounds);
  EXPECT_TRUE(blind.phases.empty());

  EXPECT_EQ(seen.rounds, blind.rounds);
  EXPECT_EQ(end_round, blind_end);
  EXPECT_EQ(seen.fault_events, blind.fault_events);
  EXPECT_EQ(seen.recovery_rounds, blind.recovery_rounds);
  EXPECT_EQ(seen.adjusted, blind.adjusted);
  EXPECT_EQ(seen.metrics.messages, blind.metrics.messages);
  EXPECT_EQ(seen.metrics.total_bits, blind.metrics.total_bits);
}

}  // namespace
