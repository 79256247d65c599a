// The adversary zoo (docs/FAULTS.md): production-shaped fault models behind
// the ChannelHook / FaultAdversary seams — regional outages, flapping links
// and Byzantine-valued neighbors on the wire (faultlab::WireFaults), the
// adaptive RAM adversary, and power-law churn traces.  Every adversary is
// pinned bit-identical across 1/2/8 executor threads, one golden
// recovery/radius row per kind, plus record/replay of every wire kind (Lie
// included) and unknown-field preservation in plan JSONL.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "agc/exec/executor.hpp"
#include "agc/faultlab/plan.hpp"
#include "agc/faultlab/shrink.hpp"
#include "agc/faultlab/zoo.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {

using namespace agc;
using faultlab::FaultPlan;
using faultlab::FaultPlanRecorder;
using faultlab::PlanAdversary;
using faultlab::WireFaults;
using faultlab::ZooSpec;
using runtime::FaultEvent;
using runtime::FaultKind;
using selfstab::PaletteMode;
using selfstab::SsConfig;

constexpr std::uint64_t kSeed = 0x5eedULL;

// ---------------------------------------------------------------------------
// Per-adversary wire semantics on a tiny probe engine
// ---------------------------------------------------------------------------

// Two-vertex probe: broadcasts 100 + round in 8 bits, logs what arrives.
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

runtime::Engine probe_engine(std::vector<std::vector<std::uint64_t>>* log) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  runtime::EngineOptions opts;
  opts.delta_bound = 1;
  runtime::Engine engine(std::move(g), runtime::Transport(runtime::Model::LOCAL),
                         opts);
  engine.install([log](const runtime::VertexEnv&) {
    return std::make_unique<ProbeProgram>(log);
  });
  return engine;
}

TEST(OutageSemantics, RegionDarkExactlyInsideTheWindow) {
  std::vector<std::vector<std::uint64_t>> log;
  auto engine = probe_engine(&log);
  faultlab::RegionalOutageConfig cfg;
  cfg.lo = 1;
  cfg.hi = 1;  // vertex 1 dark: both directions of edge {0,1} die
  cfg.first_round = 1;
  cfg.last_round = 2;
  FaultPlanRecorder rec;
  ZooSpec zoo;
  zoo.outage = cfg;
  WireFaults outage({}, zoo, 0, &rec);
  engine.set_channel(&outage);
  for (int i = 0; i < 4; ++i) engine.step();
  engine.set_channel(nullptr);
  // Rounds are 0-based on the wire: round 0 delivers, rounds 1-2 are dark
  // (either endpoint in region kills the message), round 3 delivers again.
  ASSERT_EQ(log.size(), 8u);
  EXPECT_FALSE(log[0].empty());
  EXPECT_FALSE(log[1].empty());
  for (int i = 2; i < 6; ++i) EXPECT_TRUE(log[i].empty()) << "entry " << i;
  EXPECT_FALSE(log[6].empty());
  EXPECT_FALSE(log[7].empty());
  EXPECT_EQ(outage.events(), 4u);  // 2 directed ports x 2 rounds
  const FaultPlan plan = rec.take();
  ASSERT_EQ(plan.size(), 4u);
  for (const FaultEvent& ev : plan.events) EXPECT_EQ(ev.kind, FaultKind::Drop);
}

TEST(FlapSemantics, BothDirectionsOfALinkFlapInLockstep) {
  std::vector<std::vector<std::uint64_t>> log;
  auto engine = probe_engine(&log);
  faultlab::FlappingLinksConfig cfg;
  cfg.down_per_million = 400'000;
  cfg.up_per_million = 400'000;
  ZooSpec zoo;
  zoo.flap = cfg;
  WireFaults flap({}, zoo, 99 ^ faultlab::kFlapStream);
  engine.set_channel(&flap);
  const int rounds = 40;
  for (int i = 0; i < rounds; ++i) engine.step();
  engine.set_channel(nullptr);
  // The per-port Markov chains hash the canonical endpoint pair, so message
  // 0->1 and 1->0 always live or die together.
  ASSERT_EQ(log.size(), 2u * rounds);
  std::size_t down_rounds = 0;
  for (int r = 0; r < rounds; ++r) {
    EXPECT_EQ(log[2 * r].empty(), log[2 * r + 1].empty()) << "round " << r;
    down_rounds += log[2 * r].empty();
  }
  // With p(down)=p(up)=0.4 the link spends roughly half the run dark; all-up
  // or all-down would mean the chain never advanced.
  EXPECT_GT(down_rounds, 5u);
  EXPECT_LT(down_rounds, 35u);
  EXPECT_EQ(flap.events(), 2 * down_rounds);
}

TEST(ByzSemantics, LiarsReplaceWordZeroWidthPreserving) {
  std::vector<std::vector<std::uint64_t>> log;
  auto engine = probe_engine(&log);
  faultlab::ByzantineConfig cfg;
  cfg.liars_per_million = 1'000'000;  // everyone lies
  cfg.lie_per_million = 1'000'000;    // on every message
  FaultPlanRecorder rec;
  ZooSpec zoo;
  zoo.byz = cfg;
  WireFaults byz({}, zoo, 7 ^ faultlab::kByzStream, &rec);
  EXPECT_TRUE(faultlab::is_liar(cfg, 7, 0));
  EXPECT_TRUE(faultlab::is_liar(cfg, 7, 1));
  engine.set_channel(&byz);
  for (int i = 0; i < 3; ++i) engine.step();
  engine.set_channel(nullptr);
  ASSERT_EQ(log.size(), 6u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i].size(), 1u);
    EXPECT_NE(log[i][0], 100u + i / 2);  // never the truth
    EXPECT_LT(log[i][0], 256u);          // still fits the declared 8 bits
  }
  const FaultPlan plan = rec.take();
  ASSERT_EQ(plan.size(), 6u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan.events[i].kind, FaultKind::Lie);
    EXPECT_LT(plan.events[i].value, 256u);
  }
}

// ---------------------------------------------------------------------------
// Stabilization scenarios: one per adversary kind, deterministic at 1/2/8
// threads, with a pinned golden recovery/radius row
// ---------------------------------------------------------------------------

struct ZooRun {
  selfstab::StabilizationOutcome out;
  std::vector<graph::Color> colors;
  std::uint64_t wire_events = 0;
};

/// Self-stabilizing coloring on gnp(140, 0.05, 59) under `zoo`, through
/// selfstab::run_stabilization as the sched runner's fault path runs it.
ZooRun run_zoo(const ZooSpec& zoo, std::size_t threads,
               FaultPlan* record = nullptr) {
  const auto g = graph::random_gnp(140, 0.05, 59);
  const std::size_t delta = std::max<std::size_t>(g.max_degree(), 1);
  const std::uint64_t n_cap = g.n() + 20;  // churn headroom
  const SsConfig cfg(n_cap, delta, PaletteMode::ODelta);
  runtime::EngineOptions eo;
  eo.delta_bound = delta;
  eo.n_bound = n_cap;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  if (threads > 1) engine.set_executor(exec::make_executor(threads));
  engine.install(selfstab::ss_coloring_factory(cfg));

  FaultPlanRecorder rec;
  if (record != nullptr) engine.set_fault_recorder(&rec);
  WireFaults hooks({}, zoo, kSeed, record != nullptr ? &rec : nullptr);
  faultlab::FaultAdversaryChain advs;
  faultlab::append_state_adversaries(advs, zoo, kSeed);

  runtime::RunOptions opts;
  if (zoo.any_channel()) opts.channel = &hooks;
  if (zoo.any_state()) opts.adversary = &advs;
  opts.max_rounds = 9000;
  auto spec = selfstab::coloring_spec(cfg);
  spec.recovery_budget = 3000;
  ZooRun r;
  r.out = selfstab::run_stabilization(engine, opts, spec);
  engine.set_fault_recorder(nullptr);
  r.colors = selfstab::current_colors(engine);
  r.wire_events = hooks.events();
  if (record != nullptr) *record = rec.take();
  return r;
}

void expect_thread_deterministic(const ZooSpec& zoo, const ZooRun& base) {
  for (const std::size_t threads : {2, 8}) {
    const ZooRun rep = run_zoo(zoo, threads);
    EXPECT_EQ(rep.out.recovered, base.out.recovered) << "threads=" << threads;
    EXPECT_EQ(rep.out.recovery_rounds, base.out.recovery_rounds)
        << "threads=" << threads;
    EXPECT_EQ(rep.out.last_fault_round, base.out.last_fault_round)
        << "threads=" << threads;
    EXPECT_EQ(rep.out.first_legal_round, base.out.first_legal_round)
        << "threads=" << threads;
    EXPECT_EQ(rep.out.adjusted, base.out.adjusted) << "threads=" << threads;
    EXPECT_EQ(rep.out.fault_events, base.out.fault_events)
        << "threads=" << threads;
    EXPECT_EQ(rep.wire_events, base.wire_events) << "threads=" << threads;
    EXPECT_EQ(rep.colors, base.colors) << "threads=" << threads;
  }
}

// The golden rows below pin the full (recovery, radius, last-fault, events)
// tuple for one canonical scenario per adversary kind, so ANY trajectory
// change — engine, hook order, hashing — is caught, not just divergence
// across thread counts.

TEST(ZooDeterminism, RegionalOutageGolden) {
  ZooSpec zoo;
  zoo.outage.lo = 10;
  zoo.outage.hi = 40;
  zoo.outage.first_round = 2;
  zoo.outage.last_round = 9;
  const ZooRun base = run_zoo(zoo, 1);
  ASSERT_TRUE(base.out.recovered);
  EXPECT_GT(base.wire_events, 0u);
  EXPECT_EQ(base.out.recovery_rounds, 0u);   // golden
  EXPECT_EQ(base.out.adjusted.size(), 0u);   // golden
  EXPECT_EQ(base.out.last_fault_round, 10u);  // golden
  EXPECT_EQ(base.out.fault_events, 3440u);      // golden
  expect_thread_deterministic(zoo, base);
}

TEST(ZooDeterminism, FlappingLinksGolden) {
  ZooSpec zoo;
  zoo.flap.down_per_million = 150'000;
  zoo.flap.up_per_million = 400'000;
  zoo.flap.first_round = 2;
  zoo.flap.last_round = 14;
  const ZooRun base = run_zoo(zoo, 1);
  ASSERT_TRUE(base.out.recovered);
  EXPECT_GT(base.wire_events, 0u);
  EXPECT_EQ(base.out.recovery_rounds, 0u);   // golden
  EXPECT_EQ(base.out.adjusted.size(), 0u);   // golden
  EXPECT_EQ(base.out.last_fault_round, 15u);  // golden
  EXPECT_EQ(base.out.fault_events, 3520u);      // golden
  expect_thread_deterministic(zoo, base);
}

TEST(ZooDeterminism, ByzantineNeighborsGolden) {
  ZooSpec zoo;
  zoo.byz.liars_per_million = 120'000;
  zoo.byz.lie_per_million = 600'000;
  zoo.byz.first_round = 2;
  zoo.byz.last_round = 10;
  const ZooRun base = run_zoo(zoo, 1);
  ASSERT_TRUE(base.out.recovered);
  EXPECT_GT(base.wire_events, 0u);
  EXPECT_EQ(base.out.recovery_rounds, 0u);   // golden
  EXPECT_EQ(base.out.adjusted.size(), 0u);   // golden
  EXPECT_EQ(base.out.last_fault_round, 11u);  // golden
  EXPECT_EQ(base.out.fault_events, 501u);      // golden
  expect_thread_deterministic(zoo, base);
}

TEST(ZooDeterminism, AdaptiveAdversaryGolden) {
  ZooSpec zoo;
  zoo.adapt.count = 3;
  zoo.adapt.period = 2;
  zoo.adapt.last_round = 8;
  zoo.adapt.target = faultlab::AdaptiveConfig::Target::HighestDegree;
  const ZooRun base = run_zoo(zoo, 1);
  ASSERT_TRUE(base.out.recovered);
  EXPECT_EQ(base.out.recovery_rounds, 2u);   // golden
  EXPECT_EQ(base.out.adjusted.size(), 0u);   // golden
  EXPECT_EQ(base.out.last_fault_round, 10u);  // golden
  EXPECT_EQ(base.out.fault_events, 12u);      // golden
  expect_thread_deterministic(zoo, base);
}

TEST(ZooDeterminism, AdaptiveRecentTargetDiverges) {
  // Same knobs, different snapshot policy: the two targeting modes must
  // produce different fault trajectories or "adaptive" is a misnomer.
  // Churn resets give the recency mode fresh victims away from the static
  // degree leaders (an undisturbed fixed point recolors nothing, so without
  // them both modes collapse onto the same all-tied snapshot).
  // The first firing lands at round 4, after the churn resets have already
  // forced repairs: the recency snapshot then points at the reset
  // neighborhoods while the degree ranking still points at the static hubs.
  ZooSpec degree;
  degree.adapt.count = 3;
  degree.adapt.period = 4;
  degree.adapt.last_round = 8;
  degree.churn.events = 4;
  degree.churn.attach = 0;
  degree.churn.resets_per_million = 1'000'000;
  degree.churn.first_round = 1;
  degree.churn.last_round = 8;
  degree.churn.max_vertices = 140;
  ZooSpec recent = degree;
  recent.adapt.target = faultlab::AdaptiveConfig::Target::RecentlyRecolored;
  FaultPlan plan_degree;
  FaultPlan plan_recent;
  const ZooRun a = run_zoo(degree, 1, &plan_degree);
  const ZooRun b = run_zoo(recent, 1, &plan_recent);
  ASSERT_TRUE(a.out.recovered);
  ASSERT_TRUE(b.out.recovered);
  ASSERT_FALSE(plan_degree.empty());
  ASSERT_FALSE(plan_recent.empty());
  // Compare the injected Ram targets: recency-chasing must aim at different
  // vertices than the static degree ranking at least once.
  std::vector<graph::Vertex> targets_degree;
  std::vector<graph::Vertex> targets_recent;
  for (const FaultEvent& ev : plan_degree.events) {
    if (ev.kind == FaultKind::Ram) targets_degree.push_back(ev.v);
  }
  for (const FaultEvent& ev : plan_recent.events) {
    if (ev.kind == FaultKind::Ram) targets_recent.push_back(ev.v);
  }
  EXPECT_NE(targets_degree, targets_recent);
}

TEST(ZooDeterminism, ChurnTraceGolden) {
  ZooSpec zoo;
  zoo.churn.events = 6;
  zoo.churn.attach = 2;
  zoo.churn.resets_per_million = 400'000;
  zoo.churn.first_round = 2;
  zoo.churn.last_round = 40;
  zoo.churn.dmax = 16;
  zoo.churn.max_vertices = 140 + 20;
  const ZooRun base = run_zoo(zoo, 1);
  ASSERT_TRUE(base.out.recovered);
  EXPECT_GT(base.out.fault_events, 0u);
  EXPECT_EQ(base.out.recovery_rounds, 1u);   // golden
  EXPECT_EQ(base.out.adjusted.size(), 4u);   // golden
  EXPECT_EQ(base.out.last_fault_round, 14u);  // golden
  EXPECT_EQ(base.out.fault_events, 18u);      // golden
  expect_thread_deterministic(zoo, base);
}

TEST(ZooDeterminism, FullZooComposesAndStaysDeterministic) {
  ZooSpec zoo;
  zoo.outage.lo = 20;
  zoo.outage.hi = 35;
  zoo.outage.first_round = 3;
  zoo.outage.last_round = 6;
  zoo.flap.down_per_million = 80'000;
  zoo.flap.first_round = 2;
  zoo.flap.last_round = 12;
  zoo.byz.liars_per_million = 80'000;
  zoo.byz.first_round = 2;
  zoo.byz.last_round = 10;
  zoo.adapt.count = 2;
  zoo.adapt.period = 3;
  zoo.adapt.last_round = 9;
  zoo.churn.events = 4;
  zoo.churn.resets_per_million = 500'000;
  zoo.churn.first_round = 2;
  zoo.churn.last_round = 30;
  zoo.churn.dmax = 16;
  zoo.churn.max_vertices = 140 + 20;
  ASSERT_TRUE(zoo.any_channel());
  ASSERT_TRUE(zoo.any_state());
  const ZooRun base = run_zoo(zoo, 1);
  ASSERT_TRUE(base.out.recovered);
  EXPECT_GT(base.out.fault_events, 0u);
  EXPECT_GT(base.wire_events, 0u);
  expect_thread_deterministic(zoo, base);
}

// ---------------------------------------------------------------------------
// Record / replay through the zoo (including the Lie kind)
// ---------------------------------------------------------------------------

TEST(ZooRecordReplay, RecordedZooRunReplaysBitForBit) {
  ZooSpec zoo;
  zoo.byz.liars_per_million = 150'000;
  zoo.byz.first_round = 2;
  zoo.byz.last_round = 8;
  zoo.outage.lo = 15;
  zoo.outage.hi = 30;
  zoo.outage.first_round = 4;
  zoo.outage.last_round = 7;
  zoo.adapt.count = 2;
  zoo.adapt.period = 2;
  zoo.adapt.last_round = 6;
  zoo.churn.events = 3;
  zoo.churn.resets_per_million = 1'000'000;
  zoo.churn.first_round = 2;
  zoo.churn.last_round = 20;
  FaultPlan plan;
  const ZooRun live = run_zoo(zoo, 1, &plan);
  ASSERT_TRUE(live.out.recovered);
  ASSERT_FALSE(plan.empty());
  std::set<FaultKind> kinds;
  for (const FaultEvent& ev : plan.events) kinds.insert(ev.kind);
  EXPECT_TRUE(kinds.count(FaultKind::Lie));
  EXPECT_TRUE(kinds.count(FaultKind::Drop));
  EXPECT_TRUE(kinds.count(FaultKind::Ram));

  // JSONL round trip, then replay the plan on a fresh engine with the zoo
  // switched off: the trajectory must match the live run exactly.
  const std::string path = testing::TempDir() + "/zoo_replay.jsonl";
  plan.save(path);
  const FaultPlan loaded = FaultPlan::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), plan.size());

  const auto g = graph::random_gnp(140, 0.05, 59);
  const std::size_t delta = std::max<std::size_t>(g.max_degree(), 1);
  const SsConfig cfg(g.n() + 20, delta, PaletteMode::ODelta);
  runtime::EngineOptions eo;
  eo.delta_bound = delta;
  eo.n_bound = g.n() + 20;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_coloring_factory(cfg));
  PlanAdversary adv(loaded);
  WireFaults chan(loaded.events);
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  opts.max_rounds = 9000;
  auto spec = selfstab::coloring_spec(cfg);
  spec.recovery_budget = 3000;
  const auto replay = selfstab::run_stabilization(engine, opts, spec);
  EXPECT_EQ(replay.recovered, live.out.recovered);
  EXPECT_EQ(replay.recovery_rounds, live.out.recovery_rounds);
  EXPECT_EQ(replay.last_fault_round, live.out.last_fault_round);
  EXPECT_EQ(replay.adjusted, live.out.adjusted);
  EXPECT_EQ(selfstab::current_colors(engine), live.colors);
}

// Broadcasts one 8-bit word a round and logs, per vertex, every message that
// arrives: the round, then each port's word count and words.
class EchoProgram final : public runtime::VertexProgram {
 public:
  explicit EchoProgram(std::vector<std::uint64_t>* log) : log_(log) {}
  void on_send(const runtime::VertexEnv& env, runtime::OutboxRef& out) override {
    out.broadcast(runtime::Word{(env.id * 37 + env.round) & 0xff, 8});
  }
  void on_receive(const runtime::VertexEnv& env,
                  const runtime::InboxRef& in) override {
    log_->push_back(env.round);
    for (std::size_t p = 0; p < in.ports(); ++p) {
      log_->push_back(in.from_port(p).size());
      for (const runtime::Word& w : in.from_port(p)) log_->push_back(w.value);
    }
  }

 private:
  std::vector<std::uint64_t>* log_;
};

struct WireRun {
  std::vector<std::vector<std::uint64_t>> delivered;  ///< per vertex
  std::uint64_t events = 0;
  FaultPlan plan;
};

/// 16 rounds of EchoProgram on gnp(60, 0.1, 5) under `wire`, recording to
/// `rec` when given.
WireRun run_wire(runtime::ChannelHook& wire, std::size_t threads,
                 FaultPlanRecorder* rec = nullptr) {
  const auto g = graph::random_gnp(60, 0.1, 5);
  WireRun r;
  r.delivered.resize(g.n());
  runtime::EngineOptions eo;
  eo.delta_bound = g.max_degree();
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  if (threads > 1) engine.set_executor(exec::make_executor(threads));
  engine.install([&r](const runtime::VertexEnv& env) {
    return std::make_unique<EchoProgram>(&r.delivered[env.id]);
  });
  engine.set_channel(&wire);
  for (int i = 0; i < 16; ++i) engine.step();
  engine.set_channel(nullptr);
  r.events = wire.events();
  if (rec != nullptr) r.plan = rec->take();
  return r;
}

TEST(ZooRecordReplay, EveryWireFamilyReplaysMessageForMessage) {
  // Channel noise with all four kinds on, plus outage, flap and byz: the
  // recorded plan, replayed by WireFaults alone, delivers exactly the live
  // run's messages, at 1, 2 and 8 threads.
  faultlab::ChannelFaultConfig noise;
  noise.seed = 23;
  noise.drop_per_million = 60'000;
  noise.corrupt_per_million = 60'000;
  noise.duplicate_per_million = 60'000;
  noise.delay_per_million = 60'000;
  noise.first_round = 1;
  noise.last_round = 12;
  ZooSpec zoo;
  zoo.outage.lo = 10;
  zoo.outage.hi = 16;
  zoo.outage.first_round = 3;
  zoo.outage.last_round = 6;
  zoo.flap.down_per_million = 100'000;
  zoo.flap.first_round = 2;
  zoo.flap.last_round = 10;
  zoo.byz.liars_per_million = 150'000;
  zoo.byz.lie_per_million = 500'000;
  zoo.byz.first_round = 2;
  zoo.byz.last_round = 8;
  FaultPlanRecorder rec;
  WireFaults live_hook(noise, zoo, kSeed, &rec);
  EXPECT_STREQ(live_hook.name(), "zoo");
  const WireRun live = run_wire(live_hook, 1, &rec);
  ASSERT_EQ(live.plan.size(), live.events);
  std::set<FaultKind> kinds;
  for (const FaultEvent& ev : live.plan.events) kinds.insert(ev.kind);
  EXPECT_EQ(kinds, (std::set<FaultKind>{FaultKind::Drop, FaultKind::Corrupt,
                                        FaultKind::Duplicate, FaultKind::Delay,
                                        FaultKind::Lie}));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    WireFaults again(noise, zoo, kSeed);
    const WireRun rerun = run_wire(again, threads);
    EXPECT_EQ(rerun.delivered, live.delivered) << "live, threads=" << threads;
    EXPECT_EQ(rerun.events, live.events) << "live, threads=" << threads;
    WireFaults replay(live.plan.events);
    EXPECT_STREQ(replay.name(), "channel");
    const WireRun replayed = run_wire(replay, threads);
    EXPECT_EQ(replayed.delivered, live.delivered) << "replay, threads=" << threads;
    EXPECT_EQ(replayed.events, live.events) << "replay, threads=" << threads;
  }
}

TEST(ZooRecordReplay, LiePlaybackMasksToDeclaredWidth) {
  // A hand-written Lie event with a too-wide value must land masked to the
  // message's declared width, mirroring the live adversary's guarantee.
  std::vector<std::vector<std::uint64_t>> log;
  auto engine = probe_engine(&log);
  FaultEvent ev;
  ev.round = 0;
  ev.kind = FaultKind::Lie;
  ev.u = 0;
  ev.v = 1;
  ev.value = 0xffff;  // wider than the probe's 8-bit words
  WireFaults chan(std::vector<FaultEvent>{ev});
  engine.set_channel(&chan);
  engine.step();
  engine.set_channel(nullptr);
  ASSERT_EQ(log.size(), 2u);
  ASSERT_EQ(log[0].size(), 1u);  // vertex 1's inbox: the lied-to direction
  ASSERT_EQ(log[1].size(), 1u);
  const bool lied_0 = log[0][0] == 0xffu;
  const bool lied_1 = log[1][0] == 0xffu;
  EXPECT_TRUE(lied_0 || lied_1);         // exactly the 0->1 message replaced
  EXPECT_NE(lied_0, lied_1);
  EXPECT_TRUE(log[0][0] == 100u || log[1][0] == 100u);  // other side truthful
}

// ---------------------------------------------------------------------------
// Plan JSONL: unknown fields survive load -> canonicalize -> save -> shrink
// ---------------------------------------------------------------------------

TEST(PlanExtras, UnknownFieldsRoundTripThroughSaveAndShrink) {
  const std::string jsonl =
      "{\"round\":3,\"kind\":\"lie\",\"u\":1,\"v\":2,\"word\":0,\"value\":9,"
      "\"origin\":\"byz\",\"note\":{\"a\":[1,2]}}\n"
      "{\"round\":1,\"kind\":\"ram\",\"u\":0,\"v\":4,\"word\":0,\"value\":7}\n"
      "{\"round\":1,\"kind\":\"drop\",\"u\":5,\"v\":6,\"word\":0,\"value\":0,"
      "\"tag\":\"flap#7\"}\n";
  const std::string path = testing::TempDir() + "/extras.jsonl";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(jsonl.c_str(), f);
    std::fclose(f);
  }
  FaultPlan plan = FaultPlan::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(plan.size(), 3u);
  // canonicalize(): round 1 first (ram before the channel drop), the round-3
  // lie last, each keeping its unknown fields attached through the reorder.
  plan.canonicalize();
  EXPECT_EQ(plan.events[0].kind, FaultKind::Ram);
  EXPECT_EQ(plan.events[1].kind, FaultKind::Drop);
  EXPECT_EQ(plan.events[2].kind, FaultKind::Lie);
  const std::string out = plan.to_jsonl();
  EXPECT_NE(out.find("\"origin\":\"byz\""), std::string::npos);
  EXPECT_NE(out.find("\"note\":{\"a\":[1,2]}"), std::string::npos);
  EXPECT_NE(out.find("\"tag\":\"flap#7\""), std::string::npos);
  // The lie's extras live on the lie's line, not somebody else's.
  const auto lie_line = out.find("\"kind\":\"lie\"");
  ASSERT_NE(lie_line, std::string::npos);
  const auto lie_end = out.find('\n', lie_line);
  EXPECT_LT(out.find("\"origin\":\"byz\""), lie_end);
  EXPECT_GT(out.find("\"origin\":\"byz\""), lie_line);

  // ddmin to the single event a predicate cares about: its extras ride along.
  faultlab::ShrinkStats stats;
  const FaultPlan small = faultlab::shrink_plan(
      plan,
      [](const FaultPlan& cand) {
        for (const FaultEvent& ev : cand.events) {
          if (ev.kind == FaultKind::Lie) return true;
        }
        return false;
      },
      &stats);
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small.events[0].kind, FaultKind::Lie);
  EXPECT_NE(small.to_jsonl().find("\"origin\":\"byz\""), std::string::npos);
}

}  // namespace
