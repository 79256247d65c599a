// Runtime substrate: mailboxes, transports (model enforcement + accounting),
// the round engine (delivery, dynamics, RAM), and the locally-iterative
// harness.
#include <gtest/gtest.h>

#include <memory>

#include "agc/graph/generators.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/iterative.hpp"

namespace {

using namespace agc;
using namespace agc::runtime;

TEST(Message, WidthOf) {
  EXPECT_EQ(width_of(0), 1u);
  EXPECT_EQ(width_of(1), 1u);
  EXPECT_EQ(width_of(2), 2u);
  EXPECT_EQ(width_of(255), 8u);
  EXPECT_EQ(width_of(256), 9u);
  EXPECT_EQ(width_of(~0ULL), 64u);
}

/// Single-shard arena around a graph, for direct Outbox/Inbox view tests.
struct ArenaHarness {
  explicit ArenaHarness(graph::Graph graph) : g(std::move(graph)) {
    arena.ensure(g);
    arena.ensure_shards(1);
    arena.begin_shard(0);
    for (graph::Vertex v = 0; v < g.n(); ++v) arena.reset_ports(v);
  }
  [[nodiscard]] OutboxRef outbox(graph::Vertex v) { return arena.outbox(v, 0); }
  [[nodiscard]] InboxRef inbox(graph::Vertex v) { return arena.inbox(v, 0); }

  graph::Graph g;
  MailboxArena arena;
};

TEST(Message, InboxMultisetAnonymousInPortOrder) {
  // Star: 0 is adjacent to {1, 2, 3}; leaves 1 and 3 send, 2 stays silent.
  // The multiset is not sorted: it lists the first words in port order.
  ArenaHarness h(graph::Graph::from_edges(
      4, std::vector<graph::Edge>{{0, 1}, {0, 2}, {0, 3}}));
  h.outbox(1).send(0, {42, 8});
  h.outbox(3).send(0, {7, 8});
  const auto in = h.inbox(0);
  const auto ms = in.multiset();
  EXPECT_EQ(std::vector<std::uint64_t>(ms.begin(), ms.end()),
            (std::vector<std::uint64_t>{42, 7}));
  EXPECT_EQ(in.value_or(1, 99), 99u);  // port 1 = silent neighbor 2
}

TEST(TransportTest, CongestCapEnforced) {
  const Transport t(Model::CONGEST, 8);
  ArenaHarness h(graph::path(3));  // vertex 1 has two ports
  auto out = h.outbox(1);
  out.send(0, {200, 8});
  EXPECT_NO_THROW(t.validate(out));
  ArenaHarness hw(graph::path(3));
  auto wide = hw.outbox(1);
  wide.send(0, {512, 10});
  EXPECT_THROW(t.validate(wide), std::logic_error);
  // Multiple words on one port count together.
  ArenaHarness hm(graph::path(2));
  auto multi = hm.outbox(0);
  multi.send(0, {1, 5});
  multi.send(0, {1, 5});
  EXPECT_THROW(t.validate(multi), std::logic_error);
}

TEST(TransportTest, DeclaredWidthMustCoverValue) {
  const Transport t(Model::LOCAL);
  ArenaHarness h(graph::path(2));
  auto out = h.outbox(0);
  out.send(0, {256, 8});  // 256 needs 9 bits
  EXPECT_THROW(t.validate(out), std::logic_error);
}

TEST(TransportTest, SetLocalForbidsDirectedSends) {
  const Transport t(Model::SET_LOCAL);
  ArenaHarness h(graph::path(3));
  auto dir = h.outbox(1);
  dir.send(0, {1, 1});
  EXPECT_THROW(t.validate(dir), std::logic_error);
  ArenaHarness hb(graph::path(3));
  auto bc = hb.outbox(1);
  bc.broadcast({1, 1});
  EXPECT_NO_THROW(t.validate(bc));
}

TEST(TransportTest, BitModelOneBit) {
  const Transport t(Model::BIT);
  ArenaHarness h(graph::path(2));
  auto out = h.outbox(0);
  out.send(0, {1, 1});
  EXPECT_NO_THROW(t.validate(out));
  ArenaHarness ht(graph::path(2));
  auto two = ht.outbox(0);
  two.send(0, {2, 2});
  EXPECT_THROW(t.validate(two), std::logic_error);
}

/// Echo program: broadcasts its id, records the multiset it hears.
class EchoProgram final : public VertexProgram {
 public:
  void on_send(const VertexEnv& env, OutboxRef& out) override {
    out.broadcast({env.padded_id, width_of(env.id_space - 1)});
  }
  void on_receive(const VertexEnv&, const InboxRef& in) override {
    const auto ms = in.multiset();  // scratch-backed: copy out of the view
    heard.assign(ms.begin(), ms.end());
  }
  std::vector<std::uint64_t> heard;
};

TEST(EngineTest, DeliversToCorrectPorts) {
  const auto g = graph::path(4);  // 0-1-2-3
  Engine engine(g, Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<EchoProgram>(); });
  engine.step();
  auto& p1 = dynamic_cast<EchoProgram&>(engine.program(1));
  EXPECT_EQ(p1.heard, (std::vector<std::uint64_t>{0, 2}));
  auto& p0 = dynamic_cast<EchoProgram&>(engine.program(0));
  EXPECT_EQ(p0.heard, (std::vector<std::uint64_t>{1}));
}

TEST(EngineTest, MetricsCountMessagesAndBits) {
  const auto g = graph::cycle(5);
  Engine engine(g, Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<EchoProgram>(); });
  engine.step();
  engine.step();
  // 5 vertices x 2 neighbors x 2 rounds directed messages.
  EXPECT_EQ(engine.metrics().messages, 20u);
  EXPECT_EQ(engine.metrics().rounds, 2u);
  EXPECT_EQ(engine.metrics().total_bits, 20u * width_of(4));
  // Each directed edge carried exactly 2 messages of width_of(4) bits.
  EXPECT_EQ(engine.metrics().max_edge_bits, 2 * width_of(4));
}

TEST(EngineTest, IdSpaceFactor) {
  EngineOptions opts;
  opts.id_space_factor = 1000;
  Engine engine(graph::path(3), Transport(Model::LOCAL), opts);
  EXPECT_EQ(engine.env(0).id_space, 3000u);
  EXPECT_EQ(engine.env(2).padded_id, 2u);
}

TEST(EngineTest, DynamicTopology) {
  Engine engine(graph::path(4), Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<EchoProgram>(); });
  EXPECT_TRUE(engine.add_edge(0, 3));
  EXPECT_FALSE(engine.add_edge(0, 1));
  engine.step();
  auto& p0 = dynamic_cast<EchoProgram&>(engine.program(0));
  EXPECT_EQ(p0.heard, (std::vector<std::uint64_t>{1, 3}));

  const auto v = engine.add_vertex();
  EXPECT_EQ(v, 4u);
  EXPECT_TRUE(engine.add_edge(v, 0));
  engine.step();
  EXPECT_EQ(p0.heard.size(), 3u);

  engine.reset_vertex(0);
  EXPECT_EQ(engine.graph().degree(0), 0u);
}

/// Program with one RAM word, for adversary tests.
class RamProgram final : public VertexProgram {
 public:
  void on_send(const VertexEnv&, OutboxRef& out) override {
    out.broadcast({word, 64});
  }
  void on_receive(const VertexEnv&, const InboxRef&) override {}
  std::span<std::uint64_t> ram() override { return {&word, 1}; }
  std::uint64_t word = 7;
};

TEST(EngineTest, RamCorruption) {
  Engine engine(graph::path(3), Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<RamProgram>(); });
  engine.corrupt_ram(1, 0, 12345);
  EXPECT_EQ(engine.ram(1)[0], 12345u);
  engine.corrupt_ram(1, 5, 0);  // out of range: no-op
  EXPECT_EQ(engine.ram(1).size(), 1u);
}

TEST(AdversaryTest, EventsAreCountedAndCapped) {
  Engine engine(graph::random_bounded_degree(50, 5, 100, 3),
                Transport(Model::LOCAL));
  engine.install([](const VertexEnv&) { return std::make_unique<RamProgram>(); });
  Adversary adv(1);
  adv.corrupt_random(engine, 10, 100);
  EXPECT_EQ(adv.events(), 10u);
  adv.churn_edges(engine, 10, 5, 5);
  EXPECT_LE(engine.graph().max_degree(), 5u);
  adv.churn_vertices(engine, 3, 2, 5);
  EXPECT_LE(engine.graph().max_degree(), 5u);
}

/// Rule: decrement to zero (needs no neighbor info); final at 0.
class CountdownRule final : public IterativeRule {
 public:
  Color step(StepContext, Color own, std::span<Color>) const override {
    return own == 0 ? 0 : own - 1;
  }
  bool is_final(Color c) const override { return c == 0; }
  std::uint32_t color_bits() const override { return 16; }
};

TEST(IterativeHarness, RunsUntilAllFinal) {
  const auto g = graph::cycle(6);
  CountdownRule rule;
  IterativeOptions opts;
  opts.check_proper_each_round = false;
  auto res = run_locally_iterative(g, {5, 4, 3, 2, 1, 0}, rule, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.rounds, 5u);
  EXPECT_EQ(res.colors, (std::vector<Color>(6, 0)));
}

TEST(IterativeHarness, DetectsImproperIntermediate) {
  const auto g = graph::path(2);
  CountdownRule rule;
  IterativeOptions opts;  // properness checking on
  auto res = run_locally_iterative(g, {2, 1}, rule, opts);
  // Colors pass through {1,0} then land on {0,0}: improper at the end.
  EXPECT_FALSE(res.proper_each_round);
}

TEST(IterativeHarness, MaxRoundsCap) {
  class NeverRule final : public IterativeRule {
   public:
    Color step(StepContext, Color own, std::span<Color>) const override {
      return own ^ 1;
    }
    bool is_final(Color) const override { return false; }
    std::uint32_t color_bits() const override { return 2; }
  };
  const auto g = graph::path(3);
  NeverRule rule;
  IterativeOptions opts;
  opts.max_rounds = 10;
  opts.check_proper_each_round = false;
  auto res = run_locally_iterative(g, {0, 1, 0}, rule, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.rounds, 10u);
}

}  // namespace
