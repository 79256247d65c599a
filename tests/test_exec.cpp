// The exec subsystem's contract (docs/EXEC.md): the sharded parallel round
// executor is bit-identical to the sequential engine for EVERY thread count —
// same colorings, same round counts, same metrics (messages, total bits,
// per-edge maximum), same fault-adversary trajectories.  These tests compare
// whole executions, not just final answers, across models and graph families.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "agc/coloring/pipeline.hpp"
#include "agc/exec/executor.hpp"
#include "agc/exec/thread_pool.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/iterative.hpp"
#include "agc/runtime/shards.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {

using namespace agc;

std::vector<graph::Graph> test_graphs() {
  std::vector<graph::Graph> gs;
  gs.push_back(graph::random_gnp(300, 0.05, 42));
  gs.push_back(graph::random_regular(400, 8, 7));
  gs.push_back(graph::grid(15, 20));
  return gs;
}

void expect_same_metrics(const runtime::Metrics& a, const runtime::Metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_edge_bits, b.max_edge_bits);
}

// The full pipeline (Linial + AG + reduction) in each communication model,
// sequential vs 1/2/8 shard threads: identical colorings, rounds and metrics.
TEST(ExecDeterminism, PipelineAcrossModelsThreadsGraphs) {
  for (const auto& g : test_graphs()) {
    for (const runtime::Model model :
         {runtime::Model::SET_LOCAL, runtime::Model::LOCAL,
          runtime::Model::CONGEST}) {
      coloring::PipelineOptions base;
      base.iter.model = model;
      const auto seq = coloring::color_delta_plus_one(g, base);
      ASSERT_TRUE(seq.converged);
      ASSERT_TRUE(seq.proper);

      for (const std::size_t threads : {1, 2, 8}) {
        coloring::PipelineOptions par = base;
        par.iter.executor = exec::make_executor(threads);
        const auto rep = coloring::color_delta_plus_one(g, par);
        EXPECT_EQ(rep.colors, seq.colors) << "threads=" << threads;
        EXPECT_EQ(rep.rounds, seq.rounds) << "threads=" << threads;
        EXPECT_EQ(rep.palette, seq.palette);
        EXPECT_EQ(rep.proper_each_round, seq.proper_each_round);
        expect_same_metrics(rep.metrics, seq.metrics);
      }
    }
  }
}

// A 1-bit broadcast program for the Bit-Round model.  RAM word 0 is an
// order-sensitive hash chain over the inbox (port by port), so it detects any
// difference in delivery contents OR order, not just in the final multiset.
class BitChainProgram final : public runtime::VertexProgram {
 public:
  void on_start(const runtime::VertexEnv& env) override {
    ram_ = {0, env.padded_id & 1};
  }
  void on_send(const runtime::VertexEnv& /*env*/,
               runtime::OutboxRef& out) override {
    out.broadcast(runtime::Word{ram_[1] & 1, 1});
  }
  void on_receive(const runtime::VertexEnv& /*env*/,
                  const runtime::InboxRef& in) override {
    for (std::size_t p = 0; p < in.ports(); ++p) {
      for (const runtime::Word w : in.from_port(p)) {
        ram_[0] = ram_[0] * 1099511628211ULL + (w.value << 1 | 1);
      }
    }
    ram_[1] ^= ram_[0] & 1;
  }
  std::span<std::uint64_t> ram() override { return ram_; }

 private:
  std::vector<std::uint64_t> ram_ = {0, 0};
};

TEST(ExecDeterminism, BitModelRamAndMetrics) {
  const auto g = graph::random_gnp(250, 0.04, 9);
  auto make_engine = [&] {
    runtime::Engine e(g, runtime::Transport(runtime::Model::BIT));
    e.install([](const runtime::VertexEnv&) {
      return std::make_unique<BitChainProgram>();
    });
    return e;
  };

  auto seq = make_engine();
  auto par = make_engine();
  par.set_executor(exec::make_executor(8));
  for (int r = 0; r < 6; ++r) {
    seq.step();
    par.step();
  }
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    const auto a = seq.program(v).ram();
    const auto b = par.program(v).ram();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) EXPECT_EQ(a[w], b[w]) << v;
  }
  expect_same_metrics(seq.metrics(), par.metrics());
  // The Bit-Round model really was exercised: 1 bit per edge per round.
  EXPECT_EQ(seq.metrics().max_edge_bits, 6u);
}

// Identical fault-adversary trajectories: two self-stabilizing engines, one
// sequential and one on 3 threads, driven by same-seed adversaries through
// RAM corruption, worst-case neighbor cloning, and edge/vertex churn.  Every
// epoch must stabilize in the same number of rounds with the same RAM.
TEST(ExecDeterminism, FaultAdversaryTrajectory) {
  const std::size_t delta = 10;
  const auto g = graph::random_regular(200, 6, 11);
  selfstab::SsConfig cfg(g.n(), delta, selfstab::PaletteMode::ODelta);
  auto make_engine = [&](std::shared_ptr<runtime::RoundExecutor> ex) {
    runtime::EngineOptions eo;
    eo.delta_bound = delta;
    runtime::Engine e(g, runtime::Transport(runtime::Model::LOCAL), eo);
    e.set_executor(std::move(ex));
    e.install(selfstab::ss_coloring_factory(cfg));
    return e;
  };

  auto seq = make_engine(nullptr);
  auto par = make_engine(exec::make_executor(3));
  auto spec = selfstab::coloring_spec(cfg);
  spec.recovery_budget = 100000;
  runtime::Adversary adv_seq(77), adv_par(77);

  for (int epoch = 0; epoch < 3; ++epoch) {
    if (epoch > 0) {
      adv_seq.corrupt_random(seq, 12, cfg.span());
      adv_par.corrupt_random(par, 12, cfg.span());
      adv_seq.clone_neighbor(seq, 6);
      adv_par.clone_neighbor(par, 6);
      adv_seq.churn_edges(seq, 5, 5, delta);
      adv_par.churn_edges(par, 5, 5, delta);
    }
    const auto rs = selfstab::run_stabilization(seq, {}, spec);
    const auto rp = selfstab::run_stabilization(par, {}, spec);
    ASSERT_TRUE(rs.recovered);
    ASSERT_TRUE(rp.recovered);
    EXPECT_EQ(rs.first_legal_round, rp.first_legal_round) << "epoch " << epoch;
    EXPECT_EQ(rs.rounds, rp.rounds) << "epoch " << epoch;
    EXPECT_EQ(selfstab::current_colors(seq), selfstab::current_colors(par))
        << "epoch " << epoch;
    for (graph::Vertex v = 0; v < seq.graph().n(); ++v) {
      const auto a = seq.program(v).ram();
      const auto b = par.program(v).ram();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t w = 0; w < a.size(); ++w) {
        ASSERT_EQ(a[w], b[w]) << "epoch " << epoch << " v " << v;
      }
    }
    expect_same_metrics(seq.metrics(), par.metrics());
  }
}

// More shards than vertices (empty shards) must still be exact.
TEST(ExecDeterminism, MoreShardsThanVertices) {
  const auto g = graph::cycle(5);
  coloring::PipelineOptions base;
  const auto seq = coloring::color_delta_plus_one(g, base);
  coloring::PipelineOptions par = base;
  par.iter.executor = exec::make_executor(8);
  const auto rep = coloring::color_delta_plus_one(g, par);
  EXPECT_EQ(rep.colors, seq.colors);
  expect_same_metrics(rep.metrics, seq.metrics);
}

// The arena's spill lane under shards: the LOCAL-model line-graph simulation
// sends degree-many words per port in phase B, so every port outgrows its
// inline slot.  Spilled message volume is partition-independent and the
// whole trajectory (RAM + metrics + arena growth) must be bit-identical for
// thread counts 1/2/8; lane layout per thread count must be reproducible
// run-to-run.  The TSan CI job runs this binary, covering the concurrent
// spill writes.
TEST(ExecDeterminism, SsLineSpillLaneDeterministicAcrossThreads) {
  const auto g = graph::random_gnp(48, 0.14, 33);
  selfstab::SsLineConfig cfg(g.n(), g.max_degree(),
                             selfstab::LineTask::MaximalMatching);

  struct Trace {
    std::vector<std::uint64_t> spilled;     ///< per-round spilled words
    std::vector<std::uint64_t> lane_used;   ///< per-round lane usage
    std::vector<std::uint64_t> ram;         ///< final RAM, all vertices
    runtime::Metrics metrics;
  };
  auto run = [&](std::size_t threads) {
    runtime::EngineOptions eo;
    eo.delta_bound = g.max_degree();
    runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
    engine.set_executor(exec::make_executor(threads));
    engine.install(selfstab::ss_line_factory(cfg));
    Trace t;
    for (int round = 0; round < 30; ++round) {
      engine.step();
      t.spilled.push_back(engine.arena().spilled_words());
      t.lane_used.push_back(engine.arena().lane_words_used());
    }
    for (graph::Vertex v = 0; v < engine.graph().n(); ++v) {
      for (const std::uint64_t w : engine.program(v).ram()) t.ram.push_back(w);
    }
    t.metrics = engine.metrics();
    return t;
  };

  const Trace seq = run(1);
  // Phase-B rounds (odd) actually spill: deg words per port, 1 inline.
  EXPECT_GT(seq.spilled[1], 0u);

  for (const std::size_t threads : {2, 8}) {
    const Trace par = run(threads);
    // Observable state and spill volume: partition-independent.
    EXPECT_EQ(par.ram, seq.ram) << "threads=" << threads;
    EXPECT_EQ(par.spilled, seq.spilled) << "threads=" << threads;
    expect_same_metrics(par.metrics, seq.metrics);
    // Lane layout: partition-dependent but deterministic per thread count.
    const Trace repeat = run(threads);
    EXPECT_EQ(repeat.lane_used, par.lane_used) << "threads=" << threads;
    EXPECT_EQ(repeat.ram, par.ram) << "threads=" << threads;
  }
}

// A vertex program or rule that throws on a pool worker must surface as an
// exception from the call that ran it — not hang or poison the pool — and
// the same executor must then run fresh work to the same result as the
// sequential engine.  The TSan CI job runs this binary.
class ThrowOnceProgram final : public runtime::VertexProgram {
 public:
  void on_start(const runtime::VertexEnv& env) override { id_ = env.id; }
  void on_send(const runtime::VertexEnv& /*env*/,
               runtime::OutboxRef& out) override {
    out.broadcast(runtime::Word{1, 1});
  }
  void on_receive(const runtime::VertexEnv& /*env*/,
                  const runtime::InboxRef& /*in*/) override {
    if (id_ == 37 && ++count_ == 2) throw std::runtime_error("boom");
  }

 private:
  graph::Vertex id_ = 0;
  int count_ = 0;
};

TEST(ExecFailure, EngineStepRethrowsAndExecutorStaysUsable) {
  const auto g = graph::random_gnp(100, 0.05, 3);
  const auto ex = exec::make_executor(8);
  {
    runtime::Engine e(g, runtime::Transport(runtime::Model::BIT));
    e.set_executor(ex);
    e.install([](const runtime::VertexEnv&) {
      return std::make_unique<ThrowOnceProgram>();
    });
    e.step();
    EXPECT_THROW(e.step(), std::runtime_error);
  }
  auto make_engine = [&] {
    runtime::Engine e(g, runtime::Transport(runtime::Model::BIT));
    e.install([](const runtime::VertexEnv&) {
      return std::make_unique<BitChainProgram>();
    });
    return e;
  };
  auto seq = make_engine();
  auto par = make_engine();
  par.set_executor(ex);
  for (int r = 0; r < 3; ++r) {
    seq.step();
    par.step();
  }
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    const auto a = seq.program(v).ram();
    const auto b = par.program(v).ram();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) EXPECT_EQ(a[w], b[w]) << v;
  }
  expect_same_metrics(seq.metrics(), par.metrics());
}

/// Never finalizes and never changes a color, but throws on color `bad` —
/// on the identity coloring, at exactly one vertex.
class ThrowingRule final : public runtime::IterativeRule {
 public:
  explicit ThrowingRule(graph::Color bad) : bad_(bad) {}
  [[nodiscard]] graph::Color step(runtime::StepContext, graph::Color own,
                                  std::span<graph::Color> /*nbrs*/) const override {
    if (own == bad_) throw std::runtime_error("boom");
    return own;
  }
  [[nodiscard]] bool is_final(graph::Color /*c*/) const override { return false; }
  [[nodiscard]] std::uint32_t color_bits() const override { return 16; }

 private:
  graph::Color bad_;
};

TEST(ExecFailure, SweepRethrowsAndExecutorStaysUsable) {
  const auto g = graph::random_gnp(1000, 0.01, 3);
  const auto ex = exec::make_executor(8);
  std::vector<graph::Color> identity(g.n());
  for (graph::Vertex v = 0; v < g.n(); ++v) identity[v] = v;
  // No adversary and no channel hook: the run takes the sweep, whose shard
  // passes the executor runs on its pool through run_shards.
  runtime::IterativeOptions opts;
  opts.executor = ex;
  opts.max_rounds = 2;  // a swallowed exception fails fast, not after 10^6 rounds
  const ThrowingRule rule(537);
  EXPECT_THROW((void)runtime::run_locally_iterative(g, identity, rule, opts),
               std::runtime_error);

  const auto seq = coloring::color_delta_plus_one(g, {});
  coloring::PipelineOptions par;
  par.iter.executor = ex;
  const auto rep = coloring::color_delta_plus_one(g, par);
  ASSERT_TRUE(rep.converged);
  EXPECT_EQ(rep.colors, seq.colors);
  EXPECT_EQ(rep.rounds, seq.rounds);
  EXPECT_TRUE(rep.proper_each_round);
  expect_same_metrics(rep.metrics, seq.metrics);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  exec::ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesLowestIndexedException) {
  exec::ThreadPool pool(4);
  for (int rep = 0; rep < 10; ++rep) {
    try {
      pool.run(16, [](std::size_t i) {
        if (i >= 3) throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
    // The pool must stay usable after a failed batch.
    std::vector<int> hits(8, 0);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

// ---------------------------------------------------------------------------
// The shard cut every round runner runs on (runtime::VertexShards).
// ---------------------------------------------------------------------------

/// Reports a thread count without starting a thread: the cut reads only
/// threads().
class FixedThreads final : public runtime::RoundExecutor {
 public:
  explicit FixedThreads(std::size_t threads) : threads_(threads) {}
  [[nodiscard]] std::size_t threads() const noexcept override { return threads_; }

 private:
  std::size_t threads_;
};

/// begin(0), then end(s) of every shard s.
std::vector<graph::Vertex> cut_points(graph::GraphView g, std::size_t threads,
                                      std::size_t granule) {
  FixedThreads ex(threads);
  const runtime::VertexShards shards(g, &ex, nullptr, granule);
  std::vector<graph::Vertex> points = {shards.begin(0)};
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (s > 0) {
      EXPECT_EQ(shards.begin(s), shards.end(s - 1)) << "shard " << s;
    }
    points.push_back(shards.end(s));
  }
  return points;
}

TEST(VertexShardsCut, OrderedContiguousCoverOnGranuleMultiples) {
  for (const std::size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 1000u}) {
    const graph::Graph graphs[] = {graph::path(n), graph::star(n), graph::Graph(n)};
    for (const graph::Graph& g : graphs) {
      for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
        for (const std::size_t granule : {1u, 64u}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(g.m()) +
                       " threads=" + std::to_string(threads) +
                       " granule=" + std::to_string(granule));
          const auto points = cut_points(g, threads, granule);
          ASSERT_EQ(points.size(), threads + 1);
          EXPECT_EQ(points.front(), 0u);
          EXPECT_EQ(points.back(), n);
          for (std::size_t s = 1; s < points.size(); ++s) {
            EXPECT_LE(points[s - 1], points[s]);
            EXPECT_TRUE(points[s] % granule == 0 || points[s] == n) << points[s];
          }
        }
      }
    }
  }
  const auto g = graph::path(10);
  const runtime::VertexShards sequential(g, nullptr, nullptr, 1);
  EXPECT_EQ(sequential.size(), 1u);
  EXPECT_EQ(sequential.end(0), 10u);
}

TEST(VertexShardsCut, EngineGranuleKeepsTheExecutorsDegreeCut) {
  // Granule 1 is the engine's.  The constants are the cuts the parallel
  // executor made for the engine when it still cut its own shards: the
  // spill-lane layout depends on the partition, so it must not move.  A star
  // puts half the weight on vertex 0; the power law is skewed throughout.
  using Points = std::vector<graph::Vertex>;
  const auto star = graph::star(40);
  const auto skewed = graph::random_powerlaw(300, 2.1, 4.0, 7);
  EXPECT_EQ(cut_points(star, 3, 1), (Points{0, 1, 21, 40}));
  EXPECT_EQ(cut_points(star, 8, 1), (Points{0, 1, 1, 4, 11, 18, 26, 33, 40}));
  EXPECT_EQ(cut_points(skewed, 3, 1), (Points{0, 19, 110, 300}));
  EXPECT_EQ(cut_points(skewed, 8, 1), (Points{0, 4, 11, 25, 51, 92, 148, 214, 300}));
}

TEST(Executors, FactorySemantics) {
  EXPECT_EQ(exec::make_executor(1)->threads(), 1u);
  EXPECT_EQ(exec::make_executor(3)->threads(), 3u);
  EXPECT_GE(exec::make_executor(0)->threads(), 1u);  // hardware concurrency

  setenv("AGC_THREADS", "5", 1);
  EXPECT_EQ(exec::default_threads(), 5u);
  // Read strictly: no letters, sign, trailing text or overflow (2^64).
  for (const char* bad : {"abc", "-1", "5x", "18446744073709551616"}) {
    setenv("AGC_THREADS", bad, 1);
    EXPECT_THROW((void)exec::default_threads(), std::invalid_argument) << bad;
  }
  unsetenv("AGC_THREADS");
  EXPECT_EQ(exec::default_threads(), 1u);
}

}  // namespace
