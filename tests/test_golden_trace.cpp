// Golden execution traces of the round engine's message path.
//
// Each scenario runs a full algorithm through the engine and folds every
// observable the message path can influence — final colorings / RAM, round
// counts, and Metrics (messages, total_bits, max_edge_bits) — into one
// FNV-1a hash.  The expected constants below were generated from the
// nested-vector mailbox engine BEFORE the CSR mailbox-arena refactor, so any
// behavioral drift in the send/validate/deliver/receive path (contents,
// order, accounting, model enforcement) fails loudly.  Every scenario is also
// checked across executor thread counts {1, 2, 8}, pinning the exec
// subsystem's shard-determinism contract at the same time.
//
// Regenerate (only when an *intentional* behavior change lands):
//   AGC_PRINT_GOLDEN=1 ./tests/test_golden_trace
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "agc/coloring/pipeline.hpp"
#include "agc/edge/edge_coloring.hpp"
#include "agc/exec/executor.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/ss_mis.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {

using namespace agc;

class Fnv {
 public:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void mix_metrics(const runtime::Metrics& m) {
    mix(m.rounds);
    mix(m.messages);
    mix(m.total_bits);
    mix(m.max_edge_bits);
  }
  template <typename T>
  void mix_all(const std::vector<T>& xs) {
    mix(xs.size());
    for (const auto& x : xs) mix(static_cast<std::uint64_t>(x));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

bool print_golden() { return std::getenv("AGC_PRINT_GOLDEN") != nullptr; }

void check(const char* scenario, std::uint64_t got, std::uint64_t want) {
  if (print_golden()) {
    std::printf("    {\"%s\", 0x%016llxULL},\n", scenario,
                static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, want) << scenario;
}

std::vector<graph::Graph> golden_graphs() {
  std::vector<graph::Graph> gs;
  gs.push_back(graph::random_gnp(240, 0.05, 3));
  gs.push_back(graph::random_regular(300, 8, 7));
  gs.push_back(graph::grid(12, 18));
  gs.push_back(graph::cycle(17));
  return gs;
}

// The full (Delta+1)-pipeline per model/graph/thread count.  LOCAL, CONGEST
// and SET-LOCAL all route through the same mailbox path with different
// validation; BIT is covered by the edge-coloring scenario below.
TEST(GoldenTrace, PipelineAcrossModels) {
  // One constant per (graph, model); the three models happen to agree on each
  // graph because they differ only in validation, never in message content.
  constexpr std::uint64_t kWant[] = {
      0x31fc83a5d43c3583ULL, 0x31fc83a5d43c3583ULL, 0x31fc83a5d43c3583ULL,
      0xf132abfa092f199cULL, 0xf132abfa092f199cULL, 0xf132abfa092f199cULL,
      0x259f0e259495a0ccULL, 0x259f0e259495a0ccULL, 0x259f0e259495a0ccULL,
      0x73071641ae0dec8cULL, 0x73071641ae0dec8cULL, 0x73071641ae0dec8cULL,
  };
  std::size_t scenario = 0;
  for (const auto& g : golden_graphs()) {
    for (const runtime::Model model :
         {runtime::Model::SET_LOCAL, runtime::Model::LOCAL,
          runtime::Model::CONGEST}) {
      std::uint64_t first = 0;
      for (const std::size_t threads : {1, 2, 8}) {
        coloring::PipelineOptions opts;
        opts.iter.model = model;
        opts.iter.executor = exec::make_executor(threads);
        const auto rep = coloring::color_delta_plus_one(g, opts);
        ASSERT_TRUE(rep.converged);
        ASSERT_TRUE(rep.proper);
        Fnv h;
        h.mix_all(rep.colors);
        h.mix(rep.rounds);
        h.mix(rep.palette);
        h.mix(static_cast<std::uint64_t>(rep.proper_each_round));
        h.mix_metrics(rep.metrics);
        if (threads == 1) {
          first = h.value();
          char name[64];
          std::snprintf(name, sizeof name, "pipeline[%zu]", scenario);
          check(name, h.value(), kWant[scenario]);
        } else {
          EXPECT_EQ(h.value(), first)
              << "thread-count divergence, scenario " << scenario
              << " threads " << threads;
        }
      }
      ++scenario;
    }
  }
}

// The CONGEST and Bit-Round edge-coloring pipeline: multi-word and 1-bit
// messages, per-port directed sends, max_edge_bits accounting.
TEST(GoldenTrace, EdgeColoringCongestAndBit) {
  const auto g = graph::random_regular(80, 6, 5);
  constexpr std::uint64_t kWantCongest = 0x33827a44935e31feULL;
  constexpr std::uint64_t kWantBit = 0xca0f1388f5b375a6ULL;
  for (const bool bit_round : {false, true}) {
    std::uint64_t first = 0;
    for (const std::size_t threads : {1, 2, 8}) {
      edge::EdgeColoringOptions opts;
      opts.exact = true;
      opts.bit_round = bit_round;
      opts.executor = exec::make_executor(threads);
      const auto res = edge::color_edges_distributed(g, opts);
      ASSERT_TRUE(res.proper);
      Fnv h;
      h.mix_all(res.colors);
      h.mix(res.rounds);
      h.mix(res.palette);
      h.mix_metrics(res.metrics);
      if (threads == 1) {
        first = h.value();
        check(bit_round ? "edge_bit" : "edge_congest", h.value(),
              bit_round ? kWantBit : kWantCongest);
      } else {
        EXPECT_EQ(h.value(), first) << "bit_round=" << bit_round;
      }
    }
  }
}

// A fault-adversary trajectory over the self-stabilizing MIS: RAM corruption,
// worst-case cloning, and edge churn between stabilization epochs, each
// settled by selfstab::run_stabilization.  Hashes the settle's length and the
// full RAM of every vertex after every epoch.
TEST(GoldenTrace, SelfStabMisTrajectory) {
  constexpr std::uint64_t kWant = 0xd27da579be8ba4a4ULL;
  const std::size_t delta = 9;
  const auto g = graph::random_regular(150, 6, 11);
  selfstab::SsConfig cfg(g.n(), delta, selfstab::PaletteMode::ExactDeltaPlusOne);
  std::uint64_t first = 0;
  for (const std::size_t threads : {1, 2, 8}) {
    runtime::EngineOptions eo;
    eo.delta_bound = delta;
    runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
    engine.set_executor(exec::make_executor(threads));
    engine.install(selfstab::ss_mis_factory(cfg));
    selfstab::StabilizationSpec spec = selfstab::mis_spec(cfg);
    spec.recovery_budget = 100000;
    runtime::Adversary adv(123);
    Fnv h;
    for (int epoch = 0; epoch < 3; ++epoch) {
      if (epoch > 0) {
        adv.corrupt_random(engine, 10, cfg.span());
        adv.clone_neighbor(engine, 5);
        adv.churn_edges(engine, 4, 4, delta);
      }
      const std::uint64_t start = engine.rounds();
      const auto rep = selfstab::run_stabilization(engine, {}, spec);
      ASSERT_TRUE(rep.recovered);
      h.mix(rep.first_legal_round - start);
      for (graph::Vertex v = 0; v < engine.graph().n(); ++v) {
        for (const std::uint64_t w : engine.program(v).ram()) h.mix(w);
      }
      h.mix_metrics(engine.metrics());
    }
    if (threads == 1) {
      first = h.value();
      check("ss_mis_trajectory", h.value(), kWant);
    } else {
      EXPECT_EQ(h.value(), first) << "threads " << threads;
    }
  }
}

// The LOCAL-model line-graph simulation (multi-word messages per port — the
// spill path of the arena) through maximal matching stabilization.
TEST(GoldenTrace, SelfStabLineMatching) {
  constexpr std::uint64_t kWant = 0xa18924112189721fULL;
  const auto g = graph::random_gnp(60, 0.08, 21);
  selfstab::SsLineConfig cfg(g.n(), g.max_degree(),
                             selfstab::LineTask::MaximalMatching);
  std::uint64_t first = 0;
  for (const std::size_t threads : {1, 2, 8}) {
    runtime::EngineOptions eo;
    eo.delta_bound = g.max_degree();
    runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
    engine.set_executor(exec::make_executor(threads));
    engine.install(selfstab::ss_line_factory(cfg));
    auto spec = selfstab::line_spec(cfg);
    spec.recovery_budget = 100000;
    const auto rep = selfstab::run_stabilization(engine, {}, spec);
    ASSERT_TRUE(rep.recovered);
    Fnv h;
    h.mix(rep.first_legal_round);
    for (graph::Vertex v = 0; v < engine.graph().n(); ++v) {
      for (const std::uint64_t w : engine.program(v).ram()) h.mix(w);
    }
    h.mix_metrics(engine.metrics());
    if (threads == 1) {
      first = h.value();
      check("ss_line_matching", h.value(), kWant);
    } else {
      EXPECT_EQ(h.value(), first) << "threads " << threads;
    }
  }
}

}  // namespace
