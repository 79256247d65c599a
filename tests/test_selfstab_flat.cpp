// The self-stabilizing coloring's flat rounds (selfstab::flat_resettle)
// against the engine path they replace for fault-free repairs:
// SsColoringProgram driven by faultlab::resettle.  Both runs start from the
// same RAM words on the same graph and must agree on the colors after every
// round, the RoundEnd stream, rounds, the clocks, the violation, the
// adjustment set, messages and total_bits — in both palette modes, from
// reset, arbitrary and cloned states, across churn between runs, at 1, 2
// and 8 threads.  Also pins SsConfig::step's neighbor-order contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "agc/exec/executor.hpp"
#include "agc/faultlab/harness.hpp"
#include "agc/graph/generators.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/stabilization.hpp"

namespace {

using namespace agc;
using graph::Vertex;
using selfstab::PaletteMode;
using selfstab::StabilizationOutcome;

std::uint64_t digest(std::span<const std::uint64_t> words) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t w : words) h = (h ^ w) * 1099511628211ULL;
  return h;
}

/// Records every RoundEnd as (round, value, digest of the colors then).
class RoundRecorder final : public obs::EventSink {
 public:
  explicit RoundRecorder(std::function<std::uint64_t()> colors)
      : colors_(std::move(colors)) {}
  void emit(const obs::Event& ev) override {
    if (ev.kind != obs::EventKind::RoundEnd) return;
    rows.push_back(std::to_string(ev.round) + ':' + std::to_string(ev.value) + ':' +
                   std::to_string(colors_()));
  }
  std::vector<std::string> rows;

 private:
  std::function<std::uint64_t()> colors_;
};

/// How a run starts and how long it may go.
struct Budget {
  std::size_t confirm_rounds = 2;
  std::size_t recovery_budget = 10'000;
  std::size_t max_rounds = 1'000'000;
};

/// One repair as both paths saw it.
struct Observed {
  std::vector<std::string> rounds;  ///< RoundEnd rows
  StabilizationOutcome out;
  std::vector<std::uint64_t> ram;   ///< RAM words after the run
};

/// One mutable instance mirrored on both paths: an engine running
/// SsColoringProgram and a Graph plus RAM vector for the flat rounds.
class Twin {
 public:
  /// `id_space` 0 = twice the vertices, plus headroom for added ones.
  Twin(graph::Graph g, PaletteMode mode, std::size_t threads, std::uint64_t id_space = 0)
      : n_bound_(id_space != 0 ? id_space : 2 * g.n() + 8),
        delta_bound_(2 * std::max<std::size_t>(1, g.max_degree()) + 4),
        cfg_(n_bound_, delta_bound_, mode),
        engine_(g, runtime::Transport(runtime::Model::LOCAL),
                runtime::EngineOptions{.id_space_factor = 1,
                                       .delta_bound = delta_bound_,
                                       .n_bound = n_bound_}),
        graph_(std::move(g)),
        threads_(threads) {
    engine_.install(selfstab::ss_coloring_factory(cfg_));
    ram_.resize(graph_.n());
    for (Vertex v = 0; v < graph_.n(); ++v) ram_[v] = cfg_.reset_color(v);
  }

  [[nodiscard]] const selfstab::SsConfig& cfg() const { return cfg_; }
  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  [[nodiscard]] const std::vector<std::uint64_t>& ram() const { return ram_; }

  void set_ram(Vertex v, std::uint64_t word) {
    ram_[v] = word;
    engine_.ram(v)[0] = word;
  }

  // --- churn, applied to both paths ---------------------------------------
  void add_edge(Vertex u, Vertex v) {
    if (u == v || graph_.has_edge(u, v) || graph_.degree(u) >= delta_bound_ ||
        graph_.degree(v) >= delta_bound_) {
      return;
    }
    graph_.add_edge(u, v);
    engine_.add_edge(u, v);
  }
  void remove_edge(Vertex u, Vertex v) {
    graph_.remove_edge(u, v);
    engine_.remove_edge(u, v);
  }
  void add_vertex() {
    const Vertex v = graph_.add_vertex();
    ASSERT_EQ(engine_.add_vertex(), v);
    ram_.push_back(cfg_.reset_color(v));
  }
  /// Drop v's edges; v keeps its color.
  void isolate(Vertex v) {
    const std::vector<Vertex> nbrs(graph_.neighbors(v).begin(), graph_.neighbors(v).end());
    for (const Vertex u : nbrs) remove_edge(u, v);
  }
  /// Drop v's edges and restart it (the service's RemoveVertex).
  void reset(Vertex v) {
    graph_.isolate(v);
    engine_.reset_vertex(v);
    ram_[v] = cfg_.reset_color(v);
  }

  /// faultlab::resettle with coloring_check on the engine.
  Observed engine_run(const Budget& b, const std::vector<std::uint64_t>& baseline) {
    RoundRecorder rec([this] { return digest(selfstab::current_colors(engine_)); });
    runtime::RunOptions opts;
    opts.sink = &rec;
    opts.max_rounds = b.max_rounds;
    faultlab::StabilizationSpec spec;
    spec.check = faultlab::coloring_check(cfg_);
    spec.outputs = faultlab::coloring_outputs();
    spec.recovery_budget = b.recovery_budget;
    spec.confirm_rounds = b.confirm_rounds;
    Observed o;
    o.out = faultlab::resettle(engine_, opts, spec, baseline);
    o.rounds = std::move(rec.rows);
    o.ram = selfstab::current_colors(engine_);
    return o;
  }

  /// selfstab::flat_resettle on the mirror, at the twin's thread count.
  Observed flat_run(const Budget& b, const std::vector<std::uint64_t>& baseline) {
    RoundRecorder rec([this] { return digest(ram_); });
    runtime::RunOptions opts;
    opts.sink = &rec;
    opts.max_rounds = b.max_rounds;
    opts.executor = exec::make_executor(threads_);
    const selfstab::RecoverySpec spec{.recovery_budget = b.recovery_budget,
                                      .confirm_rounds = b.confirm_rounds};
    Observed o;
    o.out = selfstab::flat_resettle(graph_, ram_, cfg_, opts, spec, clock_, baseline);
    clock_ += o.out.rounds;
    o.rounds = std::move(rec.rows);
    o.ram = ram_;
    return o;
  }

 private:
  std::uint64_t n_bound_;
  std::size_t delta_bound_;
  selfstab::SsConfig cfg_;
  runtime::Engine engine_;
  graph::Graph graph_;
  std::vector<std::uint64_t> ram_;
  std::uint64_t clock_ = 0;
  std::size_t threads_;
};

void expect_same(const Observed& flat, const Observed& eng, const std::string& where) {
  EXPECT_EQ(flat.rounds, eng.rounds) << where;
  EXPECT_EQ(flat.out.rounds, eng.out.rounds) << where;
  EXPECT_EQ(flat.out.recovered, eng.out.recovered) << where;
  EXPECT_EQ(flat.out.converged, eng.out.converged) << where;
  EXPECT_EQ(flat.out.last_fault_round, eng.out.last_fault_round) << where;
  EXPECT_EQ(flat.out.first_legal_round, eng.out.first_legal_round) << where;
  EXPECT_EQ(flat.out.recovery_rounds, eng.out.recovery_rounds) << where;
  EXPECT_EQ(flat.out.illegal_rounds, eng.out.illegal_rounds) << where;
  EXPECT_EQ(flat.out.violation.kind, eng.out.violation.kind) << where;
  EXPECT_EQ(flat.out.violation.round, eng.out.violation.round) << where;
  EXPECT_EQ(flat.out.violation.u, eng.out.violation.u) << where;
  EXPECT_EQ(flat.out.violation.v, eng.out.violation.v) << where;
  EXPECT_EQ(flat.out.violation.value, eng.out.violation.value) << where;
  EXPECT_EQ(flat.out.adjusted, eng.out.adjusted) << where;
  EXPECT_EQ(flat.out.metrics.rounds, eng.out.metrics.rounds) << where;
  EXPECT_EQ(flat.out.metrics.messages, eng.out.metrics.messages) << where;
  EXPECT_EQ(flat.out.metrics.total_bits, eng.out.metrics.total_bits) << where;
  EXPECT_EQ(flat.ram, eng.ram) << where;
}

enum class Start { Reset, Arbitrary, Cloned };

const char* name(Start s) {
  switch (s) {
    case Start::Reset: return "reset";
    case Start::Arbitrary: return "arbitrary";
    case Start::Cloned: return "cloned";
  }
  return "?";
}

struct Instance {
  const char* name;
  std::function<graph::Graph()> build;
};

const std::vector<Instance>& instances() {
  static const std::vector<Instance> list = {
      {"regular", [] { return graph::random_regular(240, 8, 3); }},
      {"gnp", [] { return graph::random_gnp(250, 0.03, 5); }},
      {"powerlaw", [] { return graph::random_powerlaw(260, 2.5, 6.0, 7); }},
      {"path", [] { return graph::path(70); }},
      {"empty", [] { return graph::Graph(0); }},
      {"isolated", [] {
         graph::Graph g = graph::random_regular(60, 4, 9);
         for (Vertex v = 0; v < 60; ++v) g.add_vertex();  // 60 isolated vertices
         return g;
       }},
  };
  return list;
}

/// Seed the twin's RAM words.  Arbitrary words cover the whole 64-bit range
/// and values just past span(); cloned ones copy a neighbor's settled color.
void seed_state(Twin& t, Start start, std::uint64_t seed) {
  graph::Rng rng(seed);
  const std::size_t n = t.graph().n();
  if (start == Start::Arbitrary) {
    for (Vertex v = 0; v < n; ++v) {
      const std::uint64_t pick = rng.below(4);
      const std::uint64_t span = t.cfg().span();
      t.set_ram(v, pick == 0   ? rng.next()
                   : pick == 1 ? span + rng.below(64)
                               : rng.below(span));
    }
  } else if (start == Start::Cloned) {
    for (Vertex v = 0; v < n; ++v) {
      const auto nbrs = t.graph().neighbors(v);
      if (!nbrs.empty() && rng.below(3) == 0) {
        t.set_ram(v, t.ram()[nbrs[rng.below(nbrs.size())]]);
      }
    }
  }
}

/// A round of churn on both paths, seeded.
void churn(Twin& t, std::uint64_t seed) {
  graph::Rng rng(seed);
  const auto n = static_cast<Vertex>(t.graph().n());
  if (n < 2) {
    t.add_vertex();
    t.add_vertex();
    t.add_edge(0, 1);
    return;
  }
  for (int i = 0; i < 6; ++i) {
    t.add_edge(static_cast<Vertex>(rng.below(n)), static_cast<Vertex>(rng.below(n)));
  }
  for (int i = 0; i < 4; ++i) {
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto nbrs = t.graph().neighbors(u);
    if (!nbrs.empty()) t.remove_edge(u, nbrs[rng.below(nbrs.size())]);
  }
  t.add_vertex();
  t.add_edge(n, static_cast<Vertex>(rng.below(n)));
  t.isolate(static_cast<Vertex>(rng.below(n)));
  t.reset(static_cast<Vertex>(rng.below(n)));
  // Clone a neighbor's color into a few vertices: conflicts to repair.
  for (int i = 0; i < 3; ++i) {
    const auto v = static_cast<Vertex>(rng.below(n));
    const auto nbrs = t.graph().neighbors(v);
    if (!nbrs.empty()) t.set_ram(v, t.ram()[nbrs[0]]);
  }
}

TEST(FlatRounds, EqualTheEngineFromEveryStartAcrossChurnAndThreads) {
  for (const PaletteMode mode : {PaletteMode::ODelta, PaletteMode::ExactDeltaPlusOne}) {
    for (const Instance& inst : instances()) {
      for (const Start start : {Start::Reset, Start::Arbitrary, Start::Cloned}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
          const std::string where =
              std::string(mode == PaletteMode::ODelta ? "odelta " : "exact ") +
              inst.name + ' ' + name(start) + " threads=" + std::to_string(threads);
          Twin t(inst.build(), mode, threads);
          std::uint64_t seed = 17;
          if (start == Start::Cloned) {
            // Settle first so the clones copy final colors.
            const Observed e = t.engine_run({}, {});
            const Observed f = t.flat_run({}, {});
            expect_same(f, e, where + " settle");
          }
          seed_state(t, start, ++seed);
          std::vector<std::uint64_t> baseline = t.ram();
          // Repair, churn, repair: the epoch shape of the service, with the
          // confirm window varied and the previous colors as the baseline.
          for (const std::size_t confirm : {2u, 0u, 8u}) {
            const Budget b{.confirm_rounds = confirm};
            const Observed e = t.engine_run(b, baseline);
            const Observed f = t.flat_run(b, baseline);
            expect_same(f, e, where + " confirm=" + std::to_string(confirm));
            ASSERT_TRUE(f.out.recovered) << where;
            baseline = t.ram();
            churn(t, ++seed);
          }
        }
      }
    }
  }
}

TEST(FlatRounds, WatchdogAndRoundCapMatchTheEngine) {
  // In a 2^40 ID space, reset states need several Linial rounds before any
  // color is final: the watchdog (budget 1) and max_rounds (2) both end the
  // run with the last violation seen, and max_rounds 0 reports InvalidState.
  for (const PaletteMode mode : {PaletteMode::ODelta, PaletteMode::ExactDeltaPlusOne}) {
    for (const std::size_t threads : {1u, 8u}) {
      for (const Budget b : {Budget{.recovery_budget = 1}, Budget{.max_rounds = 2},
                             Budget{.max_rounds = 0}}) {
        Twin t(graph::random_gnp(200, 0.04, 11), mode, threads, 1ULL << 40);
        const Observed e = t.engine_run(b, {});
        const Observed f = t.flat_run(b, {});
        const std::string where = "threads=" + std::to_string(threads) +
                                  " budget=" + std::to_string(b.recovery_budget) +
                                  " max_rounds=" + std::to_string(b.max_rounds);
        expect_same(f, e, where);
        EXPECT_FALSE(f.out.recovered) << where;
        EXPECT_TRUE(f.out.violation) << where;
      }
    }
  }
}

TEST(FlatRounds, RejectFaultHooksAndMismatchedRam) {
  const graph::Graph g = graph::random_regular(64, 4, 1);
  const selfstab::SsConfig cfg(g.n(), 8, PaletteMode::ODelta);
  std::vector<std::uint64_t> ram(g.n(), 0);
  struct Idle final : runtime::FaultAdversary {
    std::size_t inject(runtime::Engine&, std::size_t) override { return 0; }
  } idle;
  runtime::RunOptions opts;
  opts.adversary = &idle;
  EXPECT_THROW((void)selfstab::flat_resettle(g, ram, cfg, opts, {}, 0, {}),
               std::invalid_argument);
  ram.pop_back();
  EXPECT_THROW((void)selfstab::flat_resettle(g, ram, cfg, {}, {}, 0, {}),
               std::invalid_argument);
}

TEST(SsConfigStep, IgnoresNeighborOrder) {
  // From arbitrary and cloned states, every vertex's step on its real
  // neighborhood presented sorted, reversed and in three seeded shuffles,
  // in every round until the coloring settles.
  const graph::Graph g = graph::random_gnp(300, 0.04, 23);
  for (const PaletteMode mode : {PaletteMode::ODelta, PaletteMode::ExactDeltaPlusOne}) {
    const selfstab::SsConfig cfg(g.n(), 2 * g.max_degree(), mode);
    graph::Rng rng(mode == PaletteMode::ODelta ? 1 : 2);
    std::vector<std::uint64_t> col(g.n());
    for (Vertex v = 0; v < g.n(); ++v) {
      col[v] = rng.below(2) == 0 ? rng.below(cfg.span() + 50) : cfg.reset_color(v);
    }
    std::size_t steps = 0;
    std::vector<std::uint64_t> base;
    std::vector<std::uint64_t> perm;
    for (int round = 0; round < 200; ++round) {
      std::vector<std::uint64_t> next(g.n());
      for (Vertex v = 0; v < g.n(); ++v) {
        base.clear();
        for (const Vertex u : g.neighbors(v)) base.push_back(cfg.truncate(col[u]));
        std::sort(base.begin(), base.end());
        const std::uint64_t own = cfg.truncate(col[v]);
        perm = base;
        const std::uint64_t want = cfg.step(v, own, perm);
        perm.assign(base.rbegin(), base.rend());
        EXPECT_EQ(cfg.step(v, own, perm), want) << "reversed, vertex " << v;
        for (int k = 0; k < 3; ++k) {
          perm = base;
          for (std::size_t i = perm.size(); i > 1; --i) {
            std::swap(perm[i - 1], perm[rng.below(i)]);
          }
          EXPECT_EQ(cfg.step(v, own, perm), want) << "shuffle " << k << ", vertex " << v;
        }
        next[v] = want;
        ++steps;
      }
      const bool settled = next == col;
      col = std::move(next);
      if (settled) break;
    }
    EXPECT_FALSE(selfstab::coloring_violation(g, cfg, col, 0));
    EXPECT_GT(steps, g.n());
  }
}

}  // namespace
