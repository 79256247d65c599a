#include "agc/runtime/iterative.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "agc/obs/event_sink.hpp"
#include "agc/runtime/hooked_rounds.hpp"
#include "sweep.hpp"

namespace agc::runtime {

namespace {

/// Adapter: broadcasts the vertex's color, applies the rule on receipt.
/// Colors are mirrored into a shared snapshot vector so the runner can check
/// properness and convergence without touching program internals.
class RuleProgram final : public VertexProgram {
 public:
  RuleProgram(const IterativeRule& rule, Color initial, Color* mirror)
      : rule_(rule), color_(initial), mirror_(mirror) {
    *mirror_ = color_;
  }

  void on_send(const VertexEnv&, OutboxRef& out) override {
    out.broadcast(Word{color_, rule_.color_bits()});
  }

  void on_receive(const VertexEnv&, const InboxRef& in) override {
    color_ = rule_.step(color_, in.multiset());
    *mirror_ = color_;
  }

  /// The color is the whole volatile state: exposing it lets the unified
  /// RunOptions adversary corrupt iterative runs the same way it corrupts
  /// selfstab ones.  The runner resynchronizes the mirror after injection.
  std::span<std::uint64_t> ram() override { return {&color_, 1}; }

 private:
  const IterativeRule& rule_;
  Color color_;
  Color* mirror_;
};

/// Pull every program's color back into the mirror after the adversary may
/// have rewritten RAM behind the runner's back.
void resync_mirror(Engine& engine, std::vector<Color>& mirror) {
  for (graph::Vertex v = 0; v < engine.graph().n(); ++v) {
    const auto ram = engine.ram(v);
    if (!ram.empty()) mirror[v] = ram[0];
  }
}

/// The engine path: every vertex runs a RuleProgram on the round engine,
/// which the adversary and channel hooks act on through HookedRounds.
IterativeResult run_on_engine(graph::GraphView g, std::vector<Color> initial,
                              const IterativeRule& rule,
                              const IterativeOptions& opts) {
  IterativeResult result;
  result.colors = std::move(initial);

  Engine engine(g, Transport(opts.model, opts.congest_bits));
  if (opts.executor) engine.set_executor(opts.executor);

  std::vector<Color>& mirror = result.colors;
  engine.install([&](const VertexEnv& env) {
    if (env.id >= mirror.size()) {
      // The mirror (and the adversary resync) index by vertex id; growing the
      // vertex set mid-run is a selfstab-runner capability only.
      throw std::logic_error(
          "run_locally_iterative: adding vertices mid-run is unsupported");
    }
    return std::make_unique<RuleProgram>(rule, mirror[env.id], &mirror[env.id]);
  });
  HookedRounds rounds(engine, opts);
  obs::PhaseStats* const timers = rounds.timers();

  if (opts.check_proper_each_round) {
    obs::ScopedPhaseTimer timer(timers, obs::Phase::Check);
    result.proper_each_round = graph::is_proper_coloring(engine.graph(), mirror);
  }
  if (opts.on_round) {
    obs::ScopedPhaseTimer timer(timers, obs::Phase::Observer);
    opts.on_round(0, mirror);
  }

  auto all_final = [&] {
    return std::all_of(mirror.begin(), mirror.end(),
                       [&](Color c) { return rule.is_final(c); });
  };

  while (!all_final() && result.rounds < opts.max_rounds) {
    // Channel faults mutate messages, not RAM: the programs already consumed
    // the faulted words, so only adversary events leave the mirror stale.
    if (rounds.step().adversary > 0) resync_mirror(engine, mirror);
    ++result.rounds;
    if (opts.check_proper_each_round && result.proper_each_round) {
      obs::ScopedPhaseTimer timer(timers, obs::Phase::Check);
      // The adversary may have churned edges: judge against the live graph.
      result.proper_each_round =
          graph::is_proper_coloring(engine.graph(), mirror);
    }
    if (opts.on_round) {
      obs::ScopedPhaseTimer timer(timers, obs::Phase::Observer);
      opts.on_round(result.rounds, mirror);
    }
  }
  result.converged = all_final();
  rounds.finish(result);
  return result;
}

}  // namespace

IterativeResult run_locally_iterative(graph::GraphView g,
                                      std::vector<Color> initial,
                                      const IterativeRule& rule,
                                      const IterativeOptions& opts) {
  if (initial.size() != g.n()) {
    throw std::invalid_argument(
        "run_locally_iterative: " + std::to_string(initial.size()) +
        " initial colors for " + std::to_string(g.n()) + " vertices");
  }
  const std::uint64_t t0 = obs::monotonic_ns();
  if (opts.sink != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunStart;
    ev.label = opts.tag;
    ev.value = g.n();
    opts.sink->emit(ev);
  }
  // Hook-free runs take the sweep; it reproduces every observable of the
  // engine path, which stays the home of faults.
  const bool sweep = opts.adversary == nullptr && opts.channel == nullptr;
  IterativeResult result =
      sweep ? detail::sweep_locally_iterative(g, std::move(initial), rule, opts)
            : run_on_engine(g, std::move(initial), rule, opts);
  result.wall_ns = obs::monotonic_ns() - t0;
  if (opts.sink != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunEnd;
    ev.round = result.rounds;
    ev.label = opts.tag;
    ev.value = result.rounds;
    ev.ns = result.wall_ns;
    opts.sink->emit(ev);
  }
  return result;
}

IterativeResult run_stages(graph::GraphView g, std::vector<Color> initial,
                           std::span<const IterativeRule* const> stages,
                           const IterativeOptions& opts) {
  IterativeResult total;
  total.colors = std::move(initial);
  total.converged = true;
  std::size_t index = 0;
  for (const IterativeRule* stage : stages) {
    if (opts.sink != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::StageStart;
      ev.round = total.rounds;
      ev.label = opts.tag;
      ev.value = index;
      opts.sink->emit(ev);
    }
    IterativeResult r = run_locally_iterative(g, std::move(total.colors), *stage, opts);
    total.colors = std::move(r.colors);
    total.proper_each_round = total.proper_each_round && r.proper_each_round;
    // Each stage runs a fresh engine with its own per-edge ledger, so the
    // cross-stage max_edge_bits is the max over stages, not their sum
    // (RunReport::absorb delegates to Metrics::merge, which does exactly that).
    total.absorb(r);
    if (opts.sink != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::StageEnd;
      ev.round = total.rounds;
      ev.label = opts.tag;
      ev.value = r.rounds;
      opts.sink->emit(ev);
    }
    ++index;
    if (!total.converged) break;
  }
  return total;
}

}  // namespace agc::runtime
