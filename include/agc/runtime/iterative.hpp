#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "agc/graph/checks.hpp"
#include "agc/graph/graph.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/run_options.hpp"
#include "agc/runtime/run_report.hpp"

/// \file iterative.hpp
/// The locally-iterative harness.
///
/// A locally-iterative algorithm maintains a proper coloring phi_1, phi_2,...
/// where each vertex computes its next color *only* from the colors in its
/// 1-hop neighborhood (Szegedy-Vishwanathan [62]).  An IterativeRule is the
/// per-round update function; crucially it receives the neighbors' colors as
/// a sender-anonymous multiset in unspecified order, which makes every rule
/// expressed this way directly executable in the SET-LOCAL model of [33]
/// (Section 1.2.3 of the paper).  The multiset arrives in the runner's
/// scratch buffer: a rule may reorder or overwrite it, and one that needs
/// order sorts it itself.  Luby and the coloring-to-MIS wave, whose
/// broadcast words are not colorings, run as rules too.
///
/// The runner evaluates the rule on one of two backends, chosen only from
/// the hooks the caller already passes (docs/EXEC.md):
///
///   * the sweep — no adversary and no channel hook: one double-buffered
///     pass per round over two byte-lane color buffers (packed.hpp),
///     stepping only vertices whose color is not final, each on its
///     neighbors' colors gathered into a span of degree(v) in one call, in
///     64-vertex-aligned shards the executor (none = sequential) runs
///     through RoundExecutor::run_shards;
///   * the round engine — otherwise: one RuleProgram per vertex broadcasting
///     its color each round, which the fault hooks act on.
///
/// Both report the same colors, rounds, convergence, per-round properness,
/// on_round calls, RoundEnd events and transport errors.  The sweep books
/// the engine's accounting of a SET-LOCAL broadcast in closed form:
/// messages = rounds * sum of degrees, total_bits = messages * color_bits(),
/// max_edge_bits = rounds * color_bits() (0 without edges).  Both backends
/// check every round's coloring for properness — the defining invariant of
/// the class.  The engine checks every edge after each round.  The sweep
/// checks round r inside round r + 1's step pass, on the neighbor colors
/// that pass gathers anyway, and reads the last round's changes once at the
/// end of the run.

namespace agc::runtime {

using graph::Color;

/// What a step may read besides the colors: the vertex's own ID (the
/// paper's ROM) and the round clock, the 0-based round within the run.  A
/// SET-LOCAL rule may read both but never a neighbor's ID; deterministic
/// rules ignore them.
struct StepContext {
  graph::Vertex id = 0;
  std::uint64_t round = 0;
};

class IterativeRule {
 public:
  virtual ~IterativeRule() = default;

  /// The next color of vertex `ctx.id`, currently colored `own`, whose
  /// neighbors' colors form the multiset `neighbors`, in round `ctx.round`.
  /// The order of `neighbors` is unspecified, and the result must not depend
  /// on it: a pure function of (ctx, own, the multiset).  The buffer is the
  /// runner's scratch, refilled for every step, so the rule may reorder or
  /// overwrite it — a rule that needs order sorts it in place.
  [[nodiscard]] virtual Color step(StepContext ctx, Color own,
                                   std::span<Color> neighbors) const = 0;

  /// True once a color has reached its final form.  Contract: a final
  /// color is a fixed point of step() — step(c, N) == c for every
  /// neighborhood N that can still occur — so a final vertex never changes
  /// again.  The sweep relies on it to skip final vertices, and the tests
  /// pin it for every rule the library runs (tests/test_sweep.cpp).
  [[nodiscard]] virtual bool is_final(Color c) const = 0;

  /// Declared width of a color broadcast, for transport accounting.
  [[nodiscard]] virtual std::uint32_t color_bits() const = 0;
};

/// Harness configuration: the unified RunOptions core (model, congest_bits,
/// max_rounds, executor, adversary, observability hooks) plus the fields only
/// the locally-iterative harness understands.  Implicitly constructible from
/// a bare RunOptions so a shared RunOptions can parameterize any entry point.
struct IterativeOptions : RunOptions {
  IterativeOptions() = default;
  /*implicit*/ IterativeOptions(const RunOptions& base) : RunOptions(base) {}

  /// Assert (via the result flag) that every intermediate coloring is proper.
  bool check_proper_each_round = true;
  /// Observer invoked after every round with the current coloring (round 0 =
  /// the initial coloring, before any step).  Used by the trace recorder.
  std::function<void(std::size_t round, std::span<const Color>)> on_round;
};

/// RunReport core (rounds, converged, metrics, telemetry) plus the coloring
/// itself and the harness's defining invariant flag.
struct IterativeResult : RunReport {
  std::vector<Color> colors;
  bool proper_each_round = true;   ///< locally-iterative invariant held
};

/// Run `rule` from the initial coloring (one color per vertex; throws
/// std::invalid_argument otherwise) until every color is final.
[[nodiscard]] IterativeResult run_locally_iterative(graph::GraphView g,
                                                    std::vector<Color> initial,
                                                    const IterativeRule& rule,
                                                    const IterativeOptions& opts = {});

}  // namespace agc::runtime
