#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "agc/graph/view.hpp"
#include "agc/runtime/run_options.hpp"
#include "agc/runtime/run_report.hpp"
#include "agc/selfstab/ss_config.hpp"

/// \file stabilization.hpp
/// Every stabilization run: what it reports — recovery time, the first legal
/// round, the adjustment set, the first violation its watchdog saw — and the
/// two round runners that repair a self-stabilizing state.
///
/// On the engine, run_stabilization() settles fault-free until the task's
/// legality check holds, snapshots the outputs, and then repairs under the
/// RunOptions fault hooks until the check has held for confirm_rounds
/// rounds; resettle() is that repair alone, from the current state.  Each
/// task has one check and one outputs snapshot (coloring_spec, mis_spec,
/// line_spec), so a fault-free settle and a fault run decide "legal" alike.
///
/// The flat rounds (flat_resettle) evaluate SsConfig::step with no engine:
/// every round, every vertex reads its own RAM word and its neighbors' (each
/// truncated to color_bits(), as SsColoringProgram broadcasts it) and steps,
/// sharded through runtime::VertexShards like the locally-iterative sweep.
/// A final color is no fixed point here — a neighbor that lands on it resets
/// it — so no vertex is skipped.  resettle() runs the same repair on the
/// engine with SsColoringProgram, and the fault hooks need that path; on a
/// fault-free run both report the same colors in every round, rounds, first
/// legal round, violation, adjustment set, messages and total_bits
/// (tests/test_selfstab_flat.cpp pins it).  The engine runner and the task
/// specs live in runner.cpp, so a binary that links only flat_resettle
/// links none of the engine programs.

namespace agc::runtime {
class Engine;
}  // namespace agc::runtime

namespace agc::selfstab {

class SsLineConfig;

enum class ViolationKind : std::uint8_t {
  None = 0,
  MonochromaticEdge,  ///< edge {u, v} shares a color (`value`)
  OutOfPalette,       ///< vertex v holds color `value` outside the palette
  InvalidState,       ///< algorithm-specific predicate failed at v
  NeverSettled,       ///< phase 0 found no fault-free fixed point
  RoundCap,           ///< max_rounds ran out with the last check legal (no vertex)
};

[[nodiscard]] const char* to_string(ViolationKind k) noexcept;

struct Violation {
  ViolationKind kind = ViolationKind::None;
  std::uint64_t round = 0;  ///< round the violation was observed at
  graph::Vertex u = 0;
  graph::Vertex v = 0;
  std::uint64_t value = 0;

  [[nodiscard]] explicit operator bool() const noexcept {
    return kind != ViolationKind::None;
  }
};

/// "<kind> at round R (u=.. v=.. value=..)", or "round_cap at round R": the
/// round cap names no vertex.
[[nodiscard]] std::string to_string(const Violation& v);

struct StabilizationOutcome : runtime::RunReport {
  bool recovered = false;
  /// Round of the last fault event (the entry round if none fired).
  std::uint64_t last_fault_round = 0;
  /// Round at which the check first held after the last fault.
  std::uint64_t first_legal_round = 0;
  /// first_legal_round - last_fault_round: the paper's stabilization time.
  std::size_t recovery_rounds = 0;
  /// Vertices whose output differs from the pre-fault fixed point (vertices
  /// added mid-run always count).  Its size over |faulty set| approximates
  /// the adjustment radius.
  std::vector<graph::Vertex> adjusted;
  /// Repair rounds after which the check found a violation.
  std::size_t illegal_rounds = 0;
  /// Set when !recovered: what the watchdog saw when it gave up.
  Violation violation;
};

/// The legality of the self-stabilizing coloring held in `ram` (one RAM word
/// per vertex, read truncated): every color in the final palette and no
/// monochromatic edge.  Returns the first violation in vertex order — an
/// out-of-palette color at u, else the first edge {u, w} with w > u in u's
/// neighbor order — stamped with `round`, or none.
[[nodiscard]] Violation coloring_violation(graph::GraphView g, const SsConfig& cfg,
                                           std::span<const std::uint64_t> ram,
                                           std::uint64_t round);

/// When a repair counts as recovered and when it gives up; the base of
/// StabilizationSpec.
struct RecoverySpec {
  /// Watchdog: abort when this many rounds elapse after the last fault event
  /// without the check passing.
  std::size_t recovery_budget = 10'000;
  /// Consecutive legal rounds required to call the run recovered.
  std::size_t confirm_rounds = 8;
};

/// Repair the coloring in `ram` (one RAM word per vertex, vertex v's id is
/// v) on `g`: fault-free flat rounds until coloring_violation() finds none
/// for spec.confirm_rounds consecutive rounds — resettle() with
/// coloring_spec(), on the same state, without the engine.
///   * `round` is the caller's clock: the rounds this state has already run.
///     The outcome's rounds and the RoundEnd events count on from it, as
///     from Engine::rounds() on the engine path.
///   * The entry state anchors the clocks: already legal on entry, the run
///     recovers after the confirm window with recovery_rounds 0.
///   * The watchdog and opts.max_rounds end the run unrecovered, with the
///     last violation seen (InvalidState when no round ran).
///   * Once recovered, `adjusted` lists the vertices whose RAM word differs
///     from `baseline` (the snapshot taken before the faults), and every
///     vertex past its end.
///   * `ram` ends holding the last round's colors (the vector's buffer is
///     swapped each round, so spans into it go stale).
///   * opts.executor shards the rounds (bit-identical for every thread
///     count); opts.sink receives one RoundEnd per round with value = the
///     messages of that round's broadcast; opts.collect_phase_times books
///     the step pass as `receive`, the legality pass as `check` and the
///     wait for the slowest shard as `barrier`.  opts.model and
///     opts.congest_bits are ignored: one color_bits() word per edge and
///     direction fits every model the coloring runs in.
///   * Metrics in closed form, as the sweep books them: messages = rounds *
///     2m, total_bits = messages * color_bits(), max_edge_bits = rounds *
///     color_bits() (0 without edges) — the engine ledger's value whenever
///     some edge carried every round.
/// Throws std::invalid_argument when opts.adversary or opts.channel is set
/// (faults inside a run need the engine: resettle()) or when `ram`
/// does not hold one word per vertex.
[[nodiscard]] StabilizationOutcome flat_resettle(
    graph::GraphView g, std::vector<std::uint64_t>& ram, const SsConfig& cfg,
    const runtime::RunOptions& opts, const RecoverySpec& spec, std::uint64_t round,
    std::span<const std::uint64_t> baseline);

/// Legality check: ViolationKind::None means the configuration is legal;
/// anything else pinpoints the first violation found.  Must be pure in the
/// engine state (called once per round).
using CheckFn = std::function<Violation(runtime::Engine&)>;

/// Output snapshot used for the adjustment diff: one word per vertex
/// (color, packed color+status, ... — whatever "output" means for the task).
using OutputFn = std::function<std::vector<std::uint64_t>(runtime::Engine&)>;

/// The watchdog and the confirm window, plus the task's check and outputs.
struct StabilizationSpec : RecoverySpec {
  CheckFn check;
  OutputFn outputs;
};

/// Drive an installed engine to a legal configuration and measure what the
/// paper's theorems talk about.
///   * Phase 0 settles fault-free until spec.check holds, capped by
///     spec.recovery_budget and opts.max_rounds; otherwise the run ends
///     unrecovered with a NeverSettled violation.
///   * The outputs at that point are the baseline of the adjustment diff.
///   * Phase 1 is resettle()'s repair from there with the fault hooks live
///     (adversary between rounds, channel inside them), until the check has
///     held for spec.confirm_rounds consecutive rounds.  The round index
///     passed to FaultAdversary::inject counts from the start of phase 1, so
///     a PeriodicAdversary schedule is independent of the settle's length.
///   * With no fault hooks the settle's length is first_legal_round minus
///     the entry round, and `rounds` is the settle plus the confirm window.
///   * opts.max_rounds caps the engine rounds of both phases together.
///   * Every round of both phases steps through runtime::HookedRounds:
///     opts.sink receives one RunStart/RunEnd pair labelled opts.tag around
///     the call and a RoundEnd per round, Fault events come only from
///     phase 1, and opts.collect_phase_times folds the engine's phase timers,
///     the checks (under `check`) and the adversary (under `fault`) into the
///     outcome.  The engine's hooks are restored on return.
[[nodiscard]] StabilizationOutcome run_stabilization(
    runtime::Engine& engine, const runtime::RunOptions& opts,
    const StabilizationSpec& spec);

/// Incremental repair: phase 1 of run_stabilization() alone, started from
/// the engine's *current* (possibly illegal) state with no fault-free
/// settle.  This is the entry a long-lived caller uses once per mutation
/// epoch — mutate the live engine, then resettle() to drive it back to a
/// legal configuration without paying a full settle.
///
/// `baseline` supplies the pre-mutation output snapshot the adjustment diff
/// is computed against (capture spec.outputs(engine) *before* mutating; an
/// empty baseline counts every vertex as adjusted).  The recovery clock is
/// anchored at the call: when the state is already legal on entry the run
/// recovers in 0 rounds after the confirm window.  opts acts as in
/// run_stabilization(), RunStart/RunEnd bracket included.  For the coloring
/// with no fault hooks, flat_resettle() runs the same repair without the
/// engine.
[[nodiscard]] StabilizationOutcome resettle(
    runtime::Engine& engine, const runtime::RunOptions& opts,
    const StabilizationSpec& spec,
    const std::vector<std::uint64_t>& baseline);

/// The self-stabilizing coloring (SsColoringProgram; `cfg` must outlive the
/// spec).  Check: coloring_violation() on RAM word 0 of every vertex — every
/// color in the final palette and no monochromatic edge.  Outputs: RAM
/// word 0 of every vertex.
[[nodiscard]] StabilizationSpec coloring_spec(const SsConfig& cfg);

/// The self-stabilizing MIS (SsMisProgram; `cfg` must outlive the spec).
/// Check: the coloring's, then every vertex MIS with no MIS neighbor or
/// NotMIS with one — an Undecided vertex is an InvalidState with value 0.
/// Outputs: packed (color, status) per vertex.
[[nodiscard]] StabilizationSpec mis_spec(const SsConfig& cfg);

/// The line-graph simulation (SsLineProgram; `cfg` must outlive the spec).
/// Check: in edge_list() order, both replicas of every edge {u, w} agree
/// (InvalidState at u, w; value = w's replica) and its color is in the
/// final palette (OutOfPalette at u, w); then graph::is_proper_edge_coloring
/// (MonochromaticEdge) and, in maximal-matching mode,
/// graph::is_maximal_matching (InvalidState) — these two name no edge
/// (u = v = 0, value 0).  Outputs: an FNV-style hash of each host vertex's
/// replica words (RAM layout is degree-dependent, so a fixed-width digest
/// stands in for the variable-width output vector).
[[nodiscard]] StabilizationSpec line_spec(const SsLineConfig& cfg);

}  // namespace agc::selfstab
