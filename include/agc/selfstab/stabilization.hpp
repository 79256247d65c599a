#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "agc/graph/view.hpp"
#include "agc/runtime/run_options.hpp"
#include "agc/runtime/run_report.hpp"
#include "agc/selfstab/ss_config.hpp"

/// \file stabilization.hpp
/// What a stabilization run reports — recovery time, the first legal round,
/// the adjustment set, the first violation its watchdog saw — and the flat
/// rounds of the self-stabilizing coloring, which repair a coloring whose
/// faults all landed before the run.
///
/// The flat rounds evaluate SsConfig::step with no engine: every round,
/// every vertex reads its own RAM word and its neighbors' (each truncated to
/// color_bits(), as SsColoringProgram broadcasts it) and steps, sharded
/// through runtime::VertexShards like the locally-iterative sweep.  A final
/// color is no fixed point here — a neighbor that lands on it resets it — so
/// no vertex is skipped.  faultlab::resettle runs the same repair on the
/// engine with SsColoringProgram, and the fault hooks need that path; on a
/// fault-free run both report the same colors in every round, rounds, first
/// legal round, violation, adjustment set, messages and total_bits
/// (tests/test_selfstab_flat.cpp pins it).

namespace agc::selfstab {

enum class ViolationKind : std::uint8_t {
  None = 0,
  MonochromaticEdge,  ///< edge {u, v} shares a color (`value`)
  OutOfPalette,       ///< vertex v holds color `value` outside the palette
  InvalidState,       ///< algorithm-specific predicate failed at v
  NeverSettled,       ///< phase 0 found no fault-free fixed point
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
/// faultlab::StabilizationSpec.
struct RecoverySpec {
  /// Watchdog: abort when this many rounds elapse after the last fault event
  /// without the check passing.
  std::size_t recovery_budget = 10'000;
  /// Consecutive legal rounds required to call the run recovered.
  std::size_t confirm_rounds = 8;
};

/// Repair the coloring in `ram` (one RAM word per vertex, vertex v's id is
/// v) on `g`: fault-free flat rounds until coloring_violation() finds none
/// for spec.confirm_rounds consecutive rounds — faultlab::resettle with
/// coloring_check and coloring_outputs, on the same state, without the
/// engine.
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
/// (faults inside a run need the engine: faultlab::resettle) or when `ram`
/// does not hold one word per vertex.
[[nodiscard]] StabilizationOutcome flat_resettle(
    graph::GraphView g, std::vector<std::uint64_t>& ram, const SsConfig& cfg,
    const runtime::RunOptions& opts, const RecoverySpec& spec, std::uint64_t round,
    std::span<const std::uint64_t> baseline);

}  // namespace agc::selfstab
