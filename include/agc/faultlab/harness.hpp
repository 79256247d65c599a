#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "agc/runtime/engine.hpp"
#include "agc/runtime/run_options.hpp"
#include "agc/runtime/run_report.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/stabilization.hpp"

/// \file harness.hpp
/// The stabilization harness: run any self-stabilizing algorithm under a
/// fault schedule and measure what the paper's theorems talk about —
/// recovery time from the last adversary event, the first legal round, and
/// the adjustment radius (which vertices changed output versus the pre-fault
/// fixed point).  A convergence watchdog aborts runs whose recovery exceeds
/// a budget and reports the first invariant violation it saw (monochromatic
/// edge, out-of-palette color), with round and vertex.
///
/// Protocol: phase 0 stabilizes fault-free and snapshots the output vector;
/// phase 1 steps with the RunOptions fault hooks live (adversary between
/// rounds, channel inside rounds), restarting the recovery clock at every
/// injected event; once the legality check holds for `confirm_rounds`
/// consecutive rounds the run recovered, and the output diff against the
/// phase-0 snapshot is the adjustment set.

namespace agc::faultlab {

// The outcome types are the flat runner's too (selfstab/stabilization.hpp).
using selfstab::StabilizationOutcome;
using selfstab::to_string;
using selfstab::Violation;
using selfstab::ViolationKind;

/// Legality check: ViolationKind::None means the configuration is legal;
/// anything else pinpoints the first violation found.  Must be pure in the
/// engine state (called once per round).
using CheckFn = std::function<Violation(runtime::Engine&)>;

/// Output snapshot used for the adjustment diff: one word per vertex
/// (color, packed color+status, ... — whatever "output" means for the task).
using OutputFn = std::function<std::vector<std::uint64_t>(runtime::Engine&)>;

/// The watchdog and the confirm window (selfstab::RecoverySpec), plus the
/// task's check and outputs.
struct StabilizationSpec : selfstab::RecoverySpec {
  CheckFn check;
  OutputFn outputs;
  /// Round cap for the fault-free phase 0 (0 = use recovery_budget).
  std::size_t settle_budget = 0;
};

/// Run the two-phase protocol above on an installed engine.  opts.adversary
/// and opts.channel are live only during phase 1, and the round index passed
/// to FaultAdversary::inject counts from the start of phase 1 (so a
/// PeriodicAdversary schedule is relative to the fault phase, independent of
/// how long phase 0 took to settle).  opts.max_rounds caps the *total* engine
/// rounds across both phases.  Phase 1 steps through runtime::HookedRounds:
/// opts.sink receives its RoundEnd and Fault events, opts.collect_phase_times
/// folds its phase timers (adversary time under `fault`) into the outcome,
/// and the engine's hooks are restored on return.  Phase 0 runs unhooked.
[[nodiscard]] StabilizationOutcome run_stabilization(
    runtime::Engine& engine, const runtime::RunOptions& opts,
    const StabilizationSpec& spec);

/// Incremental repair: phase 1 of the protocol alone, started from the
/// engine's *current* (possibly illegal) state with no fault-free settle
/// phase.  This is the entry a long-lived service calls once per mutation
/// epoch — mutate the live engine, then resettle() to drive it back to a
/// legal configuration without paying a from-scratch settle (src/svc).
///
/// `baseline` supplies the pre-mutation output snapshot the adjustment diff
/// is computed against (capture spec.outputs(engine) *before* mutating; an
/// empty baseline counts every vertex as adjusted).  The recovery clock is
/// anchored at the call: when the state is already legal on entry the run
/// recovers in 0 rounds after the confirm window.  opts.adversary /
/// opts.channel, opts.sink and opts.collect_phase_times act exactly as in
/// run_stabilization's phase 1.  For the coloring with no fault hooks,
/// selfstab::flat_resettle runs the same repair without the engine.
[[nodiscard]] StabilizationOutcome resettle(
    runtime::Engine& engine, const runtime::RunOptions& opts,
    const StabilizationSpec& spec,
    const std::vector<std::uint64_t>& baseline);

/// Legality check for the self-stabilizing coloring: every color in the
/// final palette and no monochromatic edge (selfstab::coloring_violation).
[[nodiscard]] CheckFn coloring_check(const selfstab::SsConfig& cfg);

/// Output snapshot for coloring tasks: RAM word 0 of every vertex.
[[nodiscard]] OutputFn coloring_outputs();

/// Legality check for the self-stabilizing MIS (ss_mis.hpp): proper coloring
/// plus a valid maximal independent set — every MIS vertex independent,
/// every non-MIS vertex dominated, nobody undecided.
[[nodiscard]] CheckFn mis_check(const selfstab::SsConfig& cfg);

/// Output snapshot for MIS tasks: packed (color, status) per vertex.
[[nodiscard]] OutputFn mis_outputs();

/// Legality check for the line-graph simulation (ss_line.hpp): edge coloring
/// mode demands a proper final-palette edge coloring of the *current* host
/// graph; maximal-matching mode demands a valid maximal matching.
[[nodiscard]] CheckFn line_check(const selfstab::SsLineConfig& cfg);

/// Output snapshot for line tasks: an FNV-style hash of each host vertex's
/// per-edge replica words (RAM layout is degree-dependent, so a fixed-width
/// digest stands in for the variable-width output vector).
[[nodiscard]] OutputFn line_outputs();

}  // namespace agc::faultlab
