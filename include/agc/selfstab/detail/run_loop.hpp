#pragma once

#include <cstdint>

#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/hooked_rounds.hpp"

/// \file run_loop.hpp
/// The shared skeleton of the three `run_until_*` selfstab runners: drive the
/// engine until a stability predicate holds and confirm quiescence.  The
/// rounds themselves — fault hooks, event sink, phase timers, RunReport
/// accounting — are runtime::HookedRounds'.
///
/// Stabilization time is measured from the last fault event: every injection
/// (adversary or wire) resets the rounds_to_stable clock, matching the
/// paper's promise that faults eventually stop.  An adversary that never
/// quiesces therefore never lets the loop terminate —
/// PeriodicAdversary::Schedule::last_round is the enforcement knob.

namespace agc::selfstab::detail {

/// RunStart / RunEnd bracket of one run_until_* call, labelled opts.tag.
inline void emit_run_event(const runtime::RunOptions& opts, obs::EventKind kind,
                           std::uint64_t round, std::uint64_t value,
                           std::uint64_t ns = 0) {
  if (opts.sink == nullptr) return;
  opts.sink->emit(obs::Event{kind, round, opts.tag, value, ns});
}

/// `Report` must expose rounds_to_stable/stabilized and derive RunReport.
/// `stable` is the task predicate; `snapshot` captures the state compared
/// across the confirmation window (any equality-comparable value).
template <typename Report, typename Stable, typename Snapshot>
void run_until(runtime::Engine& engine, const runtime::RunOptions& opts,
               std::size_t confirm_rounds, Stable&& stable,
               Snapshot&& snapshot, Report& rep) {
  const std::uint64_t t0 = obs::monotonic_ns();
  runtime::HookedRounds rounds(engine, opts);
  emit_run_event(opts, obs::EventKind::RunStart, engine.rounds(),
                 engine.graph().n());

  auto check = [&] {
    obs::ScopedPhaseTimer timer(rounds.timers(), obs::Phase::Check);
    return stable();
  };

  bool ok = check();
  while (true) {
    while (rep.rounds_to_stable < opts.max_rounds && !ok) {
      ++rep.rounds_to_stable;
      // The clock restarts at the last fault, wire faults included (the
      // wire being attacked means faults have not stopped yet).
      if (rounds.step().total() > 0) rep.rounds_to_stable = 0;
      ok = check();
    }
    if (!ok) break;  // stabilization budget exhausted

    // Confirm quiescence: the configuration must be a fixed point.  The
    // adversary stays idle here, but a wire fault mid-window resets the
    // stabilization clock like any other fault (the predicate held only
    // transiently — e.g. a ChannelAdversary whose active window is still
    // open), so on a changed snapshot the search RESUMES instead of giving
    // up, until the round budget runs dry.
    const auto snap = snapshot();
    rep.stabilized = true;
    for (std::size_t i = 0; i < confirm_rounds; ++i) {
      if (rounds.step(/*with_adversary=*/false).channel > 0) {
        rep.rounds_to_stable = 0;
      }
      if (snapshot() != snap) {
        rep.stabilized = false;  // not actually stable
        break;
      }
    }
    if (rep.stabilized || rounds.steps() >= opts.max_rounds) break;
    ok = check();
  }

  rep.rounds = rounds.steps();
  rep.converged = rep.stabilized;
  rounds.finish(rep);
  rep.wall_ns = obs::monotonic_ns() - t0;
  emit_run_event(opts, obs::EventKind::RunEnd, engine.rounds(), rep.rounds,
                 rep.wall_ns);
}

}  // namespace agc::selfstab::detail
