#pragma once

#include <cstddef>
#include <cstdint>

#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/run_options.hpp"
#include "agc/runtime/run_report.hpp"

/// \file hooked_rounds.hpp
/// The one hooked round every engine runner drives.
///
/// The fully-dynamic self-stabilizing model has a single fault semantics
/// (Section 4): the channel hook attacks messages inside a round, the
/// adversary acts between rounds, and a run reports what both injected.
/// HookedRounds spells that round once.  The iterative engine path (Luby
/// and the MIS wave included), the edge colorer, the selfstab run_until_*
/// runners, the stabilization harness and agc-faultplan's replay all step
/// through it, so none of them attaches hooks, drains channel events,
/// injects faults, emits Fault events or computes metric deltas by hand.
///
/// Contract:
///   * The constructor attaches RunOptions::channel and ::sink (when set)
///     and a phase profile (when collect_phase_times) to the engine; the
///     destructor restores the engine's previous hooks.
///   * step() runs one engine round, then calls
///     adversary->inject(engine, steps()): the round index is the number of
///     rounds stepped since construction, i.e. the 1-based index of the
///     round that just completed.  The injection is timed under the `fault`
///     phase.
///   * Each step emits its Fault events to the sink stamped with
///     engine.rounds(), the channel's first (value = wire faults inside the
///     round), then the adversary's (value = events injected after it).
///   * finish() fills a report's metrics delta since construction
///     (max_edge_bits stays the engine's cumulative maximum: the per-edge
///     ledger never resets), fault_events and the folded phases.

namespace agc::runtime {

/// What one hooked round injected, split by domain.  Runners that mirror
/// program state resynchronize only after adversary events; wire faults
/// never touch RAM.
struct RoundFaults {
  std::uint64_t channel = 0;  ///< wire faults inside the round
  std::size_t adversary = 0;  ///< adversary events after it

  [[nodiscard]] std::uint64_t total() const noexcept {
    return channel + adversary;
  }
};

class HookedRounds {
 public:
  HookedRounds(Engine& engine, const RunOptions& opts);
  ~HookedRounds();

  HookedRounds(const HookedRounds&) = delete;
  HookedRounds& operator=(const HookedRounds&) = delete;

  /// One hooked round.  `with_adversary = false` leaves the adversary idle
  /// this round (the selfstab confirm window); the round still counts
  /// toward steps() and its wire faults are still drained.
  RoundFaults step(bool with_adversary = true);

  /// Rounds stepped since construction.
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

  /// The driving thread's accumulator for runner-level phase timers
  /// (check, observer); null unless collect_phase_times.
  [[nodiscard]] obs::PhaseStats* timers() const noexcept { return timers_; }

  /// Fill `rep`'s metrics (delta since construction), fault_events and
  /// phases.  Leaves rounds and convergence to the runner.
  void finish(RunReport& rep) const;

 private:
  void emit_fault(const char* label, std::uint64_t count) const;

  Engine& engine_;
  FaultAdversary* adversary_;
  ChannelHook* channel_;
  obs::EventSink* sink_;
  obs::PhaseProfile profile_;
  obs::PhaseStats* timers_ = nullptr;
  obs::PhaseProfile* prev_profile_;
  obs::EventSink* prev_sink_;
  ChannelHook* prev_channel_;
  Metrics before_;
  std::uint64_t channel_seen_ = 0;
  std::size_t steps_ = 0;
  std::size_t fault_events_ = 0;
};

}  // namespace agc::runtime
