#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "agc/selfstab/stabilization.hpp"

/// \file repair_loop.hpp
/// The loop of one repair, shared by resettle() and run_stabilization()'s
/// fault phase on the engine and by flat_resettle: the clocks, the confirm
/// window, the watchdog, the round cap and the adjustment diff, spelled
/// once.

namespace agc::selfstab::detail {

/// Run rounds until `check` has found no violation for spec.confirm_rounds
/// consecutive rounds.  `clock()` reads the round clock, `step()` runs one
/// round and says whether a fault landed in it (which restarts the recovery
/// clock), `check()` returns the first violation after it.  The entry round
/// anchors the clocks; `initially_legal` is the entry state's verdict.
/// `executed` counts the rounds spent against `max_rounds`.  Fills
/// out.recovered, the clocks, recovery_rounds, illegal_rounds and, when
/// unrecovered, the violation: the watchdog's, the last one seen when
/// max_rounds ran out on an illegal check, or RoundCap when it ran out on a
/// legal one or before any round ran.
template <typename Clock, typename Step, typename Check>
void repair_loop(const RecoverySpec& spec, std::size_t max_rounds, bool initially_legal,
                 std::size_t& executed, Clock&& clock, Step&& step, Check&& check,
                 StabilizationOutcome& out) {
  out.last_fault_round = clock();
  out.first_legal_round = clock();
  bool legal = initially_legal;
  Violation v;
  std::size_t confirmed = 0;
  out.recovered = legal && spec.confirm_rounds == 0;

  while (!out.recovered && executed < max_rounds) {
    ++executed;
    if (step()) {
      out.last_fault_round = clock();
      legal = false;
      confirmed = 0;
    }
    v = check();
    if (!v) {
      if (!legal) {
        legal = true;
        out.first_legal_round = clock();
        confirmed = 0;
      }
      ++confirmed;
      if (confirmed >= spec.confirm_rounds) out.recovered = true;
    } else {
      ++out.illegal_rounds;
      legal = false;
      confirmed = 0;
      // Watchdog: faults have been quiet for recovery_budget rounds and the
      // configuration is still illegal — report what we see and stop
      // burning rounds.
      if (clock() - out.last_fault_round > spec.recovery_budget) {
        out.violation = v;
        break;
      }
    }
  }

  if (out.recovered) {
    out.recovery_rounds =
        static_cast<std::size_t>(out.first_legal_round - out.last_fault_round);
  } else if (!out.violation) {
    // max_rounds ran out before the watchdog or the confirm window.
    out.violation = v ? v : Violation{ViolationKind::RoundCap, clock(), 0, 0, 0};
  }
}

/// The adjustment set: the vertices whose output differs from `baseline`,
/// and every vertex past its end (added since the snapshot).
inline std::vector<graph::Vertex> adjusted(std::span<const std::uint64_t> outputs,
                                           std::span<const std::uint64_t> baseline) {
  std::vector<graph::Vertex> out;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (i >= baseline.size() || outputs[i] != baseline[i]) {
      out.push_back(static_cast<graph::Vertex>(i));
    }
  }
  return out;
}

}  // namespace agc::selfstab::detail
