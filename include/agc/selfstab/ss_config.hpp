#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "agc/coloring/ag3.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/math/gf.hpp"

/// \file ss_config.hpp
/// The ROM of the fully-dynamic self-stabilizing coloring (Section 4.1 of
/// the paper, plus the Section 7 extension that stabilizes to exactly
/// Delta+1 colors): the interval schedule, the I_0 rule and the one pure
/// step every vertex runs each round.
///
/// Every vertex stores exactly one RAM word — its color — which the adversary
/// may overwrite arbitrarily between rounds (as may edge and vertex churn).
/// Each round, every vertex broadcasts its color and runs one pure step:
///
///   1. Check-Error: a color that clashes with a neighbor or is structurally
///      invalid resets to the ID interval I_r.
///   2. Colors in interval I_j (j >= 2) descend one Linial interval
///      (Mod-Linial).
///   3. Colors in I_1 descend via Excl-Linial, dodging the set S' of all
///      colors that I_0 neighbors might hold next round.
///   4. Colors in I_0 run the additive-group machinery: plain AG for the
///      O(Delta)-color mode, or the mixed 3AG/AG(N) rule for the exact
///      (Delta+1)-color mode.
///
/// Once faults stop, the coloring stabilizes within O(Delta + log* n) rounds
/// and only vertices adjacent to a fault ever recompute (adjustment
/// radius 1).  Two runners evaluate the step: the engine's SsColoringProgram
/// (ss_coloring.hpp), which the fault hooks act on, and the flat rounds of
/// stabilization.hpp for runs whose faults land between runs.

namespace agc::selfstab {

using graph::Color;

enum class PaletteMode {
  ODelta,             ///< stabilize to O(Delta) colors (Lemma 4.2)
  ExactDeltaPlusOne,  ///< stabilize to exactly Delta+1 colors (Theorem 7.5)
};

/// Immutable per-run configuration (ROM contents): the interval schedule and
/// the I_0 rule.  Shared by all vertices; must outlive every runner using it.
class SsConfig {
 public:
  SsConfig(std::uint64_t id_space, std::size_t delta, PaletteMode mode);

  /// The complete self-stabilizing step: a pure function of (own id, own
  /// color, the multiset of neighbor colors).  `neighbors` arrive in
  /// unspecified order in the runner's scratch, as IterativeRule::step's do:
  /// the result does not depend on the order, and the step may reorder or
  /// overwrite the buffer.  Allocates nothing.  Used verbatim by vertex
  /// programs, by the flat rounds and by the line-graph virtual vertices of
  /// Section 4.2.
  [[nodiscard]] std::uint64_t step(std::uint64_t id, std::uint64_t color,
                                   std::span<std::uint64_t> neighbors) const;

  /// The initial state of a vertex with this id (also the Check-Error reset).
  [[nodiscard]] std::uint64_t reset_color(std::uint64_t id) const;

  /// Is this color in the final palette (stable once neighbors are stable)?
  [[nodiscard]] bool is_final(std::uint64_t color) const noexcept {
    return color < final_palette_;
  }

  /// One past the largest final color: q = O(Delta) in ODelta mode,
  /// Delta+1 in exact mode.
  [[nodiscard]] std::uint64_t final_palette() const noexcept { return final_palette_; }

  /// One past the largest representable state.
  [[nodiscard]] std::uint64_t span() const noexcept { return span_; }

  [[nodiscard]] std::uint32_t color_bits() const noexcept { return bits_; }

  /// Truncate a (possibly adversarially corrupted) RAM word to the message
  /// field width, as fixed-width hardware would.  Check-Error rejects the
  /// resulting garbage value on the next step.
  [[nodiscard]] std::uint64_t truncate(std::uint64_t ram_word) const noexcept {
    return ram_word & mask_;
  }

  [[nodiscard]] PaletteMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t delta() const noexcept { return delta_; }
  [[nodiscard]] const coloring::LinialSchedule& schedule() const { return sched_; }

 private:
  /// Excl-Linial's set S': could one of the I_0 neighbors hold `c` next
  /// round?
  [[nodiscard]] bool in_s_prime(Color c, std::span<const Color> neighbors) const;

  std::size_t delta_;
  PaletteMode mode_;
  coloring::LinialSchedule sched_;
  std::optional<coloring::Mixed3Rule> mixed_;  ///< exact mode only
  /// The Excl stage's field GF(q), a Linial stage prime: ODelta's I_0 runs
  /// plain AG over Z_q with pairs <a,b> = a*q + b.
  math::GF ag_;
  std::uint64_t final_palette_ = 0;
  std::uint64_t span_ = 0;
  std::uint32_t bits_ = 1;
  std::uint64_t mask_ = 1;  ///< the low color_bits() bits
};

}  // namespace agc::selfstab
