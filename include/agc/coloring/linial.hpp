#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "agc/coloring/palette.hpp"
#include "agc/runtime/iterative.hpp"

/// \file linial.hpp
/// Linial's color reduction [49] in the interval-encoded ("Mod-Linial") form
/// of Section 4.1: each palette of the log* n-step reduction is mapped to its
/// own disjoint interval of colors, so a vertex can read its own progress off
/// its color.  This makes the reduction a pure locally-iterative rule — and
/// exactly the form the self-stabilizing algorithm runs forever.
///
/// One step: a vertex with palette-index x in interval j forms the polynomial
/// g_x over GF(q_j) whose coefficients are the base-q_j digits of x, and picks
/// the smallest evaluation point e where g_x differs from the polynomial of
/// every same-interval neighbor; its next color encodes the pair <e, g_x(e)>
/// in interval j-1.  Since distinct degree-d polynomials agree on at most d
/// points and q_j > d*Delta, such a point always exists.

namespace agc::coloring {

struct LinialStage {
  std::uint64_t from_palette;  ///< palette size before the stage
  std::uint64_t q;             ///< prime field size, q > ceil(d*Delta/budget)
  std::uint32_t d;             ///< polynomial degree
  std::uint64_t to_palette;    ///< q*q
};

/// The stage chain of a digit-polynomial reduction from `palette` colors, the
/// one (q, d) search behind Linial's schedule, FYZ's defective partition and
/// arb's defective coloring.  Each stage takes the degree d in 1..64 and the
/// prime q minimizing the next palette q^2, subject to coverage
/// q^{d+1} >= palette and the collision slack q > ceil(d*delta/budget): some
/// evaluation point then collides with fewer than `budget` of the <= delta
/// differently colored neighbors (budget 1, the plain algorithm, means none;
/// 0 counts as 1).  The chain stops before the first stage that would not
/// shrink the palette.
[[nodiscard]] std::vector<LinialStage> linial_stages(std::uint64_t palette,
                                                     std::size_t delta,
                                                     std::uint64_t budget = 1);

class LinialSchedule {
 public:
  /// Build the reduction schedule from an initial `id_space`-coloring down to
  /// the O(Delta^2) fixed point.  With `excl_headroom`, the last stage uses
  /// degree 2 and a field of size > 4*Delta so that Excl-Linial can dodge up
  /// to 2*Delta forbidden colors (Section 4.1's set S').
  /// `final_room`, if non-zero, widens interval 0 to at least that many
  /// colors — the self-stabilizing exact-(Delta+1) algorithm hosts its mixed
  /// 3AG/AG(N) state space there (Section 7), which is larger than the plain
  /// final palette.  An id space already at the fixed point gets no stage:
  /// interval 0 then holds the initial palette max(id_space, 2).
  LinialSchedule(std::uint64_t id_space, std::size_t delta,
                 bool excl_headroom = false, std::uint64_t final_room = 0);

  /// Number of reduction stages r (= number of working intervals).
  [[nodiscard]] std::size_t stages() const noexcept { return stages_.size(); }
  /// Stage i (0-based) maps interval r-i to interval r-i-1.
  [[nodiscard]] const LinialStage& stage(std::size_t i) const { return stages_[i]; }

  /// Interval j holds the palette after r-j stages; interval 0 is final,
  /// interval r holds the initial ID space.
  [[nodiscard]] std::uint64_t interval_size(std::size_t j) const {
    assert(j <= stages());
    return offsets_[j + 1] - offsets_[j];
  }
  [[nodiscard]] std::uint64_t offset(std::size_t j) const { return offsets_[j]; }
  [[nodiscard]] std::size_t interval_of(Color c) const;
  /// One past the largest color any vertex can ever hold.
  [[nodiscard]] std::uint64_t total_span() const { return offsets_.back(); }

  [[nodiscard]] std::uint64_t final_palette() const { return interval_size(0); }
  [[nodiscard]] std::size_t delta() const noexcept { return delta_; }

 private:
  std::size_t delta_;
  std::vector<LinialStage> stages_;     ///< stage 0 applies first (widest palette)
  std::vector<std::uint64_t> offsets_;  ///< offsets_[j], j = 0..r+1; [r+1] = span
};

/// One Mod-Linial update for a vertex holding color `own` in interval j >= 1,
/// in the O(1)-words form of the end of Section 3.  `neighbors` are the
/// neighbors' raw colors; those in interval j, [offset(j), offset(j) +
/// interval_size(j)), constrain the step, and each one's digit polynomial is
/// evaluated digit by digit at every candidate point as it is read
/// (Polynomial::eval_digits), with no polynomial and no per-neighbor state;
/// their order does not matter.  `forbidden_next` are absolute colors in
/// interval j-1 the new color must avoid (Excl-Linial; pass {} for the plain
/// algorithm).  Returns the new absolute color in interval j-1.  Allocates
/// nothing.
[[nodiscard]] Color mod_linial_step(const LinialSchedule& sched, std::size_t j,
                                    Color own, std::span<const Color> neighbors,
                                    std::span<const Color> forbidden_next);

class LinialRule final : public runtime::IterativeRule {
 public:
  explicit LinialRule(LinialSchedule schedule) : sched_(std::move(schedule)) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override {
    return c < sched_.interval_size(0);
  }
  [[nodiscard]] std::uint32_t color_bits() const override;

  [[nodiscard]] const LinialSchedule& schedule() const noexcept { return sched_; }

 private:
  LinialSchedule sched_;
};

/// Run Linial's reduction: the identity n-coloring (or any proper coloring
/// over `id_space`) down to the O(Delta^2) fixed point in log* n + O(1)
/// rounds.  Initial colors are lifted into the top interval automatically.
[[nodiscard]] runtime::IterativeResult linial_color(
    graph::GraphView g, std::vector<Color> initial_ids, std::uint64_t id_space,
    std::size_t delta, const runtime::IterativeOptions& opts = {});

}  // namespace agc::coloring
