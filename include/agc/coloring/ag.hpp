#pragma once

#include <cstdint>

#include "agc/coloring/palette.hpp"
#include "agc/math/gf.hpp"
#include "agc/runtime/iterative.hpp"

/// \file ag.hpp
/// The Additive-Group (AG) coloring algorithm — Section 3 of the paper, and
/// the special coloring Szegedy-Vishwanathan conjectured not to exist.
///
/// Starting from a proper k-coloring with k <= q^2 for a prime q > 2*Delta,
/// every vertex repeats one uniform step: writing its color as <a,b> over
/// Z_q, if no neighbor shares its second coordinate b it finalizes to <0,b>;
/// otherwise it moves to <a, b+a mod q>.  Every intermediate coloring is
/// proper (Lemma 3.2) and all vertices finalize within q = O(Delta) rounds
/// (Corollary 3.5), yielding a proper q-coloring — below the
/// Omega(Delta log Delta) SV barrier.

namespace agc::coloring {

/// The prime modulus AG needs: the smallest prime q with q > 2*delta and
/// q^2 >= palette (so every initial color fits in a pair <a,b>).
[[nodiscard]] std::uint64_t ag_modulus(std::size_t delta, std::uint64_t palette);

/// The AG update rule (locally-iterative, SET-LOCAL executable).
class AgRule final : public runtime::IterativeRule {
 public:
  explicit AgRule(std::uint64_t q) : code_{q}, zq_(q) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override { return code_.is_final(c); }
  [[nodiscard]] std::uint32_t color_bits() const override;

  [[nodiscard]] std::uint64_t q() const noexcept { return code_.q; }

 private:
  PairCode code_;
  math::Zm zq_;  ///< decodes <a,b> without a divide
};

/// Run AG to completion: proper k-coloring -> proper q-coloring in <= q
/// rounds.  `delta` is the degree bound the modulus is sized for.
[[nodiscard]] runtime::IterativeResult additive_group_color(
    graph::GraphView g, std::vector<Color> initial, std::size_t delta,
    const runtime::IterativeOptions& opts = {});

}  // namespace agc::coloring
