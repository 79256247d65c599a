#pragma once

#include <cstdint>

#include "agc/coloring/palette.hpp"
#include "agc/runtime/iterative.hpp"

/// \file ag3.hpp
/// Section 7: the 3-dimensional AG algorithm and the exact-(Delta+1)
/// machinery that avoids the standard color reduction altogether.
///
/// * ThreeAgRule  — 3AG(p): one uniform step that takes a proper p^3-coloring
///   to a proper p-coloring in O(p) rounds (Corollary 7.2).  Its uniformity
///   (all vertices always run the same step, no phases) is what makes it
///   suitable for self-stabilization.
/// * AgnRule      — AG(N): works in the additive group Z_N for a *composite*
///   N = Delta+1; takes a proper (<2N)-coloring to exactly Delta+1 colors in
///   N rounds.
/// * MixedRule    — the combined high/low algorithm: high colors run AG(p)
///   (gated so a high vertex cannot finalize while a low neighbor is still
///   working), low colors run AG(N).  Takes a proper O(Delta^2)-coloring to
///   exactly Delta+1 colors in O(Delta) rounds, one uniform locally-iterative
///   step throughout.

namespace agc::coloring {

/// Modulus for 3AG: smallest prime p with p >= 3*delta+1 and p^3 >= palette.
[[nodiscard]] std::uint64_t three_ag_modulus(std::size_t delta, std::uint64_t palette);

class ThreeAgRule final : public runtime::IterativeRule {
 public:
  explicit ThreeAgRule(std::uint64_t p) : code_{p} {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color x) const override { return code_.is_final(x); }
  [[nodiscard]] std::uint32_t color_bits() const override;

  [[nodiscard]] std::uint64_t p() const noexcept { return code_.p; }

 private:
  TripleCode code_;
};

/// AG(N) over the (possibly composite) additive group Z_N.  States are
/// <b,a> = b*N + a with b in {0,1}; <0,a> is final.  Input must be a proper
/// coloring with all colors < 2N.
class AgnRule final : public runtime::IterativeRule {
 public:
  explicit AgnRule(std::uint64_t n_colors) : n_(n_colors) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override { return c < n_; }
  [[nodiscard]] std::uint32_t color_bits() const override {
    return runtime::width_of(2 * n_ - 1);
  }

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

 private:
  std::uint64_t n_;
};

/// The combined high/low rule of Section 7.
///
/// Color ranges (disjoint, so the composed coloring stays proper):
///   [0, N)        — final colors (the target Delta+1 palette)
///   [N, 2N)       — AG(N) working states <1, a-N>
///   [2N, 2N+p^2)  — AG(p) high states <b,a> with b >= 1
///
/// A high vertex finalizes (drops to the low range) only when it has no
/// conflict AND no low neighbor is still working; otherwise it keeps
/// circling <b, a+b mod p>.
class MixedRule final : public runtime::IterativeRule {
 public:
  /// `delta` sizes N = delta+1; `palette` is the size of the proper input
  /// coloring (must be <= p^2 for the largest prime p <= 2*delta+1).
  MixedRule(std::size_t delta, std::uint64_t palette);

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override { return c < n_; }
  [[nodiscard]] std::uint32_t color_bits() const override;

  /// Map a proper input color (< palette) into the rule's state space.
  [[nodiscard]] Color lift(Color proper_color) const;

  /// The core transition given the two neighborhood predicates.  The edge
  /// variant (Section 5) evaluates the predicates with a 2-bit exchange per
  /// edge per round and then applies this same function at both endpoints.
  [[nodiscard]] Color transition(Color own, bool value_conflict,
                                 bool low_working_neighbor) const;

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t p() const noexcept { return p_; }

  /// A generous upper bound on rounds to convergence, used as the run cap.
  [[nodiscard]] std::size_t round_bound() const;

 private:
  std::uint64_t n_;  ///< N = delta+1
  std::uint64_t p_;  ///< prime, (1+eps)*delta <= p <= 2*delta+1
  std::size_t delta_;
};

/// Run MixedRule to completion: proper `initial` coloring (palette <= ~4Δ²)
/// -> proper (Delta+1)-coloring, all in O(Delta) uniform locally-iterative
/// rounds (no standard color reduction).
[[nodiscard]] runtime::IterativeResult exact_delta_plus_one(
    graph::GraphView g, std::vector<Color> initial, std::size_t delta,
    const runtime::IterativeOptions& opts = {});

/// The 3-dimensional combined high/low rule (end of Section 7): high colors
/// run 3AG(p) with the finalize gate, low colors run AG(N).  Hosts input
/// palettes up to p^3 (enough for the Excl-Linial output), so the
/// self-stabilizing exact-(Delta+1) algorithm runs it inside interval I_0.
///
/// Color ranges:
///   [0, N)           — final colors
///   [N, 2N)          — AG(N) working states
///   [2N, 2N + p^3)   — 3AG(p) high states <c,b,a> (never <0,0,a>: a vertex
///                      reaching that form exits to the low range instead)
class Mixed3Rule final : public runtime::IterativeRule {
 public:
  /// Requires p^3 >= palette for the largest prime p <= 2*delta+1; throws
  /// std::logic_error otherwise (pre-reduce with AG first).
  Mixed3Rule(std::size_t delta, std::uint64_t palette);

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override { return c < n_; }
  [[nodiscard]] std::uint32_t color_bits() const override;

  /// Map a proper input color (< palette) into the rule's state space.
  [[nodiscard]] Color lift(Color proper_color) const;

  /// The (at most 2) colors a vertex in state c can hold next round, besides
  /// c itself.  Excl-Linial forbids exactly these (the set S' of Sec. 4.1).
  [[nodiscard]] std::vector<Color> candidates(Color c) const;

  /// One past the largest state value (the room interval I_0 must provide).
  [[nodiscard]] std::uint64_t space() const { return 2 * n_ + p_ * p_ * p_; }

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t p() const noexcept { return p_; }
  [[nodiscard]] std::size_t round_bound() const;

 private:
  std::uint64_t n_;  ///< N = delta+1
  std::uint64_t p_;  ///< prime <= 2*delta+1 with p^3 >= palette
  std::size_t delta_;
};

}  // namespace agc::coloring
