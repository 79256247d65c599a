#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "agc/arb/defective.hpp"
#include "agc/graph/orientation.hpp"
#include "agc/runtime/iterative.hpp"

/// \file arbag.hpp
/// Algorithm Arbdefective-Color (Section 6): an O(p)-arbdefective
/// O(Delta/p)-coloring in O(Delta/p + log* n) rounds.
///
/// Seeded by a p-defective O((Delta/p)^2)-coloring psi, every vertex runs the
/// AG iteration over Z_q (q = Theta(Delta/p) prime) with a *tolerant*
/// finalize rule: it freezes on <0,b> as soon as at most p neighbors of a
/// DIFFERENT psi-color share its second coordinate.  Within 2*ceil(Delta/p)+1
/// rounds every vertex freezes (Lemma 6.1); orienting every monochromatic
/// edge toward the endpoint that froze first bounds each color class's
/// out-degree by p + (seed defect), i.e. arboricity O(p) (Lemma 6.2).

namespace agc::arb {

/// The ArbAG update rule as a locally-iterative color function (so it runs
/// through run_locally_iterative in any model, SET-LOCAL included).  A state packs the immutable seed
/// color with the AG pair: state = psi * q^2 + a*q + b; <0,b> (a == 0) is
/// frozen.  The tolerant finalize rule freezes when at most `p` neighbors of
/// a DIFFERENT seed color share b.
///
/// Note: unlike AG proper, the maintained colorings are arbdefective rather
/// than proper, so run it with check_proper_each_round = false.
class ArbAgRule final : public runtime::IterativeRule {
 public:
  ArbAgRule(std::uint64_t q, std::size_t p) : q_(q), p_(p) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override {
    return (c % (q_ * q_)) / q_ == 0;  // a == 0
  }
  [[nodiscard]] std::uint32_t color_bits() const override { return 64; }

  [[nodiscard]] static Color pack(std::uint64_t psi, std::uint64_t a,
                                  std::uint64_t b, std::uint64_t q) {
    return psi * q * q + a * q + b;
  }
  [[nodiscard]] std::uint64_t q() const noexcept { return q_; }

  /// The final class of a frozen state: its b coordinate.
  [[nodiscard]] Color class_of(Color c) const { return c % q_; }

 private:
  std::uint64_t q_;
  std::size_t p_;
};

/// RunReport core (rounds = AG + seed rounds as measured, converged, metrics,
/// telemetry) plus the arbdefective classes and their witnesses.
struct ArbdefectiveResult : runtime::RunReport {
  std::vector<Color> classes;                ///< final b-values, < num_classes
  std::vector<std::size_t> finalize_round;   ///< freeze round per vertex
  std::uint64_t num_classes = 0;             ///< q = O(Delta/p)
  std::size_t window = 0;                    ///< worst-case AG rounds, 2*ceil(D/p)+1
  std::size_t seed_rounds = 0;
  std::size_t seed_defect = 0;
};

/// Compute an O(p)-arbdefective O(Delta/p)-coloring of g.  `opts` supplies
/// the unified run configuration (executor backend, adversary, observability
/// hooks); the AG stage's round cap is the algorithm's own window, so
/// RunOptions::max_rounds is ignored.
[[nodiscard]] ArbdefectiveResult arbdefective_color(
    graph::GraphView g, std::size_t p, std::uint64_t id_space,
    const runtime::RunOptions& opts = {});

/// The witness orientation of Lemma 6.2: monochromatic edges point toward
/// the endpoint with the lexicographically smaller (finalize_round, id); its
/// max out-degree bounds the arbdefect.  Edges between different classes are
/// oriented arbitrarily (they do not matter for arboricity of the classes).
[[nodiscard]] graph::Orientation arb_orientation(graph::GraphView g,
                                                 const ArbdefectiveResult& arb);

/// Max out-degree of arb_orientation over monochromatic edges only — the
/// measured arbdefect witness.
[[nodiscard]] std::size_t measured_arbdefect(graph::GraphView g,
                                             const ArbdefectiveResult& arb);

}  // namespace agc::arb
