#pragma once

#include <cstdint>

#include "agc/coloring/palette.hpp"
#include "agc/runtime/iterative.hpp"

/// \file reduction.hpp
/// The standard color reduction, in locally-iterative (round-oblivious) form.
///
/// A vertex whose color is >= target and is a local maximum among its
/// neighbors recolors to the smallest free color in [0, target).  The global
/// maximum strictly decreases every round, so a k-coloring becomes a
/// target-coloring within k - target rounds.  With target = Delta+1 this is
/// the classic O(Delta^2)-rounds-from-O(Delta^2)-colors reduction used by
/// Goldberg-Plotkin-Shannon and by Corollary 3.6's last stage (where it only
/// has O(Delta) colors left to remove).

namespace agc::coloring {

class GreedyReduceRule final : public runtime::IterativeRule {
 public:
  /// Reduce to palette [0, target).  target must be >= Delta+1 for the free
  /// color to exist.  `palette_bound` is the initial palette size, used only
  /// for message-width accounting.
  GreedyReduceRule(std::uint64_t target, std::uint64_t palette_bound)
      : target_(target), palette_bound_(palette_bound) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override { return c < target_; }
  [[nodiscard]] std::uint32_t color_bits() const override {
    return runtime::width_of(palette_bound_ - 1);
  }

  [[nodiscard]] std::uint64_t target() const noexcept { return target_; }

 private:
  std::uint64_t target_;
  std::uint64_t palette_bound_;
};

/// Run the reduction to completion: proper k-coloring -> proper
/// target-coloring in <= k - target rounds.
[[nodiscard]] runtime::IterativeResult reduce_colors(
    graph::GraphView g, std::vector<Color> initial, std::uint64_t target,
    const runtime::IterativeOptions& opts = {});

}  // namespace agc::coloring
