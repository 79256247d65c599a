#include "agc/coloring/reduction.hpp"

#include <algorithm>
#include <vector>

namespace agc::coloring {

Color GreedyReduceRule::step(runtime::StepContext, Color own,
                             std::span<Color> neighbors) const {
  if (own < target_) return own;  // final
  // Act only as a local maximum; ties are impossible between neighbors
  // (the coloring is proper), so the global maximum always acts.
  for (Color nc : neighbors) {
    if (nc > own) return own;
  }
  // Smallest color in [0, target) unused by any neighbor: sorting only here,
  // where a vertex acts, keeps the common waiting step a single pass.
  return smallest_free(neighbors);  // <= Delta < target: <= Delta neighbors
}

runtime::IterativeResult reduce_colors(graph::GraphView g,
                                       std::vector<Color> initial,
                                       std::uint64_t target,
                                       const runtime::IterativeOptions& opts) {
  const Color k = graph::max_color(initial) + 1;
  GreedyReduceRule rule(target, std::max<std::uint64_t>(k, target));
  runtime::IterativeOptions capped = opts;
  const std::size_t bound = k > target ? static_cast<std::size_t>(k - target) + 1 : 1;
  capped.max_rounds = std::min(opts.max_rounds, bound);
  return run_locally_iterative(g, std::move(initial), rule, capped);
}

}  // namespace agc::coloring
