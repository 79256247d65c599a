#include "agc/coloring/ag.hpp"

#include <algorithm>
#include <cmath>

#include "agc/math/iterated_log.hpp"
#include "agc/math/primes.hpp"

namespace agc::coloring {

std::uint64_t ag_modulus(std::size_t delta, std::uint64_t palette) {
  // q > 2*delta guarantees termination within q rounds (Corollary 3.5);
  // q^2 >= palette guarantees every initial color decomposes as <a,b>.
  const auto sqrt_pal = static_cast<std::uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(palette))));
  return math::next_prime(std::max<std::uint64_t>(2 * delta + 1, sqrt_pal));
}

Color AgRule::step(runtime::StepContext, Color own,
                   std::span<Color> neighbors) const {
  const std::uint64_t a = code_.a(own);
  const std::uint64_t b = code_.b(own);
  // Conflict (Definition 3.1): a neighbor whose second coordinate equals b.
  // Finalized neighbors <0,b'> participate with second coordinate b'.
  // Colors outside [0, q^2) belong to other stages of a composed pipeline
  // and are ignored (they are in disjoint ranges and cannot collide).
  bool conflict = false;
  for (Color nc : neighbors) {
    if (code_.in_range(nc) && code_.b(nc) == b) {
      conflict = true;
      break;
    }
  }
  if (!conflict) return code_.encode(0, b);  // finalize <0,b>
  // <a, b+a mod q>; a no-op for already-final vertices (a == 0).
  return code_.encode(a, (b + a) % code_.q);
}

std::uint32_t AgRule::color_bits() const {
  return runtime::width_of(code_.q * code_.q - 1);
}

runtime::IterativeResult additive_group_color(graph::GraphView g,
                                              std::vector<Color> initial,
                                              std::size_t delta,
                                              const runtime::IterativeOptions& opts) {
  const Color k = graph::max_color(initial) + 1;
  const AgRule rule(ag_modulus(delta, k));
  runtime::IterativeOptions capped = opts;
  // Corollary 3.5: q rounds always suffice; +2 slack for the empty-graph and
  // already-final corner cases.
  capped.max_rounds = std::min<std::size_t>(opts.max_rounds, rule.q() + 2);
  return run_locally_iterative(g, std::move(initial), rule, capped);
}

}  // namespace agc::coloring
