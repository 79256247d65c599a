#include "agc/coloring/linial.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "agc/math/polynomial.hpp"
#include "agc/math/primes.hpp"

namespace agc::coloring {

std::vector<LinialStage> linial_stages(std::uint64_t palette, std::size_t delta,
                                       std::uint64_t budget) {
  budget = std::max<std::uint64_t>(budget, 1);
  std::vector<LinialStage> stages;
  while (true) {
    std::uint64_t best_q = 0;
    std::uint32_t best_d = 0;
    std::uint64_t best_to = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t d = 1; d <= math::Polynomial::kMaxDegree; ++d) {
      const std::uint64_t slack =
          (static_cast<std::uint64_t>(d) * delta + budget - 1) / budget;
      const std::uint64_t q = math::next_prime(
          std::max<std::uint64_t>(slack + 1, math::ceil_root(palette, d + 1)));
      const std::uint64_t to = math::sat_mul(q, q);
      if (to < best_to) {
        best_q = q;
        best_d = d;
        best_to = to;
      }
      // Larger d only raises q once coverage is no longer binding.
      if (math::sat_pow(slack + 1, d + 1) >= palette) break;
    }
    if (best_to >= palette) return stages;  // fixed point
    stages.push_back(LinialStage{palette, best_q, best_d, best_to, math::GF(best_q)});
    palette = best_to;
  }
}

LinialSchedule::LinialSchedule(std::uint64_t id_space, std::size_t delta,
                               bool excl_headroom, std::uint64_t final_room)
    : delta_(delta) {
  const std::uint64_t dd = std::max<std::uint64_t>(delta, 1);
  const std::uint64_t initial = std::max<std::uint64_t>(id_space, 2);
  stages_ = linial_stages(initial, dd);

  if (excl_headroom) {
    // Final Excl-Linial stage: degree 2, field large enough to dodge the
    // 2*Delta poly-collisions plus up to 2*Delta forbidden colors.
    const std::uint64_t palette =
        stages_.empty() ? initial : stages_.back().to_palette;
    const std::uint64_t q = math::next_prime(
        std::max<std::uint64_t>(4 * dd + 1, math::ceil_root(palette, 3)));
    stages_.push_back(LinialStage{palette, q, 2, q * q, math::GF(q)});
  }

  // Interval 0 (final palette, widened to final_room) at 0, interval j above
  // it.  Stage i maps interval r-i -> r-i-1, so interval j < r holds stage
  // r-1-j's output palette and interval r the initial one.
  const std::size_t r = stages_.size();
  offsets_.assign(r + 2, 0);
  for (std::size_t j = 0; j <= r; ++j) {
    std::uint64_t size = j == r ? initial : stages_[r - 1 - j].to_palette;
    if (j == 0) size = std::max(size, final_room);
    offsets_[j + 1] = offsets_[j] + size;
  }
}

std::size_t LinialSchedule::interval_of(Color c) const {
  for (std::size_t j = stages_.size() + 1; j-- > 0;) {
    if (c >= offsets_[j]) return j;
  }
  return 0;
}

Color LinialRule::step(runtime::StepContext, Color own,
                       std::span<Color> neighbors) const {
  const std::size_t j = sched_.interval_of(own);
  if (j == 0) return own;  // final palette reached
  return mod_linial_step(sched_, j, own, neighbors);
}

std::uint32_t LinialRule::color_bits() const {
  return runtime::width_of(sched_.total_span() - 1);
}

runtime::IterativeResult linial_color(graph::GraphView g,
                                      std::vector<Color> initial_ids,
                                      std::uint64_t id_space, std::size_t delta,
                                      const runtime::IterativeOptions& opts) {
  LinialSchedule sched(id_space, delta);
  if (sched.stages() == 0) {
    // Already at or below the fixed point: nothing to do.
    runtime::IterativeResult r;
    r.colors = std::move(initial_ids);
    r.converged = true;
    return r;
  }
  const std::uint64_t top = sched.offset(sched.stages());
  for (Color& c : initial_ids) {
    assert(c < id_space);
    c += top;
  }
  LinialRule rule(sched);
  runtime::IterativeOptions capped = opts;
  capped.max_rounds = std::min(opts.max_rounds, sched.stages() + 2);
  return run_locally_iterative(g, std::move(initial_ids), rule, capped);
}

}  // namespace agc::coloring
