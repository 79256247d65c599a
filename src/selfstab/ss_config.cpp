#include "agc/selfstab/ss_config.hpp"

#include <algorithm>
#include <cassert>

#include "agc/runtime/message.hpp"

namespace agc::selfstab {

SsConfig::SsConfig(std::uint64_t id_space, std::size_t delta, PaletteMode mode)
    : delta_(std::max<std::size_t>(delta, 1)),
      mode_(mode),
      // Exact mode widens I_0 to host the mixed state space; computed below,
      // so build a throwaway schedule first to learn the Excl palette, then
      // rebuild with the right room (the stage chain stays the same).
      sched_(id_space, delta_, /*excl_headroom=*/true),
      ag_(sched_.stage(sched_.stages() - 1).q) {
  if (mode_ == PaletteMode::ExactDeltaPlusOne) {
    mixed_.emplace(delta_, sched_.final_palette());
    sched_ = coloring::LinialSchedule(id_space, delta_, /*excl_headroom=*/true,
                                      /*final_room=*/mixed_->space());
    final_palette_ = mixed_->n();
  } else {
    // I_0 runs plain AG over the Excl stage's field.
    assert(ag_.modulus() * ag_.modulus() == sched_.final_palette());
    assert(ag_.modulus() > 2 * delta_);
    final_palette_ = ag_.modulus();
  }
  span_ = sched_.total_span();
  bits_ = runtime::width_of(span_ - 1);
  mask_ = bits_ >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits_) - 1;
}

std::uint64_t SsConfig::reset_color(std::uint64_t id) const {
  const std::size_t r = sched_.stages();
  assert(id < sched_.interval_size(r));
  return sched_.offset(r) + id;
}

bool SsConfig::in_s_prime(Color c, std::span<const Color> neighbors) const {
  const std::uint64_t i0_size = sched_.interval_size(0);
  for (const Color nc : neighbors) {
    if (nc >= i0_size) continue;
    if (mode_ == PaletteMode::ExactDeltaPlusOne) {
      // Translate mixed-space candidates back to Excl's raw output space
      // (the preimage of lift); candidates beyond it can never collide.
      const std::uint64_t low_span = 2 * mixed_->n();
      for (const Color cand : mixed_->candidates(nc)) {
        if ((cand < low_span ? cand : cand - low_span) == c) return true;
      }
    } else {
      // <a,b> may stay <0,b> or shift to <a,b+a>.
      const auto [a, b] = ag_.divmod(nc);
      if (c == b || c == a * ag_.modulus() + ag_.add(b, a)) return true;
    }
  }
  return false;
}

std::uint64_t SsConfig::step(std::uint64_t id, std::uint64_t color,
                             std::span<std::uint64_t> neighbors) const {
  // --- Check-Error ---------------------------------------------------------
  bool valid = color < span_;
  if (valid && mode_ == PaletteMode::ExactDeltaPlusOne &&
      sched_.interval_of(color) == 0) {
    // High states <0,0,a> (y < p) are never written by the algorithm; a
    // corrupted one would be a fixed point, so treat it as invalid.
    const std::uint64_t low_span = 2 * mixed_->n();
    if (color >= low_span && color < low_span + mixed_->p()) valid = false;
  }
  if (!valid || std::find(neighbors.begin(), neighbors.end(), color) != neighbors.end()) {
    return reset_color(id);
  }

  const std::size_t j = sched_.interval_of(color);
  const std::uint64_t i0_size = sched_.interval_size(0);

  if (j == 0) {
    // Interval I_0: the additive-group machinery, among I_0 neighbors only.
    if (mode_ == PaletteMode::ExactDeltaPlusOne) {
      const auto in_zero = std::remove_if(neighbors.begin(), neighbors.end(),
                                          [&](Color nc) { return nc >= i0_size; });
      return mixed_->step({}, color, {neighbors.begin(), in_zero});
    }
    // Plain AG over Z_q: a conflict shifts <a,b> to <a,b+a>, else finalize
    // to <0,b>.
    const auto [a, b] = ag_.divmod(color);
    for (const Color nc : neighbors) {
      if (nc < i0_size && ag_.reduce(nc) == b) return a * ag_.modulus() + ag_.add(b, a);
    }
    return b;
  }

  // Intervals I_j, j >= 1: Mod-Linial descent; I_1 runs Excl-Linial, which
  // dodges every color an I_0 neighbor might hold next round.
  if (j > 1) return coloring::mod_linial_step(sched_, j, color, neighbors);
  const Color raw = coloring::mod_linial_step(
      sched_, 1, color, neighbors,
      [&](Color c) { return in_s_prime(c, neighbors); });
  return mode_ == PaletteMode::ExactDeltaPlusOne ? mixed_->lift(raw) : raw;
}

}  // namespace agc::selfstab
