#include "agc/selfstab/ss_coloring.hpp"

#include <algorithm>
#include <cassert>

#include "agc/graph/checks.hpp"
#include "agc/math/primes.hpp"
#include "agc/selfstab/detail/run_loop.hpp"

namespace agc::selfstab {

SsConfig::SsConfig(std::uint64_t id_space, std::size_t delta, PaletteMode mode)
    : delta_(std::max<std::size_t>(delta, 1)),
      mode_(mode),
      // Exact mode widens I_0 to host the mixed state space; computed below,
      // so build a throwaway schedule first to learn the Excl palette, then
      // rebuild with the right room.
      sched_(id_space, delta_, /*excl_headroom=*/true) {
  if (mode_ == PaletteMode::ExactDeltaPlusOne) {
    mixed_.emplace(delta_, sched_.final_palette());
    sched_ = coloring::LinialSchedule(id_space, delta_, /*excl_headroom=*/true,
                                      /*final_room=*/mixed_->space());
  } else {
    // I_0 runs plain AG over the Excl stage's field.
    const auto& last = sched_.stage(sched_.stages() - 1);
    ag_q_ = last.q;
    assert(ag_q_ * ag_q_ == sched_.final_palette());
    assert(ag_q_ > 2 * delta_);
  }
  span_ = sched_.total_span();
}

std::uint64_t SsConfig::reset_color(std::uint64_t id) const {
  const std::size_t r = sched_.stages();
  assert(id < sched_.interval_size(r));
  return sched_.offset(r) + id;
}

std::uint64_t SsConfig::final_palette() const {
  return mode_ == PaletteMode::ExactDeltaPlusOne ? mixed_->n() : ag_q_;
}

bool SsConfig::is_final(std::uint64_t color) const {
  if (mode_ == PaletteMode::ExactDeltaPlusOne) return color < mixed_->n();
  return color < ag_q_;
}

std::uint64_t SsConfig::step(std::uint64_t id, std::uint64_t color,
                             std::span<const std::uint64_t> neighbors) const {
  // --- Check-Error ---------------------------------------------------------
  bool valid = color < span_;
  if (valid && mode_ == PaletteMode::ExactDeltaPlusOne &&
      sched_.interval_of(color) == 0) {
    // High states <0,0,a> (y < p) are never written by the algorithm; a
    // corrupted one would be a fixed point, so treat it as invalid.
    const std::uint64_t low_span = 2 * mixed_->n();
    if (color >= low_span && color < low_span + mixed_->p()) valid = false;
  }
  if (!valid || std::binary_search(neighbors.begin(), neighbors.end(), color)) {
    return reset_color(id);
  }

  const std::size_t j = sched_.interval_of(color);
  const std::uint64_t i0_size = sched_.interval_size(0);

  if (j == 0) {
    // Interval I_0: the additive-group machinery, among I_0 neighbors only.
    std::vector<std::uint64_t> in_zero;
    for (std::uint64_t nc : neighbors) {
      if (nc < i0_size) in_zero.push_back(nc);
    }
    if (mode_ == PaletteMode::ExactDeltaPlusOne) {
      return mixed_->step({}, color, in_zero);
    }
    // Plain AG over Z_{ag_q_}.
    const std::uint64_t q = ag_q_;
    const std::uint64_t a = color / q;
    const std::uint64_t b = color % q;
    for (std::uint64_t nc : in_zero) {
      if (nc % q == b) return a * q + (b + a) % q;  // conflict: shift
    }
    return b;  // finalize <0,b>
  }

  // Intervals I_j, j >= 1: Mod-Linial descent.
  std::vector<Color> forbidden;
  if (j == 1) {
    // Excl-Linial: dodge every color an I_0 neighbor might hold next round.
    for (std::uint64_t nc : neighbors) {
      if (nc >= i0_size) continue;
      if (mode_ == PaletteMode::ExactDeltaPlusOne) {
        // Translate mixed-space candidates back to Excl's raw output space
        // (the preimage of lift); candidates beyond it can never collide.
        const std::uint64_t low_span = 2 * mixed_->n();
        for (Color cand : mixed_->candidates(nc)) {
          forbidden.push_back(cand < low_span ? cand : cand - low_span);
        }
      } else {
        const std::uint64_t q = ag_q_;
        const std::uint64_t a = nc / q;
        const std::uint64_t b = nc % q;
        forbidden.push_back(b);                      // <0,b>
        forbidden.push_back(a * q + (b + a) % q);    // <a,b+a>
      }
    }
  }

  const Color raw =
      coloring::mod_linial_step(sched_, j, color, neighbors, forbidden);
  if (j == 1 && mode_ == PaletteMode::ExactDeltaPlusOne) {
    return mixed_->lift(raw);
  }
  return raw;
}

runtime::ProgramFactory ss_coloring_factory(const SsConfig& cfg) {
  return [&cfg](const runtime::VertexEnv&) {
    return std::make_unique<SsColoringProgram>(cfg);
  };
}

std::vector<Color> current_colors(runtime::Engine& engine) {
  std::vector<Color> colors(engine.graph().n());
  for (graph::Vertex v = 0; v < colors.size(); ++v) {
    const auto ram = engine.ram(v);
    colors[v] = ram.empty() ? 0 : ram[0];
  }
  return colors;
}

StabilizationReport run_until_stable(runtime::Engine& engine, const SsConfig& cfg,
                                     const runtime::RunOptions& opts,
                                     std::size_t confirm_rounds) {
  StabilizationReport rep;
  auto stable = [&] {
    const auto colors = current_colors(engine);
    return std::all_of(colors.begin(), colors.end(),
                       [&](Color c) { return cfg.is_final(c); }) &&
           graph::is_proper_coloring(engine.graph(), colors);
  };
  detail::run_until(engine, opts, confirm_rounds, stable,
                    [&] { return current_colors(engine); }, rep);
  if (rep.stabilized) rep.colors = current_colors(engine);
  return rep;
}

StabilizationReport run_until_stable(runtime::Engine& engine, const SsConfig& cfg,
                                     std::size_t max_rounds,
                                     std::size_t confirm_rounds) {
  runtime::RunOptions opts;
  opts.max_rounds = max_rounds;
  return run_until_stable(engine, cfg, opts, confirm_rounds);
}

}  // namespace agc::selfstab
