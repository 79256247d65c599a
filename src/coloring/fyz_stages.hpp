#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "agc/coloring/fyz.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/palette.hpp"
#include "agc/math/polynomial.hpp"
#include "agc/math/primes.hpp"
#include "agc/runtime/iterative.hpp"

/// \file fyz_stages.hpp (internal)
/// The Fu–Yin–Zheng pipeline's stage rules and their parameters
/// (fyz.hpp for the structure).  Internal to src/coloring: color_fyz runs
/// exactly the rules a FyzStages holds, and tests hold the same object to
/// pin each rule's is_final contract.

namespace agc::coloring::detail {

using runtime::Color;

// ---------------------------------------------------------------------------
// Stage 2: the carrier-packed defective partition.
//
// The stage chain arb::defective_color runs too, linial_stages at collision
// budget p (per-stage defect d*Delta/q <= p), but run as a locally-iterative
// rule: the working palettes get disjoint intervals (exactly like
// Mod-Linial), every vertex advances one interval per round in lockstep, and
// the whole machinery rides on the immutable Linial color as
// state = lin * span + machinery so every intermediate full coloring is
// proper.

struct PartitionSchedule {
  std::vector<LinialStage> stages;  ///< stage t maps interval t -> t+1
  std::vector<std::uint64_t> pal;   ///< pal[t] = palette of interval t
  std::vector<std::uint64_t> off;   ///< off[t] = interval t's color offset
  std::uint64_t span = 0;           ///< one past the largest machinery color

  PartitionSchedule(std::uint64_t palette, std::size_t delta,
                    std::uint64_t budget)
      : stages(linial_stages(palette, delta, budget)) {
    pal.push_back(palette);
    for (const LinialStage& st : stages) pal.push_back(st.to_palette);
    off.resize(pal.size());
    std::uint64_t o = 0;
    for (std::size_t t = 0; t < pal.size(); ++t) {
      off[t] = o;
      o += pal[t];
    }
    span = o;
  }

  [[nodiscard]] std::uint64_t classes() const { return pal.back(); }

  /// Interval of a machinery color (linear scan; <= log* palette entries).
  [[nodiscard]] std::size_t interval_of(std::uint64_t m) const {
    std::size_t t = pal.size() - 1;
    while (m < off[t]) --t;
    return t;
  }
};

class PartitionRule final : public runtime::IterativeRule {
 public:
  explicit PartitionRule(PartitionSchedule sched) : s_(std::move(sched)) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override {
    const std::uint64_t m = own % s_.span;
    const std::size_t t = s_.interval_of(m);
    if (t + 1 == s_.pal.size()) return own;  // final interval
    const LinialStage& st = s_.stages[t];
    const math::GF field(st.q);
    const int d = static_cast<int>(st.d);
    const std::uint64_t lo = s_.off[t];
    const std::uint64_t hi = lo + s_.pal[t];
    // All vertices advance one interval per round in lockstep, so every
    // neighbor is in interval t too.  A point's hit count counts distinct
    // neighbor colors: a duplicate would add hits only at its own
    // polynomial's collision points, so counting it could move the choice.
    // Sorted, a duplicate follows its twin.
    std::sort(neighbors.begin(), neighbors.end());
    // The first point with the fewest hits: a point is dropped once its
    // count reaches the best so far, and a point with no hit ends the scan.
    std::uint64_t best = 0;
    std::uint64_t best_val = 0;
    std::uint64_t best_hits = std::numeric_limits<std::uint64_t>::max();
    for (std::uint64_t e = 0; e < st.q && best_hits > 0; ++e) {
      const std::uint64_t val = math::Polynomial::eval_digits(field, m - lo, d, e);
      std::uint64_t hits = 0;
      for (std::size_t i = 0; i < neighbors.size() && hits < best_hits; ++i) {
        const Color nc = neighbors[i];
        if (i > 0 && nc == neighbors[i - 1]) continue;
        const std::uint64_t nm = nc % s_.span;
        hits += nm >= lo && nm < hi &&
                math::Polynomial::eval_digits(field, nm - lo, d, e) == val;
      }
      if (hits < best_hits) {
        best = e;
        best_val = val;
        best_hits = hits;
      }
    }
    return (own / s_.span) * s_.span + s_.off[t + 1] + best * st.q + best_val;
  }

  [[nodiscard]] bool is_final(Color c) const override {
    return c % s_.span >= s_.off.back();
  }
  [[nodiscard]] std::uint32_t color_bits() const override { return 64; }

  [[nodiscard]] const PartitionSchedule& schedule() const { return s_; }

 private:
  PartitionSchedule s_;
};

// ---------------------------------------------------------------------------
// Stage 3: carrier-packed Arbdefective-Color (tolerant AG over Z_q).
//
// state = ((lin * K + psi) * q + a) * q + b; <a == 0> is frozen.  Same
// tolerant finalize rule as arb::ArbAgRule — freeze as soon as at most p
// neighbors of a DIFFERENT psi share b — but packed above the proper Linial
// carrier instead of the bare seed, so the maintained colorings stay proper.

class FyzArbRule final : public runtime::IterativeRule {
 public:
  FyzArbRule(std::uint64_t classes, std::uint64_t q, std::uint64_t p)
      : k_(classes), q_(q), p_(p), m_(classes * q * q) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override {
    const std::uint64_t m = own % m_;
    const std::uint64_t a = (m / q_) % q_;
    if (a == 0) return own;  // frozen
    const std::uint64_t b = m % q_;
    const std::uint64_t psi = m / (q_ * q_);
    std::uint64_t conflicts = 0;
    for (const Color nc : neighbors) {
      const std::uint64_t nm = nc % m_;
      conflicts += nm % q_ == b && nm / (q_ * q_) != psi;
    }
    if (conflicts <= p_) {
      return own - a * q_;  // freeze: a <- 0, keep psi and b
    }
    const std::uint64_t nb = b + a >= q_ ? b + a - q_ : b + a;
    return own - b + nb;
  }

  [[nodiscard]] bool is_final(Color c) const override {
    return (c % m_ / q_) % q_ == 0;
  }
  [[nodiscard]] std::uint32_t color_bits() const override { return 64; }

  [[nodiscard]] std::uint64_t q() const { return q_; }

 private:
  std::uint64_t k_, q_, p_, m_;
};

// ---------------------------------------------------------------------------
// Stage 4: the list-coloring wave with the proposal packed into the color.
//
// An active state is D1 + prio * D1 + prop where D1 = Delta + 1, prop is the
// currently proposed final color, and prio = b * L + lin totally orders the
// vertices class-major (b = arb class, lin tie-break).  Done states are bare
// colors < D1.  One step, computed from one snapshot of the neighborhood:
//
//   * a done neighbor holds prop      -> re-propose the smallest free color
//                                        (publish first, commit no earlier
//                                        than the next round);
//   * else if no same-prop active     -> commit (become done(prop));
//     neighbor has smaller prio
//   * else                            -> defer, state unchanged.
//
// Adjacent same-round commits of the same color are impossible: both decide
// against the same snapshot, so the larger-prio one of a same-prop pair
// defers, and a freshly re-proposed color was by definition not published in
// the snapshot its neighbor committed against.  Every round stays proper
// (done-done by the commit rule, active-active by distinct lin, done-active
// by the offset) and the globally smallest active priority always commits
// within two rounds, so the wave cannot deadlock.  Initial proposals are
// class-spread (b mod D1), which keeps the startup contention inside the
// size-O(p)-defect classes instead of piling every vertex onto color 0.

class FyzListRule final : public runtime::IterativeRule {
 public:
  explicit FyzListRule(std::uint64_t d1) : d1_(d1) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override {
    if (own < d1_) return own;  // done
    const std::uint64_t prio = (own - d1_) / d1_;
    const std::uint64_t prop = (own - d1_) % d1_;
    // One pass over the multiset: the done colors, compacted into the front
    // of the buffer, whether one of them is the proposal, and whether a
    // smaller-priority active neighbor holds the same proposal.
    std::size_t done = 0;
    bool taken = false;
    bool defer = false;
    for (const Color nc : neighbors) {
      if (nc < d1_) {
        neighbors[done++] = nc;
        taken = taken || nc == prop;
      } else if ((nc - d1_) % d1_ == prop && (nc - d1_) / d1_ < prio) {
        defer = true;
      }
    }
    if (taken) {
      // < d1_: at most Delta done neighbors.
      return d1_ + prio * d1_ + smallest_free(neighbors.first(done));
    }
    if (!defer) return prop;  // commit
    return own;
  }

  [[nodiscard]] bool is_final(Color c) const override { return c < d1_; }
  [[nodiscard]] std::uint32_t color_bits() const override { return 64; }

 private:
  std::uint64_t d1_;
};

/// Every parameter and rule of the FYZ pipeline for an ID space and max
/// degree, derived once.  Throws std::invalid_argument when the packed
/// state space leaves 64-bit colors.
struct FyzStages {
  FyzStages(std::uint64_t id_space, std::size_t delta)
      : p(fyz_budget(delta)),
        big_l(LinialSchedule(id_space, delta).final_palette()),
        psched(big_l, delta, p),
        // The tolerant AG field: q >= window + 1 so a moving b meets each
        // conflicting neighbor at most once inside the window.
        q(math::next_prime(std::max<std::uint64_t>(
            2 * ((delta + p - 1) / p) + 2, math::ceil_root(psched.classes(), 2)))),
        d1(delta + 1),
        partition(psched),
        arb(psched.classes(), q, p),
        list(d1) {
    // 64-bit packing guard: the widest state is lin * (K * q^2) + machinery.
    if (math::sat_mul(big_l, std::max(math::sat_mul(psched.classes(), q * q),
                                       psched.span)) >=
        (std::uint64_t{1} << 62)) {
      throw std::invalid_argument(
          "color_fyz: Delta too large for 64-bit carrier packing");
    }
  }

  std::uint64_t p;           ///< arbdefect/slack budget
  std::uint64_t big_l;       ///< Linial fixed-point palette L (the carrier)
  PartitionSchedule psched;  ///< stage 2: L -> K = psched.classes()
  std::uint64_t q;           ///< stage 3 field
  std::uint64_t d1;          ///< Delta + 1
  PartitionRule partition;   ///< stage 2 (no rounds when psched is empty)
  FyzArbRule arb;            ///< stage 3
  FyzListRule list;          ///< stage 4
};

}  // namespace agc::coloring::detail
