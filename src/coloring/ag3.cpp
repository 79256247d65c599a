#include "agc/coloring/ag3.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "agc/coloring/ag.hpp"
#include "agc/math/primes.hpp"

namespace agc::coloring {

std::uint64_t three_ag_modulus(std::size_t delta, std::uint64_t palette) {
  const auto cbrt_pal = static_cast<std::uint64_t>(
      std::ceil(std::cbrt(static_cast<double>(palette))));
  return math::next_prime(std::max<std::uint64_t>(3 * delta + 1, cbrt_pal));
}

Color ThreeAgRule::step(runtime::StepContext, Color own,
                        std::span<Color> neighbors) const {
  const std::uint64_t p = code_.p;
  const std::uint64_t cv = code_.c(own);
  const std::uint64_t bv = code_.b(own);
  const std::uint64_t av = code_.a(own);

  auto any_neighbor = [&](auto pred) {
    for (Color nc : neighbors) {
      if (code_.in_range(nc) && pred(nc)) return true;
    }
    return false;
  };

  if (cv != 0) {
    // Working on the b-coordinate.  Neighbors with the SAME first coordinate
    // drift in lockstep, so a shared b would never resolve — but it never
    // needs to: such neighbors finalize to distinct triples (their a's
    // differ by properness), so they are excluded from the conflict test.
    if (!any_neighbor(
            [&](Color nc) { return code_.b(nc) == bv && code_.c(nc) != cv; })) {
      return code_.encode(0, bv, av);
    }
    return code_.encode(cv, (bv + cv) % p, av);
  }
  // c == 0: working on the a-coordinate.
  if (!any_neighbor([&](Color nc) { return code_.a(nc) == av; })) {
    return code_.encode(0, 0, av);
  }
  return code_.encode(0, bv, (av + bv) % p);
}

std::uint32_t ThreeAgRule::color_bits() const {
  return runtime::width_of(code_.p * code_.p * code_.p - 1);
}

Color AgnRule::step(runtime::StepContext, Color own,
                    std::span<Color> neighbors) const {
  const std::uint64_t b = own / n_;
  const std::uint64_t a = own % n_;
  if (b == 0) return own;  // final
  // Conflict iff some neighbor (working or final) has the same value
  // coordinate.  Working neighbors <1,a'> with a' != a can never drift into
  // conflict (both shift by 1 per round), so only finalized values matter.
  bool conflict = false;
  for (Color nc : neighbors) {
    if (nc < 2 * n_ && nc % n_ == a) {
      conflict = true;
      break;
    }
  }
  if (!conflict) return a;
  return n_ + (a + 1) % n_;
}

namespace {
std::uint64_t largest_prime_at_most(std::uint64_t x) {
  while (x >= 2 && !math::is_prime(x)) --x;
  return x;
}
}  // namespace

MixedRule::MixedRule(std::size_t delta, std::uint64_t palette)
    : n_(delta + 1), p_(largest_prime_at_most(2 * delta + 1)), delta_(delta) {
  if (delta_ == 0) return;  // edgeless graphs: step() collapses everything to 0
  if (p_ < 2) throw std::logic_error("MixedRule: no usable prime");
  if (palette > p_ * p_) {
    throw std::logic_error(
        "MixedRule: input palette exceeds p^2; pre-reduce with AG first");
  }
}

Color MixedRule::lift(Color proper_color) const {
  if (delta_ == 0) return 0;
  if (proper_color < 2 * n_) return proper_color;  // already a low state
  return 2 * n_ + proper_color;                    // high state (b >= 1 since c >= 2N > p)
}

std::size_t MixedRule::round_bound() const {
  if (delta_ == 0) return 1;
  // eps = p/delta - 1; Corollary 7.3: O((1/eps) * p) rounds for the high
  // phase, plus <= N rounds for each low phase, plus slack.
  const double eps =
      std::max(0.05, static_cast<double>(p_) / static_cast<double>(delta_) - 1.0);
  const auto phases = static_cast<std::size_t>(2.0 + 1.0 / eps);
  return static_cast<std::size_t>(2 * n_) + phases * static_cast<std::size_t>(p_ + 1) +
         static_cast<std::size_t>(2 * n_) + 16;
}

Color MixedRule::transition(Color own, bool value_conflict,
                            bool low_working_neighbor) const {
  if (delta_ == 0) return 0;
  const std::uint64_t N = n_;
  if (own < 2 * N) {
    // Low state: AG(N).
    const std::uint64_t b = own / N;
    const std::uint64_t a = own % N;
    if (b == 0) return own;  // final
    if (!value_conflict) return a;
    return N + (a + 1) % N;
  }
  // High state: AG(p) with the finalize gate.
  const std::uint64_t y = own - 2 * N;
  const std::uint64_t b = y / p_;
  const std::uint64_t a = y % p_;
  if (!value_conflict && !low_working_neighbor) return a;  // drop to low range
  return 2 * N + b * p_ + (a + b) % p_;
}

Color MixedRule::step(runtime::StepContext, Color own,
                      std::span<Color> neighbors) const {
  if (delta_ == 0) return 0;
  const std::uint64_t N = n_;
  if (own < 2 * N) {
    // Low conflict: a neighbor (working or final, high neighbors ignored)
    // with the same value coordinate.
    const std::uint64_t a = own % N;
    bool conflict = false;
    for (Color nc : neighbors) {
      if (nc < 2 * N && nc % N == a) {
        conflict = true;
        break;
      }
    }
    return transition(own, conflict, /*low_working_neighbor=*/false);
  }
  // High conflict: value collision among high neighbors / low finals; the
  // gate closes while any low neighbor is still working.
  const std::uint64_t a = (own - 2 * N) % p_;
  bool gate_closed = false;
  bool conflict = false;
  for (Color nc : neighbors) {
    if (nc >= N && nc < 2 * N) gate_closed = true;
    if (nc >= 2 * N && (nc - 2 * N) % p_ == a) conflict = true;
    if (nc < N && nc == a) conflict = true;
  }
  return transition(own, conflict, gate_closed);
}

std::uint32_t MixedRule::color_bits() const {
  if (delta_ == 0) return 1;
  return runtime::width_of(2 * n_ + p_ * p_ - 1);
}

Mixed3Rule::Mixed3Rule(std::size_t delta, std::uint64_t palette)
    : n_(delta + 1), p_(largest_prime_at_most(2 * delta + 1)), delta_(delta) {
  if (delta_ == 0) return;
  if (p_ < 2 || p_ * p_ * p_ < palette) {
    throw std::logic_error(
        "Mixed3Rule: input palette exceeds p^3; pre-reduce with AG first");
  }
}

Color Mixed3Rule::lift(Color proper_color) const {
  if (delta_ == 0) return 0;
  if (proper_color < 2 * n_) return proper_color;
  return 2 * n_ + proper_color;
}

std::size_t Mixed3Rule::round_bound() const {
  if (delta_ == 0) return 1;
  const double eps =
      std::max(0.05, static_cast<double>(p_) / static_cast<double>(delta_) - 1.0);
  const auto phases = static_cast<std::size_t>(2.0 + 1.0 / eps);
  return 4 * static_cast<std::size_t>(n_) + phases * 3 * static_cast<std::size_t>(p_) +
         32;
}

Color Mixed3Rule::step(runtime::StepContext, Color own,
                       std::span<Color> neighbors) const {
  if (delta_ == 0) return 0;
  const std::uint64_t N = n_;
  const std::uint64_t p = p_;

  if (own < 2 * N) {
    // Low state: AG(N), ignoring high neighbors.
    const std::uint64_t b = own / N;
    const std::uint64_t a = own % N;
    if (b == 0) return own;
    bool conflict = false;
    for (Color nc : neighbors) {
      if (nc < 2 * N && nc % N == a) {
        conflict = true;
        break;
      }
    }
    if (!conflict) return a;
    return N + (a + 1) % N;
  }

  // High state: 3AG(p) with the finalize gate.
  const std::uint64_t y = own - 2 * N;
  const std::uint64_t cv = y / (p * p);
  const std::uint64_t bv = (y / p) % p;
  const std::uint64_t av = y % p;

  bool gate_open = true;
  bool b_conflict = false;  // vs high neighbors' b-coordinate
  bool a_conflict = false;  // vs high neighbors' a-coordinate and low finals
  for (Color nc : neighbors) {
    if (nc >= N && nc < 2 * N) gate_open = false;
    if (nc >= 2 * N) {
      const std::uint64_t ny = nc - 2 * N;
      // Same-c neighbors drift in lockstep and finalize to distinct states;
      // they are excluded from the b-test (see ThreeAgRule::step).
      if ((ny / p) % p == bv && ny / (p * p) != cv) b_conflict = true;
      if (ny % p == av) a_conflict = true;
    }
    if (nc < N && nc == av) a_conflict = true;
  }

  auto enc = [&](std::uint64_t c, std::uint64_t b, std::uint64_t a) {
    return 2 * N + (c * p + b) * p + a;
  };

  if (cv != 0) {
    if (b_conflict) return enc(cv, (bv + cv) % p, av);
    if (bv != 0) return enc(0, bv, av);  // c-coordinate done, not yet final
    // <c,0,a> would finalize straight to <0,0,a>; allowed only if the value
    // is free and no low neighbor is still working.
    if (!a_conflict && gate_open) return av;  // exit to the low range
    return enc(cv, cv, av);                   // blocked: b circles to c
  }
  // cv == 0 (and bv != 0 — <0,0,a> never persists in the high range).
  if (!a_conflict && gate_open) return av;  // exit to the low range
  return enc(0, bv, (av + bv) % p);
}

std::uint32_t Mixed3Rule::color_bits() const {
  if (delta_ == 0) return 1;
  return runtime::width_of(space() - 1);
}

std::vector<Color> Mixed3Rule::candidates(Color own) const {
  std::vector<Color> out;
  if (delta_ == 0) return out;
  const std::uint64_t N = n_;
  const std::uint64_t p = p_;
  if (own < N) return {own};  // final: keeps its color forever, so forbid it
  if (own < 2 * N) {
    const std::uint64_t a = own % N;
    out = {a, N + (a + 1) % N};
    return out;
  }
  const std::uint64_t y = own - 2 * N;
  const std::uint64_t cv = y / (p * p);
  const std::uint64_t bv = (y / p) % p;
  const std::uint64_t av = y % p;
  auto enc = [&](std::uint64_t c, std::uint64_t b, std::uint64_t a) {
    return 2 * N + (c * p + b) * p + a;
  };
  if (cv != 0) {
    if (bv != 0) {
      out = {enc(0, bv, av), enc(cv, (bv + cv) % p, av)};
    } else {
      out = {av, enc(cv, cv, av)};
    }
  } else {
    out = {av, enc(0, bv, (av + bv) % p)};
  }
  return out;
}

runtime::IterativeResult exact_delta_plus_one(graph::GraphView g,
                                              std::vector<Color> initial,
                                              std::size_t delta,
                                              const runtime::IterativeOptions& opts) {
  const std::uint64_t p = largest_prime_at_most(2 * delta + 1);
  Color palette = graph::max_color(initial) + 1;
  runtime::IterativeResult pre;
  const bool needs_pre = delta > 0 && palette > p * p;
  if (needs_pre) {
    // Input too wide for the mixed encoding: one plain AG pass first.
    pre = additive_group_color(g, std::move(initial), delta, opts);
    initial = std::move(pre.colors);
    palette = graph::max_color(initial) + 1;
  }

  MixedRule rule(delta, palette);
  for (Color& c : initial) c = rule.lift(c);
  runtime::IterativeOptions capped = opts;
  capped.max_rounds = std::min(opts.max_rounds, rule.round_bound());
  auto result = run_locally_iterative(g, std::move(initial), rule, capped);
  if (needs_pre) {
    result.rounds += pre.rounds;
    result.proper_each_round = result.proper_each_round && pre.proper_each_round;
    result.metrics.rounds += pre.metrics.rounds;
    result.metrics.messages += pre.metrics.messages;
    result.metrics.total_bits += pre.metrics.total_bits;
  }
  return result;
}

}  // namespace agc::coloring
