// Exhaustive and randomized property tests for the update rules themselves:
// properness preservation over ALL small configurations (the inductive heart
// of Lemmas 3.2, 7.1 and 7.4), state-space closure, and determinism.
#include <gtest/gtest.h>

#include <span>

#include "agc/coloring/ag.hpp"
#include "agc/coloring/ag3.hpp"
#include "agc/coloring/kuhn_wattenhofer.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/pipeline.hpp"
#include "agc/graph/generators.hpp"

namespace {

using namespace agc;
using coloring::Color;

/// Apply `rule` synchronously on a triangle/path of 3 vertices with colors
/// (a, b, c); returns the next colors.  Vertex 1 is adjacent to 0 and 2;
/// 0 and 2 are adjacent iff `triangle`.
template <typename Rule>
std::array<Color, 3> step3(const Rule& rule, Color a, Color b, Color c,
                           bool triangle) {
  auto ms = [](std::initializer_list<Color> xs) {
    std::vector<Color> v(xs);
    std::sort(v.begin(), v.end());
    return v;
  };
  auto of_a = triangle ? ms({b, c}) : ms({b});
  auto of_b = ms({a, c});
  auto of_c = triangle ? ms({a, b}) : ms({b});
  return {rule.step({}, a, of_a), rule.step({}, b, of_b), rule.step({}, c, of_c)};
}

/// rule.step for a vertex with a single neighbor.
template <typename Rule>
Color step1(const Rule& rule, Color own, Color nbr) {
  return rule.step({}, own, std::span<Color>(&nbr, 1));
}

TEST(ExhaustiveAg, PathAndTriangleProper) {
  // Lemma 3.2 checked over every proper configuration with q = 5.
  const std::uint64_t q = 5;
  coloring::AgRule rule(q);
  for (Color a = 0; a < q * q; ++a) {
    for (Color b = 0; b < q * q; ++b) {
      if (b == a) continue;
      for (Color c = 0; c < q * q; ++c) {
        if (c == b) continue;
        {  // path 0-1-2 (a==c allowed)
          const auto [na, nb, nc] = step3(rule, a, b, c, false);
          EXPECT_NE(na, nb) << a << "," << b << "," << c;
          EXPECT_NE(nb, nc) << a << "," << b << "," << c;
        }
        if (c != a) {  // triangle
          const auto [na, nb, nc] = step3(rule, a, b, c, true);
          EXPECT_NE(na, nb);
          EXPECT_NE(nb, nc);
          EXPECT_NE(na, nc);
        }
      }
    }
  }
}

TEST(ExhaustiveAgn, EdgeProper) {
  const std::uint64_t N = 6;  // composite group
  coloring::AgnRule rule(N);
  for (Color a = 0; a < 2 * N; ++a) {
    for (Color b = 0; b < 2 * N; ++b) {
      if (a == b) continue;
      const Color na = step1(rule, a, b);
      const Color nb = step1(rule, b, a);
      EXPECT_NE(na, nb) << a << "," << b;
      EXPECT_LT(na, 2 * N);
    }
  }
}

TEST(ExhaustiveMixed, EdgeProper) {
  // Lemma 7.4's induction over every proper pair of mixed states (Delta=2).
  coloring::MixedRule rule(2, /*palette=*/25);
  const std::uint64_t space = 2 * rule.n() + rule.p() * rule.p();
  for (Color a = 0; a < space; ++a) {
    for (Color b = 0; b < space; ++b) {
      if (a == b) continue;
      const Color na = step1(rule, a, b);
      const Color nb = step1(rule, b, a);
      EXPECT_NE(na, nb) << a << "," << b;
      EXPECT_LT(na, space);
    }
  }
}

TEST(ExhaustiveMixed3, EdgeProper) {
  coloring::Mixed3Rule rule(2, /*palette=*/125);
  const std::uint64_t space = rule.space();
  const std::uint64_t low = 2 * rule.n();
  for (Color a = 0; a < space; ++a) {
    if (a >= low && a < low + rule.p()) continue;  // malformed high states
    for (Color b = 0; b < space; ++b) {
      if (a == b || (b >= low && b < low + rule.p())) continue;
      const Color na = step1(rule, a, b);
      const Color nb = step1(rule, b, a);
      EXPECT_NE(na, nb) << a << "," << b;
      EXPECT_LT(na, space);
    }
  }
}

TEST(RandomizedMixed3, TriangleProper) {
  coloring::Mixed3Rule rule(4, /*palette=*/300);
  const std::uint64_t space = rule.space();
  const std::uint64_t low = 2 * rule.n();
  graph::Rng rng(9);
  auto valid = [&](Color c) { return c < low || c >= low + rule.p(); };
  int done = 0;
  while (done < 30000) {
    const Color a = rng.below(space);
    const Color b = rng.below(space);
    const Color c = rng.below(space);
    if (a == b || b == c || a == c) continue;
    if (!valid(a) || !valid(b) || !valid(c)) continue;
    ++done;
    const auto [na, nb, nc] = step3(rule, a, b, c, true);
    ASSERT_NE(na, nb) << a << "," << b << "," << c;
    ASSERT_NE(nb, nc) << a << "," << b << "," << c;
    ASSERT_NE(na, nc) << a << "," << b << "," << c;
  }
}

TEST(RandomizedKw, SameIntervalPairsStayProper) {
  // Pairwise properness holds unconditionally for same-interval neighbors;
  // cross-interval configurations are constrained by the run invariant
  // (descents are injective and picks exclude occupied positions), which the
  // per-round properness checks of every KW run cover.
  coloring::KwSchedule sched(200, 4);
  coloring::KwRule rule(sched);
  const std::uint64_t span = sched.offset(0) + sched.size(0);
  graph::Rng rng(12);
  int done = 0;
  while (done < 20000) {
    const Color a = rng.below(span);
    const Color b = rng.below(span);
    if (a == b || sched.interval_of(a) != sched.interval_of(b)) continue;
    ++done;
    const Color na = step1(rule, a, b);
    const Color nb = step1(rule, b, a);
    ASSERT_NE(na, nb) << a << "," << b;
    ASSERT_LT(na, span);
  }
}

TEST(RandomizedLinial, ProperPairsStayProper) {
  coloring::LinialSchedule sched(100000, 3);
  coloring::LinialRule rule(sched);
  const std::uint64_t span = sched.total_span();
  graph::Rng rng(21);
  int done = 0;
  while (done < 5000) {
    const Color a = rng.below(span);
    const Color b = rng.below(span);
    if (a == b) continue;
    ++done;
    const Color na = step1(rule, a, b);
    const Color nb = step1(rule, b, a);
    ASSERT_NE(na, nb) << a << "," << b;
    ASSERT_LT(na, span);
  }
}

TEST(Determinism, PipelinesAreReproducible) {
  const auto g = graph::random_gnp(150, 0.06, 77);
  const auto a = coloring::color_delta_plus_one(g);
  const auto b = coloring::color_delta_plus_one(g);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
}

TEST(Monotonicity, FinalizedAgVerticesNeverChange) {
  // Once a vertex holds a final AG color, no later round moves it — checked
  // along a real run via the trace hook.
  const auto g = graph::random_regular(200, 10, 31);
  auto lin = coloring::linial_color(g, coloring::identity_coloring(g.n()), g.n(),
                                    10);
  const std::uint64_t q =
      coloring::ag_modulus(10, graph::max_color(lin.colors) + 1);
  coloring::AgRule rule(q);
  std::vector<Color> prev;
  runtime::IterativeOptions io;
  io.on_round = [&](std::size_t, std::span<const Color> colors) {
    if (!prev.empty()) {
      for (std::size_t v = 0; v < colors.size(); ++v) {
        if (rule.is_final(prev[v])) {
          EXPECT_EQ(colors[v], prev[v]) << v;
        }
      }
    }
    prev.assign(colors.begin(), colors.end());
  };
  auto res = runtime::run_locally_iterative(g, std::move(lin.colors), rule, io);
  EXPECT_TRUE(res.converged);
}

}  // namespace
