// Core coloring suite: AG (Section 3), 3AG / AG(N) / mixed (Section 7),
// Linial and Excl-Linial, Cole-Vishkin, reductions, and the end-to-end
// pipelines — including parameterized property sweeps over graph families.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "../src/coloring/fyz_stages.hpp"
#include "agc/arb/defective.hpp"
#include "agc/coloring/ag.hpp"
#include "agc/coloring/ag3.hpp"
#include "agc/coloring/cole_vishkin.hpp"
#include "agc/coloring/kuhn_wattenhofer.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/pipeline.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/graph/generators.hpp"
#include "agc/math/primes.hpp"

namespace {

using namespace agc;
using coloring::Color;

/// rule.step for a vertex with a single neighbor.
Color step1(const runtime::IterativeRule& rule, Color own, Color nbr) {
  return rule.step({}, own, std::span<Color>(&nbr, 1));
}

// ---------------------------------------------------------------------------
// AG (Section 3)
// ---------------------------------------------------------------------------

TEST(AgModulus, SatisfiesBothConstraints) {
  for (std::size_t delta : {1u, 2u, 7u, 40u, 300u}) {
    for (std::uint64_t palette : {4ULL, 100ULL, 10000ULL}) {
      const auto q = coloring::ag_modulus(delta, palette);
      EXPECT_TRUE(math::is_prime(q));
      EXPECT_GT(q, 2 * delta);
      EXPECT_GE(q * q, palette);
    }
  }
}

TEST(Ag, FinalColorsAreFixedPoints) {
  coloring::AgRule rule(11);
  // A final color <0,b> never moves, whatever the neighborhood.
  for (Color b = 0; b < 11; ++b) {
    std::vector<Color> nbrs = {b, b + 11, 120, 3};
    std::sort(nbrs.begin(), nbrs.end());
    EXPECT_EQ(rule.step({}, b, nbrs), b);
    EXPECT_TRUE(rule.is_final(b));
  }
}

TEST(Ag, ConflictShiftsNoConflictFinalizes) {
  coloring::AgRule rule(11);
  const Color c = 3 * 11 + 5;  // <3,5>
  EXPECT_EQ(step1(rule, c, 2 * 11 + 5), 3 * 11 + (5 + 3) % 11);
  EXPECT_EQ(step1(rule, c, 2 * 11 + 6), 5u);  // finalize <0,5>
  // Out-of-range neighbors (other pipeline stages) are ignored.
  EXPECT_EQ(step1(rule, c, 11 * 11 + 5), 5u);
}

TEST(Ag, NeighborPairConflictsAtMostTwicePerWindow) {
  // Lemma 3.3/3.4: two neighbors share a second coordinate at most twice in q
  // rounds (once working/working, once working/final).
  const std::uint64_t q = 13;
  coloring::AgRule rule(q);
  for (Color cu = 0; cu < q * q; cu += 7) {
    for (Color cv = cu + 1; cv < q * q; cv += 11) {
      Color u = cu, v = cv;
      int conflicts = 0;
      for (std::uint64_t round = 0; round < q; ++round) {
        if (u % q == v % q) ++conflicts;
        const Color nu = step1(rule, u, v);
        const Color nv = step1(rule, v, u);
        u = nu;
        v = nv;
      }
      EXPECT_LE(conflicts, 2) << "cu=" << cu << " cv=" << cv;
    }
  }
}

struct GraphCase {
  std::string name;
  std::function<graph::Graph()> make;
};

class AgOnGraphs : public ::testing::TestWithParam<GraphCase> {};

TEST_P(AgOnGraphs, ConvergesWithinBoundProperEveryRound) {
  const auto g = GetParam().make();
  const std::size_t delta = std::max<std::size_t>(g.max_degree(), 1);
  auto lin = coloring::linial_color(g, coloring::identity_coloring(g.n()), g.n(),
                                    delta);
  ASSERT_TRUE(lin.converged);
  const std::uint64_t q =
      coloring::ag_modulus(delta, graph::max_color(lin.colors) + 1);
  auto res = coloring::additive_group_color(g, std::move(lin.colors), delta);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.proper_each_round);
  EXPECT_LE(res.rounds, q);  // Corollary 3.5
  EXPECT_LT(graph::max_color(res.colors), q);
  EXPECT_TRUE(graph::is_proper_coloring(g, res.colors));
}

INSTANTIATE_TEST_SUITE_P(
    Families, AgOnGraphs,
    ::testing::Values(
        GraphCase{"path", [] { return graph::path(60); }},
        GraphCase{"cycle_even", [] { return graph::cycle(60); }},
        GraphCase{"cycle_odd", [] { return graph::cycle(61); }},
        GraphCase{"star", [] { return graph::star(40); }},
        GraphCase{"complete", [] { return graph::complete(20); }},
        GraphCase{"bipartite", [] { return graph::complete_bipartite(12, 17); }},
        GraphCase{"grid", [] { return graph::grid(9, 13); }},
        GraphCase{"tree", [] { return graph::binary_tree(80); }},
        GraphCase{"gnp", [] { return graph::random_gnp(150, 0.07, 5); }},
        GraphCase{"regular", [] { return graph::random_regular(150, 9, 6); }},
        GraphCase{"geometric", [] { return graph::random_geometric(120, 0.12, 7); }},
        GraphCase{"powerlaw", [] { return graph::barabasi_albert(150, 3, 8); }},
        GraphCase{"single_vertex", [] { return graph::Graph(1); }},
        GraphCase{"edgeless", [] { return graph::Graph(12); }}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// 3AG, AG(N), mixed (Section 7)
// ---------------------------------------------------------------------------

TEST(ThreeAg, StepLandsInDeclaredCandidateStates) {
  // Property: from any state, with any neighborhood, the next state is
  // either the state itself (final) or one of the <= 2 colors that
  // Mixed3Rule::candidates declares — the guarantee Excl-Linial leans on.
  coloring::Mixed3Rule rule(6, /*palette=*/13 * 13 * 13 / 2);
  graph::Rng rng(3);
  const std::uint64_t space = rule.space();
  for (int trial = 0; trial < 4000; ++trial) {
    Color own = rng.below(space);
    // Skip the malformed high states the algorithm never writes.
    if (own >= 2 * rule.n() && own < 2 * rule.n() + rule.p()) continue;
    std::vector<Color> nbrs(rng.below(6));
    for (auto& c : nbrs) c = rng.below(space);
    std::sort(nbrs.begin(), nbrs.end());
    const Color next = rule.step({}, own, nbrs);
    if (next == own) continue;
    const auto cands = rule.candidates(own);
    EXPECT_NE(std::find(cands.begin(), cands.end(), next), cands.end())
        << "own=" << own;
  }
}

TEST(ThreeAg, ReducesCubePaletteToP) {
  const auto g = graph::random_regular(400, 6, 4);
  const std::uint64_t p = coloring::three_ag_modulus(6, g.n());
  coloring::ThreeAgRule rule(p);
  runtime::IterativeOptions io;
  io.max_rounds = 2 * p + 2;
  auto res = runtime::run_locally_iterative(
      g, coloring::identity_coloring(g.n()), rule, io);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.proper_each_round);
  EXPECT_LT(graph::max_color(res.colors), p);
}

TEST(Agn, ExactPaletteFromOneAndAHalfDelta) {
  // AG(N) with composite N: proper <2N-coloring -> exactly N colors in <= N
  // rounds.
  const auto g = graph::random_regular(300, 11, 2);  // N = 12 (composite)
  const std::size_t delta = g.max_degree();
  const std::uint64_t N = delta + 1;
  // Seed: a proper coloring with < 2N colors via the (1+eps) pipeline piece.
  auto rep = coloring::color_delta_plus_one(g);
  ASSERT_TRUE(rep.converged);
  auto seed = rep.colors;  // < N already; widen artificially into [0, 2N)
  for (std::size_t v = 0; v < seed.size(); ++v) {
    if (v % 3 == 0) seed[v] += N;  // still proper: +N shifts a proper class set
  }
  // The shifted coloring may be improper (c and c+N collide across classes);
  // repair: keep only shifts that stay proper.
  for (const auto& [u, v] : graph::edge_list(g)) {
    if (seed[u] == seed[v]) seed[u] = rep.colors[u];
  }
  ASSERT_TRUE(graph::is_proper_coloring(g, seed));

  coloring::AgnRule rule(N);
  runtime::IterativeOptions io;
  io.max_rounds = N + 1;
  auto res = runtime::run_locally_iterative(g, seed, rule, io);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.proper_each_round);
  EXPECT_LT(graph::max_color(res.colors), N);
}

class ExactOnGraphs : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ExactOnGraphs, MixedRuleReachesDeltaPlusOne) {
  const auto g = GetParam().make();
  const auto rep = coloring::color_delta_plus_one_exact(g);
  EXPECT_TRUE(rep.converged);
  EXPECT_TRUE(rep.proper);
  EXPECT_TRUE(rep.proper_each_round);
  EXPECT_LE(graph::max_color(rep.colors), std::max<std::size_t>(g.max_degree(), 1));
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExactOnGraphs,
    ::testing::Values(
        GraphCase{"path", [] { return graph::path(50); }},
        GraphCase{"odd_cycle", [] { return graph::cycle(17); }},
        GraphCase{"complete", [] { return graph::complete(15); }},
        GraphCase{"star", [] { return graph::star(30); }},
        GraphCase{"grid", [] { return graph::grid(8, 11); }},
        GraphCase{"gnp", [] { return graph::random_gnp(200, 0.06, 9); }},
        GraphCase{"regular_prime_gap",
                  [] { return graph::random_regular(200, 13, 1); }},
        GraphCase{"geometric", [] { return graph::random_geometric(100, 0.15, 2); }}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Linial / Mod-Linial / Excl-Linial
// ---------------------------------------------------------------------------

TEST(LinialSchedule, StageInvariants) {
  for (std::size_t delta : {1u, 4u, 16u, 64u}) {
    for (std::uint64_t ids : {100ULL, 1ULL << 20, 1ULL << 45}) {
      coloring::LinialSchedule sched(ids, delta);
      std::uint64_t palette = ids;
      for (std::size_t i = 0; i < sched.stages(); ++i) {
        const auto& st = sched.stage(i);
        EXPECT_EQ(st.from_palette, palette);
        EXPECT_TRUE(math::is_prime(st.q));
        EXPECT_GT(st.q, st.d * delta);  // eval point always exists
        // Coverage: q^{d+1} >= palette.
        long double pow = 1;
        for (std::uint32_t k = 0; k <= st.d; ++k) pow *= st.q;
        EXPECT_GE(pow, static_cast<long double>(palette));
        EXPECT_LT(st.to_palette, palette);  // strict progress
        palette = st.to_palette;
      }
      // Fixed point is O(Delta^2): final field size <= ~4 Delta.
      if (sched.stages() > 0) {
        EXPECT_LE(sched.final_palette(),
                  (4 * delta + 6) * (4 * delta + 6));
      }
      // Intervals are disjoint and stacked.
      for (std::size_t j = 0; j + 1 <= sched.stages(); ++j) {
        EXPECT_EQ(sched.offset(j + 1), sched.offset(j) + sched.interval_size(j));
      }
    }
  }
}

TEST(LinialSchedule, LogStarManyStages) {
  const coloring::LinialSchedule sched(1ULL << 60, 8);
  EXPECT_GE(sched.stages(), 2u);
  EXPECT_LE(sched.stages(), 8u);  // log* 2^60 + O(1)
}

TEST(Linial, RunsInScheduleManyRounds) {
  const auto g = graph::random_regular(500, 10, 12);
  const std::uint64_t ids = static_cast<std::uint64_t>(g.n()) << 30;
  coloring::LinialSchedule sched(ids, 10);
  auto res = coloring::linial_color(g, coloring::identity_coloring(g.n()), ids, 10);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.proper_each_round);
  EXPECT_EQ(res.rounds, sched.stages());
  EXPECT_LT(graph::max_color(res.colors), sched.final_palette());
}

TEST(LinialSchedule, ZeroStagesHoldTheInitialPalette) {
  // 100 IDs at Delta = 10 are already below the O(Delta^2) fixed point, so
  // interval 0 is the ID space itself and every ID is final.
  const coloring::LinialSchedule sched(100, 10);
  ASSERT_EQ(sched.stages(), 0u);
  EXPECT_EQ(sched.final_palette(), 100u);
  EXPECT_EQ(sched.total_span(), 100u);
  EXPECT_EQ(coloring::LinialSchedule(100, 10, false, 150).final_palette(), 150u);
  const coloring::LinialRule rule(sched);
  EXPECT_EQ(rule.color_bits(), 7u);
  const auto g = graph::random_regular(100, 10, 3);
  runtime::IterativeOptions opts;
  opts.max_rounds = 5;
  const auto res = runtime::run_locally_iterative(
      g, coloring::identity_coloring(g.n()), rule, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.rounds, 0u);
  EXPECT_EQ(res.colors, coloring::identity_coloring(g.n()));
}

// Every stage of every digit-polynomial schedule, pinned to the values the
// three stage-search loops that linial_stages replaced produced
// (LinialSchedule's, FYZ's PartitionSchedule's and arb's best_stage).  A row
// is one schedule at one budget; its text lists "q/d/to" per stage for every
// Delta and palette, and its FNV-1a digest is the pin.  FYZ never runs with
// budget 0 (fyz_budget >= 1), so only the defective rows cover it.
std::string stage_text(std::span<const coloring::LinialStage> stages) {
  std::string s;
  for (const auto& st : stages) {
    s += " " + std::to_string(st.q) + "/" + std::to_string(st.d) + "/" +
         std::to_string(st.to_palette);
  }
  return s;
}

TEST(StageSearch, EveryScheduleMatchesItsPin) {
  constexpr std::uint64_t kPalettes[] = {
      1, 2, 3, 10, 100, 1000, 12345, 1ULL << 16, 1000000, 1ULL << 20, 1ULL << 24,
      1000000007ULL, 1ULL << 32, 1ULL << 40, 1ULL << 48, 1ULL << 52, 1ULL << 56,
      1ULL << 60};
  constexpr std::size_t kDeltas[] = {0, 1, 2, 5, 16, 37, 256};
  struct Row {
    const char* name;
    std::uint64_t budget;
    std::uint64_t want;
  };
  constexpr Row kRows[] = {
      {"linial", 1, 0x2965fb0d57ad6035ULL},
      {"linial-excl", 1, 0x976448eeaecb6cabULL},
      {"fyz", 1, 0x15e98ff0bbaf5a00ULL},
      {"fyz", 2, 0x33b3fbed9d0f812fULL},
      {"fyz", 5, 0x50bec03655c115d5ULL},
      {"defective", 0, 0x008749c59b826a57ULL},
      {"defective", 1, 0x4fba37ca55252e1fULL},
      {"defective", 2, 0x95c7ca709f88d8f6ULL},
      {"defective", 5, 0xa29d532910ed1a03ULL},
  };
  const auto schedule = [](const std::string& name, std::uint64_t palette,
                           std::size_t delta, std::uint64_t budget) {
    if (name == "fyz") {
      return coloring::detail::PartitionSchedule(palette, delta, budget).stages;
    }
    if (name == "defective") {
      // arb::defective_color's chain (its log* + 10 cap never binds here).
      return coloring::linial_stages(palette, std::max<std::size_t>(delta, 1),
                                     budget);
    }
    const coloring::LinialSchedule sched(palette, delta, name == "linial-excl");
    std::vector<coloring::LinialStage> stages;
    for (std::size_t i = 0; i < sched.stages(); ++i) stages.push_back(sched.stage(i));
    return stages;
  };
  for (const Row& row : kRows) {
    std::string text;
    for (const std::size_t delta : kDeltas) {
      for (const std::uint64_t palette : kPalettes) {
        text += std::string(row.name) + " b=" + std::to_string(row.budget) +
                " delta=" + std::to_string(delta) +
                " palette=" + std::to_string(palette) + ":" +
                stage_text(schedule(row.name, palette, delta, row.budget)) + "\n";
      }
    }
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
    EXPECT_EQ(h, row.want) << text;
  }
  // Two rows spelled out, and arb::defective_color running exactly its chain.
  EXPECT_EQ(stage_text(schedule("linial", 1ULL << 60, 16, 1)),
            " 131/8/17161 37/2/1369");
  EXPECT_EQ(stage_text(schedule("fyz", 1ULL << 60, 16, 2)),
            " 73/9/5329 19/2/361 17/2/289");
  const auto g = graph::random_regular(200, 8, 1);
  const auto chain = coloring::linial_stages(1ULL << 20, 8, 2);
  const auto defective = arb::defective_color(g, 2, 1ULL << 20);
  EXPECT_EQ(defective.rounds, chain.size());
  EXPECT_EQ(defective.palette_bound, chain.back().to_palette);
}

TEST(ModLinial, ExclForbiddenColorsAvoided) {
  const std::size_t delta = 6;
  coloring::LinialSchedule sched(1000, delta, /*excl_headroom=*/true);
  const auto& last = sched.stage(sched.stages() - 1);
  EXPECT_EQ(last.d, 2u);
  EXPECT_GE(last.q, 4 * delta + 1);

  // Forbid a batch of interval-0 colors; the step must dodge all of them.
  const Color off = sched.offset(1);
  const std::vector<Color> nbrs = {off + 1, off + 2, off + 3};  // same interval
  std::vector<Color> forbidden;
  for (Color c = 0; c < 2 * delta; ++c) forbidden.push_back(c);
  for (std::uint64_t x = 10; x < 30; ++x) {
    const Color out = coloring::mod_linial_step(sched, 1, off + x, nbrs, [&](Color c) {
      return std::find(forbidden.begin(), forbidden.end(), c) != forbidden.end();
    });
    EXPECT_LT(out, sched.interval_size(0));
    EXPECT_EQ(std::find(forbidden.begin(), forbidden.end(), out), forbidden.end());
  }
}

TEST(ModLinial, SameIntervalNeighborsGetDistinctColors) {
  const std::size_t delta = 5;
  // The ID space holds every index below, so all six share the top interval.
  coloring::LinialSchedule sched(1000000, delta);
  const std::size_t j = sched.stages();  // topmost interval
  const Color off = sched.offset(j);
  // Any set of <= delta+1 distinct palette indices maps to distinct pairs.
  std::vector<Color> group = {17, 4242, 999, 31337, 271828, 55};
  for (Color& c : group) c += off;
  for (std::size_t i = 0; i < group.size(); ++i) {
    std::vector<Color> others;
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (k != i) others.push_back(group[k]);
    }
    const Color ci = coloring::mod_linial_step(sched, j, group[i], others);
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (k == i) continue;
      std::vector<Color> rest;
      for (std::size_t m = 0; m < group.size(); ++m) {
        if (m != k) rest.push_back(group[m]);
      }
      EXPECT_NE(ci, coloring::mod_linial_step(sched, j, group[k], rest));
    }
  }
}

// ---------------------------------------------------------------------------
// Cole-Vishkin
// ---------------------------------------------------------------------------

TEST(ColeVishkin, StepKeepsAdjacentDistinct) {
  graph::Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t a = rng.below(1ULL << 32);
    std::uint64_t b = rng.below(1ULL << 32);
    if (a == b) ++b;
    // If x,y adjacent (y = pred of x) then step(x, y) != step(y, z) for any z
    // that differs from y.
    std::uint64_t z = rng.below(1ULL << 32);
    if (z == b) ++z;
    EXPECT_NE(coloring::cv::step(a, b), coloring::cv::step(b, z));
  }
}

TEST(ColeVishkin, ChainsAndCyclesThreeColored) {
  // One long path, one even cycle, one odd cycle, one singleton.
  const std::size_t n = 402;
  std::vector<std::size_t> succ(n, coloring::cv::npos);
  std::vector<std::uint64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i * 37 % 100003;
  for (std::size_t i = 0; i + 1 < 200; ++i) succ[i] = i + 1;        // path 0..199
  for (std::size_t i = 200; i < 300; ++i) succ[i] = i + 1;          // cycle 200..300
  succ[300] = 200;
  for (std::size_t i = 301; i < 400; ++i) succ[i] = i + 1;          // odd cycle
  succ[400] = 301;
  const auto out = coloring::cv::three_color_chains(succ, ids, 100003);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(out.colors[i], 3u);
    if (succ[i] != coloring::cv::npos) {
      EXPECT_NE(out.colors[i], out.colors[succ[i]]) << i;
    }
  }
  EXPECT_LE(out.rounds, static_cast<std::size_t>(
                            coloring::cv::rounds_to_six(100003ULL * 100003) + 3));
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

TEST(GreedyReduce, BoundAndProperness) {
  const auto g = graph::random_regular(300, 8, 19);
  auto rep = coloring::color_o_delta(g);
  ASSERT_TRUE(rep.converged);
  const Color k = graph::max_color(rep.colors) + 1;
  auto res = coloring::reduce_colors(g, rep.colors, 9);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.proper_each_round);
  EXPECT_LE(res.rounds, static_cast<std::size_t>(k - 9) + 1);
  EXPECT_LT(graph::max_color(res.colors), 9u);
}

TEST(KuhnWattenhofer, ScheduleHalves) {
  coloring::KwSchedule sched(1000, 9);
  EXPECT_EQ(sched.size(sched.phases()), 10u);
  for (std::size_t k = 0; k + 1 <= sched.phases(); ++k) {
    EXPECT_LT(sched.size(k + 1), sched.size(k));
    // One halving step: ceil(m / 2(D+1)) * (D+1).
    const std::uint64_t expect = (sched.size(k) + 19) / 20 * 10;
    EXPECT_EQ(sched.size(k + 1), expect);
  }
}

/// KwRule::step as it was first written, kept as the reference: every
/// neighbor is located with KwSchedule::interval_of and decoded with / and %.
Color kw_reference_step(const coloring::KwSchedule& sched, Color own,
                        std::vector<Color> neighbors) {
  const std::size_t last = sched.phases();
  const std::size_t k = sched.interval_of(own);
  if (k == last) return own;
  const std::uint64_t target = sched.delta() + 1;
  const std::uint64_t block_size = 2 * target;
  const std::uint64_t x = own - sched.offset(k);
  const std::uint64_t block = x / block_size;
  const std::uint64_t pos = x % block_size;
  const std::uint64_t down_off = sched.offset(k + 1);
  for (const Color nc : neighbors) {
    if (sched.interval_of(nc) < k) return own;
  }
  if (pos < target) return down_off + block * target + pos;
  for (const Color nc : neighbors) {
    if (sched.interval_of(nc) != k) continue;
    const std::uint64_t nx = nc - sched.offset(k);
    if (nx / block_size == block && nx > x) return own;
  }
  std::vector<Color> taken;
  for (const Color nc : neighbors) {
    const std::size_t nk = sched.interval_of(nc);
    if (nk == k) {
      const std::uint64_t nx = nc - sched.offset(k);
      if (nx / block_size == block && nx % block_size < target) {
        taken.push_back(nx % block_size);
      }
    } else if (nk == k + 1) {
      const std::uint64_t ny = nc - down_off;
      if (ny / target == block) taken.push_back(ny % target);
    }
  }
  return down_off + block * target + coloring::smallest_free(taken);
}

TEST(KuhnWattenhofer, StepMatchesTheIntervalScanReference) {
  // Random schedules, own colors in every interval, and neighborhoods drawn
  // from a higher interval, own block (both halves), the block's slots one
  // interval down, and anywhere at all.
  std::mt19937_64 rng(2024);
  std::size_t held = 0;
  std::size_t descended = 0;
  std::size_t acted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t delta = 1 + rng() % 40;
    const coloring::KwSchedule sched(1 + rng() % 50000, delta);
    const coloring::KwRule rule(sched);
    const std::uint64_t target = delta + 1;
    const std::uint64_t top = sched.offset(0) + sched.size(0);
    const auto in_interval = [&](std::size_t k) {
      return sched.offset(k) + rng() % sched.size(k);
    };
    for (int step = 0; step < 100; ++step) {
      const std::size_t k = rng() % (sched.phases() + 1);
      const Color own = in_interval(k);
      const std::uint64_t block = (own - sched.offset(k)) / (2 * target);
      const Color block_lo = sched.offset(k) + block * 2 * target;
      const bool may_hold = k > 0 && rng() % 2 == 0;
      std::vector<Color> nbrs(rng() % (delta + 1));
      for (Color& nc : nbrs) {
        switch (rng() % 4) {
          case 0:
            nc = may_hold && rng() % 8 == 0 ? in_interval(k - 1) : rng() % top;
            break;
          case 1:
            nc = block_lo + rng() % (2 * target);
            if (nc >= sched.offset(k) + sched.size(k)) nc = in_interval(k);
            break;
          case 2:
            nc = k < sched.phases()
                     ? sched.offset(k + 1) + block * target + rng() % target
                     : in_interval(k);
            break;
          default:
            nc = in_interval(rng() % (sched.phases() + 1));
        }
      }
      std::vector<Color> scratch = nbrs;
      const Color got = rule.step({}, own, scratch);
      ASSERT_EQ(got, kw_reference_step(sched, own, nbrs))
          << "delta=" << delta << " own=" << own << " deg=" << nbrs.size();
      if (k == sched.phases()) continue;
      if (got == own) {
        ++held;
      } else if ((own - sched.offset(k)) % (2 * target) < target) {
        ++descended;
      } else {
        ++acted;
      }
    }
  }
  EXPECT_GT(held, 1000u);
  EXPECT_GT(descended, 1000u);
  EXPECT_GT(acted, 1000u);
}

TEST(KuhnWattenhofer, ProperEveryRoundOnFamilies) {
  for (const auto& make :
       {std::function<graph::Graph()>{[] { return graph::complete(12); }},
        std::function<graph::Graph()>{[] { return graph::random_gnp(200, 0.05, 3); }},
        std::function<graph::Graph()>{[] { return graph::grid(7, 9); }}}) {
    const auto g = make();
    const auto rep = coloring::color_kuhn_wattenhofer(g);
    EXPECT_TRUE(rep.converged);
    EXPECT_TRUE(rep.proper);
    EXPECT_TRUE(rep.proper_each_round);
    EXPECT_LE(graph::max_color(rep.colors),
              std::max<std::size_t>(g.max_degree(), 1));
  }
}

// ---------------------------------------------------------------------------
// Pipelines under restricted models
// ---------------------------------------------------------------------------

TEST(Pipelines, SetLocalIsTheDefaultAndWorks) {
  const auto g = graph::random_regular(200, 7, 23);
  coloring::PipelineOptions opts;  // SET_LOCAL default
  const auto rep = coloring::color_delta_plus_one(g, opts);
  EXPECT_TRUE(rep.converged && rep.proper && rep.proper_each_round);
}

TEST(Pipelines, CongestWithWideEnoughBand) {
  const auto g = graph::random_regular(200, 7, 29);
  coloring::PipelineOptions opts;
  opts.iter.model = runtime::Model::CONGEST;
  opts.iter.congest_bits = 40;
  const auto rep = coloring::color_delta_plus_one(g, opts);
  EXPECT_TRUE(rep.converged && rep.proper);
}

TEST(Pipelines, RoundBoundsOrdering) {
  // O(Delta) pipeline beats the O(Delta log Delta) and O(Delta^2) baselines
  // at large Delta.
  const auto g = graph::random_regular(600, 48, 31);
  const auto ours = coloring::color_delta_plus_one(g);
  const auto kw = coloring::color_kuhn_wattenhofer(g);
  const auto gps = coloring::color_linial_greedy(g);
  ASSERT_TRUE(ours.converged && kw.converged && gps.converged);
  EXPECT_LT(ours.rounds, kw.rounds);
  EXPECT_LT(kw.rounds, gps.rounds);
}

}  // namespace
