// The streaming (O(1)-memory) Mod-Linial step against a materializing
// oracle, the structured generators' arithmetic, ArbAgRule unit behavior,
// and unit tests of every branch of the self-stabilizing step function.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "agc/arb/arbag.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/pipeline.hpp"
#include "agc/graph/generators.hpp"
#include "agc/math/polynomial.hpp"
#include "agc/selfstab/ss_coloring.hpp"

namespace {

using namespace agc;
using coloring::Color;

// ---------------------------------------------------------------------------
// Streaming Linial
// ---------------------------------------------------------------------------

/// The textbook Mod-Linial step: materialize the digit polynomial of every
/// neighbor in interval j, then take the smallest evaluation point where the
/// own polynomial differs from all of them and whose color is not forbidden.
Color oracle_step(const coloring::LinialSchedule& sched, std::size_t j, Color own,
                  std::span<const Color> neighbors,
                  std::span<const Color> forbidden) {
  const auto& st = sched.stage(sched.stages() - j);
  const math::GF field(st.q);
  const int d = static_cast<int>(st.d);
  const std::uint64_t off = sched.offset(j);
  const auto g_own = math::Polynomial::from_digits(field, own - off, d);
  std::vector<math::Polynomial> same;
  for (const Color nc : neighbors) {
    if (nc >= off && nc < off + sched.interval_size(j)) {
      same.push_back(math::Polynomial::from_digits(field, nc - off, d));
    }
  }
  for (std::uint64_t e = 0; e < st.q; ++e) {
    const std::uint64_t val = g_own.eval(e);
    const Color c = sched.offset(j - 1) + e * st.q + val;
    if (std::none_of(same.begin(), same.end(),
                     [&](const math::Polynomial& g) { return g.eval(e) == val; }) &&
        std::find(forbidden.begin(), forbidden.end(), c) == forbidden.end()) {
      return c;
    }
  }
  ADD_FAILURE() << "no admissible point";
  return 0;
}

TEST(StreamLinial, DigitEvalMatchesPolynomial) {
  graph::Rng rng(4);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::uint64_t q = math::next_prime(3 + rng.below(200));
    const std::uint64_t value = rng.below(q * q * q);
    const auto d = static_cast<std::uint32_t>(2 + rng.below(4));
    const std::uint64_t e = rng.below(q);
    // sum_i digit_i * e^i over GF(q), digit_i = (value / q^i) % q.
    std::uint64_t want = 0;
    std::uint64_t rest = value;
    for (std::uint32_t i = 0; i <= d; ++i) {
      want = (want + rest % q * math::pow_mod(e, i, q)) % q;
      rest /= q;
    }
    const auto poly =
        math::Polynomial::from_digits(math::GF(q), value, static_cast<int>(d));
    EXPECT_EQ(poly.eval(e), want) << "q=" << q << " value=" << value << " e=" << e;
    EXPECT_EQ(math::Polynomial::eval_digits(math::GF(q), value, static_cast<int>(d), e),
              want)
        << "q=" << q << " value=" << value << " e=" << e;
  }
  // The streaming evaluator against from_digits(...).eval at the edges:
  // the primes at both ends of the q < 2^32 range, degrees up to the cap,
  // values up to 2^64 - 1, and the points 0 (one digit read), 1, q - 1 and
  // random ones, some beyond q.
  for (const std::uint64_t q : {2ULL, 3ULL, 101ULL, 65521ULL, 2147483647ULL, 4294967291ULL}) {
    const math::GF field(q);
    for (const int d : {1, 2, 3, 8, 64}) {
      std::vector<std::uint64_t> values = {0, 1, q - 1, q, q * q - 1, ~0ULL};
      for (int i = 0; i < 40; ++i) values.push_back(rng.next());
      std::vector<std::uint64_t> points = {0, 1, q - 1};
      for (int i = 0; i < 8; ++i) points.push_back(rng.below(q));
      points.push_back(q + rng.below(q));
      for (const std::uint64_t value : values) {
        const auto poly = math::Polynomial::from_digits(field, value, d);
        for (const std::uint64_t x : points) {
          ASSERT_EQ(math::Polynomial::eval_digits(field, value, d, x), poly.eval(x))
              << "q=" << q << " d=" << d << " value=" << value << " x=" << x;
        }
      }
    }
  }
}

TEST(StreamLinial, StepMatchesMaterializingOracle) {
  const std::size_t delta = 7;
  graph::Rng rng(8);
  for (const bool excl : {false, true}) {
    const coloring::LinialSchedule sched(1ULL << 24, delta, excl);
    for (std::size_t j = 1; j <= sched.stages(); ++j) {
      const std::uint64_t off = sched.offset(j);
      const std::uint64_t size = sched.interval_size(j);
      for (int trial = 0; trial < 100; ++trial) {
        const Color own = off + rng.below(size);
        // Up to delta neighbors: mostly in interval j, a third anywhere in
        // (or just past) the whole span.
        std::vector<Color> nbrs;
        for (std::uint64_t k = 1 + rng.below(delta); k > 0; --k) {
          const Color nc = rng.below(3) == 0 ? rng.below(sched.total_span() + 1000)
                                             : off + rng.below(size);
          if (nc != own) nbrs.push_back(nc);
        }
        std::sort(nbrs.begin(), nbrs.end());
        std::vector<Color> forbidden;
        if (excl && j == 1) {
          // Excl-Linial's headroom: forbid the free choice plus up to
          // 2*delta - 1 random final colors.
          forbidden.push_back(oracle_step(sched, j, own, nbrs, {}));
          for (std::uint64_t k = rng.below(2 * delta); k > 0; --k) {
            forbidden.push_back(rng.below(sched.interval_size(0)));
          }
        }
        const auto excluded = [&](Color c) {
          return std::find(forbidden.begin(), forbidden.end(), c) != forbidden.end();
        };
        EXPECT_EQ(coloring::mod_linial_step(sched, j, own, nbrs, excluded),
                  oracle_step(sched, j, own, nbrs, forbidden))
            << "excl=" << excl << " j=" << j << " own=" << own;
      }
    }
  }
}

/// LinialRule with the oracle step in place of the streaming one.
class OracleLinialRule final : public runtime::IterativeRule {
 public:
  explicit OracleLinialRule(const coloring::LinialSchedule& sched) : sched_(sched) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override {
    const std::size_t j = sched_.interval_of(own);
    return j == 0 ? own : oracle_step(sched_, j, own, neighbors, {});
  }
  [[nodiscard]] bool is_final(Color c) const override {
    return c < sched_.final_palette();
  }
  [[nodiscard]] std::uint32_t color_bits() const override {
    return runtime::width_of(sched_.total_span() - 1);
  }

 private:
  const coloring::LinialSchedule& sched_;
};

TEST(StreamLinial, FullRunBitIdentical) {
  const auto g = graph::random_regular(300, 9, 33);
  const std::uint64_t ids = static_cast<std::uint64_t>(g.n()) << 16;
  coloring::LinialSchedule sched(ids, 9);
  const std::uint64_t top = sched.offset(sched.stages());

  auto init = coloring::identity_coloring(g.n());
  for (auto& c : init) c += top;

  coloring::LinialRule streaming(sched);
  OracleLinialRule oracle(sched);
  auto a = runtime::run_locally_iterative(g, init, streaming);
  auto b = runtime::run_locally_iterative(g, init, oracle);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
}

// ---------------------------------------------------------------------------
// Structured generators
// ---------------------------------------------------------------------------

TEST(GeneratorsExtra, Hypercube) {
  for (std::size_t d : {1u, 3u, 6u}) {
    const auto g = graph::hypercube(d);
    EXPECT_EQ(g.n(), std::size_t{1} << d);
    EXPECT_EQ(g.m(), d * (std::size_t{1} << (d - 1)));
    EXPECT_EQ(g.max_degree(), d);
    // Bipartite: parity-of-popcount is a proper 2-coloring.
    std::vector<Color> parity(g.n());
    for (graph::Vertex v = 0; v < g.n(); ++v) {
      parity[v] = static_cast<Color>(__builtin_popcountll(v) & 1);
    }
    EXPECT_TRUE(graph::is_proper_coloring(g, parity));
  }
}

TEST(GeneratorsExtra, CompleteMultipartite) {
  const auto g = graph::complete_multipartite(4, 5);
  EXPECT_EQ(g.n(), 20u);
  EXPECT_EQ(g.max_degree(), 15u);
  EXPECT_EQ(g.m(), 4u * 3 / 2 * 5 * 5);
  // Part index is a proper 4-coloring.
  std::vector<Color> parts(g.n());
  for (graph::Vertex v = 0; v < g.n(); ++v) parts[v] = v / 5;
  EXPECT_TRUE(graph::is_proper_coloring(g, parts));
}

TEST(GeneratorsExtra, Caterpillar) {
  const auto g = graph::caterpillar(10, 4);
  EXPECT_EQ(g.n(), 50u);
  EXPECT_EQ(g.m(), 9u + 40u);
  EXPECT_EQ(graph::degeneracy(g), 1u);  // a tree
  EXPECT_EQ(g.max_degree(), 6u);        // legs + 2 spine neighbors
}

TEST(GeneratorsExtra, CycleBlowup) {
  const auto g = graph::cycle_blowup(5, 4);
  EXPECT_EQ(g.n(), 20u);
  EXPECT_EQ(g.max_degree(), 8u);  // 2 * blow
  // Odd blown-up cycles need 3 position colors: the pipeline must still land
  // within Delta+1 and be proper.
  const auto rep = coloring::color_delta_plus_one(g);
  EXPECT_TRUE(rep.proper && rep.converged);
}

TEST(GeneratorsExtra, PipelineOnNewFamilies) {
  for (const auto& g :
       {graph::hypercube(6), graph::complete_multipartite(3, 7),
        graph::caterpillar(20, 5), graph::cycle_blowup(7, 3)}) {
    const auto rep = coloring::color_delta_plus_one_exact(g);
    EXPECT_TRUE(rep.proper && rep.converged && rep.proper_each_round);
    EXPECT_LE(graph::max_color(rep.colors), g.max_degree());
  }
}

// ---------------------------------------------------------------------------
// ArbAgRule units
// ---------------------------------------------------------------------------

TEST(ArbAgRule, FrozenStatesAreFixedPoints) {
  arb::ArbAgRule rule(11, 2);
  const Color frozen = arb::ArbAgRule::pack(5, 0, 7, 11);
  EXPECT_TRUE(rule.is_final(frozen));
  EXPECT_EQ(rule.class_of(frozen), 7u);
  std::vector<Color> nbrs = {arb::ArbAgRule::pack(3, 2, 7, 11),
                             arb::ArbAgRule::pack(4, 1, 7, 11),
                             arb::ArbAgRule::pack(6, 3, 7, 11)};
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(rule.step({}, frozen, nbrs), frozen);  // even with > p conflicts
}

TEST(ArbAgRule, ToleranceThreshold) {
  arb::ArbAgRule rule(11, 2);
  const Color c = arb::ArbAgRule::pack(9, 3, 5, 11);
  // Two different-psi conflicts: freezes.
  std::vector<Color> two = {arb::ArbAgRule::pack(1, 1, 5, 11),
                            arb::ArbAgRule::pack(2, 0, 5, 11)};
  std::sort(two.begin(), two.end());
  EXPECT_EQ(rule.step({}, c, two), arb::ArbAgRule::pack(9, 0, 5, 11));
  // Three: shifts b by a.
  auto three = two;
  three.push_back(arb::ArbAgRule::pack(3, 4, 5, 11));
  std::sort(three.begin(), three.end());
  EXPECT_EQ(rule.step({}, c, three), arb::ArbAgRule::pack(9, 3, (5 + 3) % 11, 11));
  // Same-psi conflicts are ignored entirely.
  std::vector<Color> same = {arb::ArbAgRule::pack(9, 1, 5, 11),
                             arb::ArbAgRule::pack(9, 2, 5, 11),
                             arb::ArbAgRule::pack(9, 4, 5, 11)};
  std::sort(same.begin(), same.end());
  EXPECT_EQ(rule.step({}, c, same), arb::ArbAgRule::pack(9, 0, 5, 11));
}

// ---------------------------------------------------------------------------
// SsConfig::step branch coverage
// ---------------------------------------------------------------------------

class SsStepBranches : public ::testing::Test {
 protected:
  SsStepBranches() : cfg_(64, 3, selfstab::PaletteMode::ODelta) {}
  selfstab::SsConfig cfg_;
};

TEST_F(SsStepBranches, InvalidValueResets) {
  EXPECT_EQ(cfg_.step(5, cfg_.span() + 123, {}), cfg_.reset_color(5));
}

TEST_F(SsStepBranches, NeighborConflictResets) {
  const std::uint64_t c = cfg_.reset_color(9);
  std::vector<std::uint64_t> nbrs = {c};
  EXPECT_EQ(cfg_.step(7, c, nbrs), cfg_.reset_color(7));
}

TEST_F(SsStepBranches, DescendsOneIntervalPerRound) {
  const auto& sched = cfg_.schedule();
  std::uint64_t c = cfg_.reset_color(12);
  std::size_t j = sched.interval_of(c);
  while (j >= 1) {
    const std::uint64_t next = cfg_.step(12, c, {});
    EXPECT_EQ(sched.interval_of(next), j - 1);
    c = next;
    j = sched.interval_of(c);
  }
  // Interval 0: AG finalizes with no conflicts -> final color, then stays.
  const std::uint64_t fin = cfg_.step(12, c, {});
  EXPECT_TRUE(cfg_.is_final(fin));
  EXPECT_EQ(cfg_.step(12, fin, {}), fin);
}

TEST_F(SsStepBranches, AgConflictShiftsInsideIntervalZero) {
  // Craft an I_0 working state <a=2, b=5> and a conflicting neighbor.
  const std::uint64_t q = cfg_.final_palette();
  const std::uint64_t c = 2 * q + 5;
  std::vector<std::uint64_t> nbrs = {3 * q + 5};  // same b, different a
  EXPECT_EQ(cfg_.step(1, c, nbrs), 2 * q + (5 + 2) % q);
  // Without conflict: finalize to <0,5>.
  std::vector<std::uint64_t> calm = {3 * q + 6};
  EXPECT_EQ(cfg_.step(1, c, calm), 5u);
}

TEST(SsStepExact, LiftedStatesStayDisjointFromLinialIntervals) {
  selfstab::SsConfig cfg(64, 3, selfstab::PaletteMode::ExactDeltaPlusOne);
  // I_0 must be wide enough to host the mixed state space.
  EXPECT_GE(cfg.schedule().interval_size(0), cfg.final_palette());
  // Malformed high states <0,0,a> reset.
  const std::uint64_t low_span = 2 * cfg.final_palette();
  EXPECT_EQ(cfg.step(4, low_span + 1, {}), cfg.reset_color(4));
}

TEST(SsMemory, OneWordOfRamPerVertex) {
  // The paper's O(1)-memory claim: the whole mutable state is one color word.
  selfstab::SsConfig cfg(16, 2, selfstab::PaletteMode::ODelta);
  selfstab::SsColoringProgram prog(cfg);
  EXPECT_EQ(prog.ram().size(), 1u);
}

}  // namespace
