#include "agc/coloring/luby.hpp"

#include <algorithm>
#include <vector>

#include "agc/math/gf.hpp"
#include "stage.hpp"

namespace agc::coloring {

namespace {

/// splitmix64 finalizer: the standard 64-bit avalanche.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

/// The per-vertex randomness: a pure function of (seed, round, id) — the
/// RunOptions::seed determinism contract.  Golden-ratio / MurmurHash odd
/// constants decorrelate the three inputs before the avalanche.
constexpr std::uint64_t draw(std::uint64_t seed, std::uint64_t round,
                             std::uint64_t id) noexcept {
  return mix64(seed + 0x9E3779B97F4A7C15ULL * (round + 1) +
               0xD1B54A32D192ED03ULL * (id + 1));
}

/// Luby over its one-word state (luby.hpp): state < d1 is done, d1 + cand is
/// active and proposing `cand`.  The broadcast IS the state word, so
/// neighbors decode done colors and live candidates from the same message.
class LubyRule final : public runtime::IterativeRule {
 public:
  LubyRule(std::uint64_t seed, std::uint64_t d1) : seed_(seed), d1_(d1), zd1_(d1) {}

  /// Vertex v's state before round 0: active, proposing its round-0 draw
  /// (no neighbor is done yet, so the free list is the whole palette).
  [[nodiscard]] Color initial(graph::Vertex v) const {
    return d1_ + zd1_.reduce(draw(seed_, 0, v));
  }

  [[nodiscard]] Color step(runtime::StepContext ctx, Color own,
                           std::span<Color> neighbors) const override {
    if (own < d1_) return own;  // done
    // Modulo guards: wire faults and the RAM adversary can put arbitrary
    // words on the channel; decode them into the candidate range instead of
    // indexing out of bounds.  Clean runs never take the reduction.
    const std::uint64_t cand = zd1_.reduce(own - d1_);
    // Sorted, the done colors are the multiset's prefix.
    std::sort(neighbors.begin(), neighbors.end());
    const auto active = std::lower_bound(neighbors.begin(), neighbors.end(), d1_);
    const std::span<const Color> done(neighbors.begin(), active);
    // An active neighbor that drew the same candidate sees the same
    // symmetric evidence, so both defer — next round's fresh draws separate
    // them with high probability.
    const bool conflict = std::any_of(active, neighbors.end(), [&](Color nc) {
      return zd1_.reduce(nc - d1_) == cand;
    });
    if (!conflict && !std::binary_search(done.begin(), done.end(), cand)) return cand;
    return d1_ + pick(draw(seed_, ctx.round + 1, ctx.id), done);
  }

  [[nodiscard]] bool is_final(Color c) const override { return c < d1_; }
  [[nodiscard]] std::uint32_t color_bits() const override {
    return runtime::width_of(2 * d1_);
  }

 private:
  /// The draw `h` reduced onto the free list: the (Delta+1)-palette minus
  /// the sorted done colors `done`.  The free list is never empty on a static
  /// graph (<= Delta done neighbors vs Delta+1 colors); if adversarial edges
  /// or wire faults empty it, fall back to the whole palette.
  [[nodiscard]] std::uint64_t pick(std::uint64_t h, std::span<const Color> done) const {
    std::uint64_t distinct = 0;
    for (std::size_t i = 0; i < done.size(); ++i) {
      distinct += i == 0 || done[i] != done[i - 1];
    }
    if (distinct == d1_) return zd1_.reduce(h);
    // The (h mod free)-th free color: every distinct done color at or below
    // the running answer pushes it one further.
    std::uint64_t c = h % (d1_ - distinct);
    for (std::size_t i = 0; i < done.size() && done[i] <= c; ++i) {
      c += i == 0 || done[i] != done[i - 1];
    }
    return c;
  }

  std::uint64_t seed_;
  std::uint64_t d1_;
  math::Zm zd1_;  ///< Z_{Delta+1}: decodes candidates without a divide
};

}  // namespace

PipelineReport color_luby(graph::GraphView g, const PipelineOptions& opts) {
  PipelineReport rep = detail::fresh_report();
  const LubyRule rule(opts.iter.seed, std::uint64_t{g.max_degree()} + 1);
  std::vector<Color> initial(g.n());
  for (graph::Vertex v = 0; v < g.n(); ++v) initial[v] = rule.initial(v);

  runtime::IterativeOptions iter = detail::stage_opts(opts, "luby");
  // Candidate words are not a coloring: there is no invariant to check.
  iter.check_proper_each_round = false;
  runtime::IterativeResult r =
      runtime::run_locally_iterative(g, std::move(initial), rule, iter);
  rep.absorb(r);
  rep.rounds_core = r.rounds;
  rep.colors = std::move(r.colors);
  // An uncolored vertex holds no proper color, so the locally-iterative
  // invariant cannot hold mid-run by construction — reported honestly.
  rep.proper_each_round = false;
  detail::finish(rep, g);
  return rep;
}

}  // namespace agc::coloring
