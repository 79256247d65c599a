#include "agc/coloring/luby.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "agc/obs/event_sink.hpp"
#include "agc/runtime/hooked_rounds.hpp"
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

/// One Luby vertex.  The whole volatile state is one packed word:
///   state < d1          — done, holding final color `state`;
///   state = d1 + cand   — active, proposing candidate `cand` this round.
/// The broadcast IS the state word, so neighbors decode done colors and
/// live candidates from the same message.
class LubyProgram final : public runtime::VertexProgram {
 public:
  LubyProgram(std::uint64_t seed, std::uint64_t d1, std::uint32_t bits,
              Color* mirror)
      : seed_(seed), d1_(d1), bits_(bits), used_(d1, 0), mirror_(mirror) {
    state_ = d1_;  // active; the first candidate is drawn at the first send
    *mirror_ = state_;
  }

  void on_send(const runtime::VertexEnv& env, runtime::OutboxRef& out) override {
    // A fresh draw every round (from the free list as of the last receive)
    // is what breaks candidate symmetry between deferring neighbors.
    if (state_ >= d1_) state_ = d1_ + pick(env);
    out.broadcast(runtime::Word{state_, bits_});
  }

  void on_receive(const runtime::VertexEnv&, const runtime::InboxRef& in) override {
    const auto nbrs = in.multiset();
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    used_count_ = 0;
    bool conflict = false;
    // Modulo guards: wire faults (and the RAM adversary) can put arbitrary
    // words on the channel; decode them into the candidate range instead of
    // indexing out of bounds.  Clean runs never take the reduction.
    const std::uint64_t cand = state_ >= d1_ ? (state_ - d1_) % d1_ : 0;
    for (const std::uint64_t nc : nbrs) {
      if (nc < d1_) {
        if (used_[nc] == 0) {
          used_[nc] = 1;
          ++used_count_;
        }
      } else if (state_ >= d1_ && (nc - d1_) % d1_ == cand) {
        // An active neighbor drew the same candidate: both sides see the
        // same symmetric evidence and both defer — no tie-break needed,
        // next round's fresh draws separate them with high probability.
        conflict = true;
      }
    }
    if (state_ >= d1_ && !conflict && used_[cand] == 0) state_ = cand;
    *mirror_ = state_;
  }

  /// Expose the packed word so the unified RunOptions adversary can corrupt
  /// Luby runs like any other.  (Luby is not self-stabilizing: a corrupted
  /// done color stays; the end-of-run properness check reports it.)
  std::span<std::uint64_t> ram() override { return {&state_, 1}; }

 private:
  /// Candidate for this round: the draw(seed, round, id) hash reduced onto
  /// the free list — the (Delta+1)-palette minus the done-neighbor colors
  /// seen last round.  The free list is never empty on a static graph
  /// (<= Delta done neighbors vs Delta+1 colors); if adversarial edge
  /// insertion empties it, fall back to the whole palette and keep trying.
  [[nodiscard]] std::uint64_t pick(const runtime::VertexEnv& env) const {
    const std::uint64_t h = draw(seed_, env.round, env.id);
    const std::uint64_t free_count = d1_ - used_count_;
    if (free_count == 0) return h % d1_;
    std::uint64_t idx = h % free_count;
    for (std::uint64_t c = 0; c < d1_; ++c) {
      if (used_[c] != 0) continue;
      if (idx == 0) return c;
      --idx;
    }
    return h % d1_;  // unreachable: the loop visits free_count free colors
  }

  const std::uint64_t seed_;
  const std::uint64_t d1_;
  const std::uint32_t bits_;
  std::uint64_t state_ = 0;
  std::vector<std::uint8_t> used_;  ///< done-neighbor colors, last receive
  std::uint64_t used_count_ = 0;
  Color* mirror_;
};

}  // namespace

PipelineReport color_luby(graph::GraphView g, const PipelineOptions& opts) {
  const std::uint64_t t0 = obs::monotonic_ns();
  PipelineReport rep = detail::fresh_report();
  // An uncolored vertex holds no proper color, so the locally-iterative
  // invariant cannot hold mid-run by construction — reported honestly.
  rep.proper_each_round = false;

  const std::size_t delta = g.max_degree();
  const std::uint64_t d1 = static_cast<std::uint64_t>(delta) + 1;
  const std::uint32_t bits = runtime::width_of(2 * d1);
  const runtime::IterativeOptions iter = detail::stage_opts(opts, "luby");
  const std::uint64_t seed = iter.seed;

  rep.colors.assign(g.n(), d1);  // everyone starts active
  std::vector<Color>& mirror = rep.colors;

  runtime::Engine engine(g, runtime::Transport(iter.model, iter.congest_bits));
  if (iter.executor) engine.set_executor(iter.executor);
  engine.install([&](const runtime::VertexEnv& env) {
    if (env.id >= mirror.size()) {
      throw std::logic_error(
          "color_luby: adding vertices mid-run is unsupported");
    }
    return std::make_unique<LubyProgram>(seed, d1, bits, &mirror[env.id]);
  });
  runtime::HookedRounds rounds(engine, iter);

  detail::stage_event(opts, obs::EventKind::RunStart, "luby", 0, g.n());

  auto all_done = [&] {
    return std::all_of(mirror.begin(), mirror.end(),
                       [&](Color c) { return c < d1; });
  };

  while (!all_done() && rep.rounds < iter.max_rounds) {
    if (rounds.step().adversary > 0) {
      // RAM corruption rewrote state words behind the mirror's back.
      for (graph::Vertex v = 0; v < engine.graph().n(); ++v) {
        const auto ram = engine.ram(v);
        if (!ram.empty()) mirror[v] = ram[0];
      }
    }
    ++rep.rounds;
  }

  rep.converged = all_done();
  rep.rounds_core = rep.rounds;
  rounds.finish(rep);
  detail::finish(rep, engine.graph());
  rep.wall_ns = obs::monotonic_ns() - t0;
  detail::stage_event(opts, obs::EventKind::RunEnd, "luby", rep.rounds,
                      rep.rounds, rep.wall_ns);
  return rep;
}

}  // namespace agc::coloring
