#include "sweep.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <span>
#include <utility>

#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/packed.hpp"
#include "agc/runtime/shards.hpp"

namespace agc::runtime::detail {

namespace {

using graph::Vertex;

constexpr Vertex kNone = std::numeric_limits<Vertex>::max();

/// Per-shard results and scratch.  Shard s writes only its Shard, its words
/// of the stepping bitset and the colors of its own vertex range; the
/// driving thread reads the results after the executor's barrier.
struct Shard {
  /// Neighbor-multiset scratch of max-degree entries, the rule's to reorder.
  std::vector<Color> nbrs;
  std::size_t nonfinal = 0;  ///< stepped vertices whose color is not final
  /// First vertex with a port whose next broadcast the transport rejects.
  Vertex bad = kNone;
  bool proper = true;        ///< no monochromatic edge seen by this shard yet
};

constexpr std::uint64_t bit_of(Vertex v) { return std::uint64_t{1} << (v & 63); }

/// Whether `own` is among the gathered neighbor colors: one of v's edges is
/// monochromatic.  No early exit, so the loop has no branch per neighbor.
bool holds(std::span<const Color> nbrs, Color own) {
  bool hit = false;
  for (const Color c : nbrs) hit |= c == own;
  return hit;
}

}  // namespace

IterativeResult sweep_locally_iterative(graph::GraphView g,
                                        std::vector<Color> colors,
                                        const IterativeRule& rule,
                                        const IterativeOptions& opts) {
  IterativeResult result;
  result.colors = std::move(colors);
  // The exact colors (own reads, observer, result); the packed buffers carry
  // what neighbors read, one to read this round and one to write.
  std::vector<Color>& col = result.colors;
  const std::size_t n = g.n();
  const std::uint32_t bits = rule.color_bits();
  const Transport transport(opts.model, opts.congest_bits);
  const bool over_cap = transport.width_cap() != 0 && bits > transport.width_cap();
  const auto fits = [bits](Color c) { return bits >= 64 || (c >> bits) == 0; };

  const std::size_t max_degree = g.max_degree();

  obs::PhaseProfile profile;
  const VertexShards pass(g, opts.executor.get(),
                          opts.collect_phase_times ? &profile : nullptr, 64);
  std::vector<Shard> shards(pass.size());

  // Bit v of `stepping` is set while v still steps: its color was not final
  // at the start of the last round.  Bit v of `moved` is set when the last
  // round changed v's color.  Shard cuts are multiples of 64, so every word
  // has one owner.
  std::vector<std::uint64_t> stepping((n + 63) / 64, 0);
  std::vector<std::uint64_t> moved((n + 63) / 64, 0);
  const auto words_of = [&](std::size_t s) {
    const Vertex b = pass.begin(s);
    const Vertex e = pass.end(s);
    return b == e ? std::pair<std::size_t, std::size_t>{0, 0}
                  : std::pair<std::size_t, std::size_t>{b / 64, (e + 63) / 64};
  };

  PackedColors buf_a(n, bits);
  PackedColors buf_b(n, bits);
  PackedColors* cur = &buf_a;
  PackedColors* next = &buf_b;
  result.state_bytes = buf_a.memory_bytes() + buf_b.memory_bytes();

  // Fill both buffers, mark the non-final vertices, find the first vertex
  // whose round-1 broadcast the transport rejects.  A color too wide to pack
  // is never read from the buffers: with a port it fails that broadcast, and
  // without one no neighbor reads it and its own reads use `col`.
  const std::function<void(std::size_t)> init = [&](std::size_t s) {
    Shard& sh = shards[s];
    sh.nbrs.resize(max_degree);
    for (Vertex v = pass.begin(s); v < pass.end(s); ++v) {
      const Color c = col[v];
      if (fits(c)) {
        buf_a.set(v, c);
        buf_b.set(v, c);
      }
      if (sh.bad == kNone && g.degree(v) > 0 && (over_cap || !fits(c))) sh.bad = v;
      if (!rule.is_final(c)) {
        stepping[v / 64] |= bit_of(v);
        ++sh.nonfinal;
      }
    }
  };

  // Properness rides the step passes.  Pass r + 1 checks round r's coloring,
  // which `cur` holds, on the neighbor colors it gathers anyway.  With round
  // r - 1 proper, only edges at a vertex that round r changed can have
  // turned monochromatic, and every such vertex is still in the stepping
  // set: stepped, or found final (which it became by changing).  Each scans
  // its gathered colors for its own before the rule may reorder them.  The
  // first pass has no previous coloring, so it scans every vertex, round
  // 0's final ones too, which never step.  Every lane a pass reads is exact:
  // validate_broadcast accepted each color with a port before the pass.
  // `scan` drops once a clash is seen.
  bool scan = opts.check_proper_each_round;
  bool first = true;

  // One round for the shard's stepping vertices.  Final colors are fixed
  // points of step() (the is_final contract), so a vertex found final is
  // copied into `next` once — the round after it became final, when only
  // `cur` holds its color — and is never stepped again.
  const std::function<void(std::size_t)> step = [&](std::size_t s) {
    obs::ScopedPhaseTimer timer(pass.timers(s), obs::Phase::Receive);
    Shard& sh = shards[s];
    sh.bad = kNone;
    std::size_t nonfinal = 0;
    bool scanning = scan && sh.proper;
    // v's neighbors' colors in `cur`, in CSR order.
    const auto read_nbrs = [&](Vertex v) {
      const std::span<const Vertex> nbrs = g.neighbors(v);
      cur->gather(nbrs, sh.nbrs.data());
      return std::span<Color>(sh.nbrs.data(), nbrs.size());
    };
    const auto [w0, w1] = words_of(s);
    if (first && scanning) {
      for (std::size_t w = w0; w < w1; ++w) {
        std::uint64_t set = ~stepping[w];
        if ((w + 1) * 64 > n) set &= bit_of(n) - 1;
        for (; set != 0; set &= set - 1) {
          const auto v = static_cast<Vertex>(w * 64 + std::countr_zero(set));
          if (scanning && holds(read_nbrs(v), col[v])) scanning = false;
        }
      }
    }
    for (std::size_t w = w0; w < w1; ++w) {
      const std::uint64_t to_scan = first ? ~std::uint64_t{0} : moved[w];
      std::uint64_t now_moved = 0;
      for (std::uint64_t set = stepping[w]; set != 0; set &= set - 1) {
        const auto v = static_cast<Vertex>(w * 64 + std::countr_zero(set));
        const Color own = col[v];
        const bool check = scanning && (to_scan & bit_of(v)) != 0;
        if (rule.is_final(own)) {
          if (check && holds(read_nbrs(v), own)) scanning = false;
          if (fits(own)) next->set(v, own);
          stepping[w] &= ~bit_of(v);
          continue;
        }
        // The multiset in CSR order: a rule's result does not depend on the
        // order, and the rule may reorder the scratch (iterative.hpp), so
        // the scan comes first.
        const std::span<Color> got = read_nbrs(v);
        if (check && holds(got, own)) scanning = false;
        const Color c = rule.step({v, result.rounds}, own, got);
        if (fits(c)) {
          next->set(v, c);
        } else if (sh.bad == kNone && g.degree(v) > 0) {
          sh.bad = v;
        }
        if (c != own) now_moved |= bit_of(v);
        col[v] = c;
        if (!rule.is_final(c)) ++nonfinal;
      }
      moved[w] = now_moved;
    }
    sh.nonfinal = nonfinal;
    if (scan) sh.proper = scanning;
  };

  // The closing check, once per run, of what no step pass read: the last
  // round's changed vertices, or every vertex when no round ran.  No
  // broadcast validated those colors, so it reads the exact ones in `col`.
  const std::function<void(std::size_t)> close = [&](std::size_t s) {
    obs::ScopedPhaseTimer timer(pass.timers(s), obs::Phase::Check);
    Shard& sh = shards[s];
    const auto clashes = [&](Vertex v) {
      const Color c = col[v];
      for (const Vertex u : g.neighbors(v)) {
        if (col[u] == c) return true;
      }
      return false;
    };
    if (result.rounds == 0) {
      for (Vertex v = pass.begin(s); v < pass.end(s) && sh.proper; ++v) {
        sh.proper = !clashes(v);
      }
      return;
    }
    const auto [w0, w1] = words_of(s);
    for (std::size_t w = w0; w < w1 && sh.proper; ++w) {
      for (std::uint64_t set = moved[w]; set != 0 && sh.proper; set &= set - 1) {
        sh.proper = !clashes(static_cast<Vertex>(w * 64 + std::countr_zero(set)));
      }
    }
  };

  const auto all_proper = [&] {
    return std::all_of(shards.begin(), shards.end(),
                       [](const Shard& sh) { return sh.proper; });
  };
  const auto count_nonfinal = [&] {
    std::size_t total = 0;
    for (const Shard& sh : shards) total += sh.nonfinal;
    return total;
  };
  const auto first_bad = [&] {
    Vertex bad = kNone;
    for (const Shard& sh : shards) bad = std::min(bad, sh.bad);
    return bad;
  };

  pass.run(init);
  std::size_t nonfinal = count_nonfinal();

  if (opts.on_round) {
    obs::ScopedPhaseTimer timer(pass.extra(), obs::Phase::Observer);
    opts.on_round(0, col);
  }

  // Every vertex broadcasts one color_bits() word to each neighbor per round.
  const std::uint64_t messages_per_round = 2 * static_cast<std::uint64_t>(g.m());
  while (nonfinal > 0 && result.rounds < opts.max_rounds) {
    // The send side of the round: the engine validates every broadcast
    // here, and so fails on the lowest-numbered offender first.
    if (const Vertex bad = first_bad(); bad != kNone) {
      transport.validate_broadcast(Word{col[bad], bits});
    }
    const std::uint64_t t0 = opts.sink != nullptr ? obs::monotonic_ns() : 0;
    pass.run(step, obs::Phase::Receive);
    ++result.rounds;
    first = false;
    scan = scan && all_proper();
    nonfinal = count_nonfinal();
    if (opts.sink != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::RoundEnd;
      ev.round = result.rounds;
      ev.value = messages_per_round;
      ev.ns = obs::monotonic_ns() - t0;
      opts.sink->emit(ev);
    }
    std::swap(cur, next);
    if (opts.on_round) {
      obs::ScopedPhaseTimer timer(pass.extra(), obs::Phase::Observer);
      opts.on_round(result.rounds, col);
    }
  }
  result.converged = nonfinal == 0;
  if (scan) pass.run(close, obs::Phase::Check);
  if (opts.check_proper_each_round) result.proper_each_round = all_proper();

  // The engine's accounting of the same broadcasts, in closed form.
  result.metrics.rounds = result.rounds;
  result.metrics.messages = result.rounds * messages_per_round;
  result.metrics.total_bits = result.metrics.messages * bits;
  result.metrics.max_edge_bits = g.m() > 0 ? result.rounds * bits : 0;
  if (opts.collect_phase_times) result.phases = profile.folded();
  return result;
}

}  // namespace agc::runtime::detail
