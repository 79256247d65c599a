#include "sweep.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/packed.hpp"
#include "agc/runtime/round.hpp"

namespace agc::runtime::detail {

namespace {

using graph::Vertex;

constexpr Vertex kNone = std::numeric_limits<Vertex>::max();

/// Degree-weighted contiguous shard bounds, with every cut rounded up to a
/// multiple of 64 vertices — 64 entries span whole words at every packed
/// width, so shards never write the same word (PackedColors contract).
/// Same weighting as ParallelExecutor::refresh_bounds; any contiguous
/// partition is result-identical, the weighting only balances wall clock.
std::vector<Vertex> shard_bounds(graph::GraphView g, std::size_t shards) {
  const std::size_t n = g.n();
  std::vector<Vertex> bounds(shards + 1, static_cast<Vertex>(n));
  bounds[0] = 0;
  const std::uint64_t total = 2 * static_cast<std::uint64_t>(g.m()) + n;
  std::uint64_t acc = 0;
  std::size_t s = 1;
  for (Vertex v = 0; v < n && s < shards; ++v) {
    acc += g.degree(v) + 1;
    while (s < shards && acc * shards >= total * s) {
      const std::uint64_t cut = (std::uint64_t{v} + 1 + 63) & ~std::uint64_t{63};
      bounds[s++] = static_cast<Vertex>(std::min<std::uint64_t>(cut, n));
    }
  }
  for (std::size_t i = 1; i <= shards; ++i) {
    bounds[i] = std::max(bounds[i], bounds[i - 1]);
  }
  return bounds;
}

/// Per-shard results and scratch.  Shard s writes only its Shard, its words
/// of the stepping bitset and the colors of its own vertex range; the
/// driving thread reads the results after the executor's barrier.
struct Shard {
  std::vector<Color> nbrs;   ///< neighbor-multiset scratch, the rule's to reorder
  std::size_t nonfinal = 0;  ///< stepped vertices whose color is not final
  /// First vertex with a port whose next broadcast the transport rejects.
  Vertex bad = kNone;
  bool proper = true;        ///< this shard's verdict of the last check
};

constexpr std::uint64_t bit_of(Vertex v) { return std::uint64_t{1} << (v & 63); }

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

  SequentialExecutor sequential;
  RoundExecutor& backend = opts.executor ? *opts.executor : sequential;
  const std::size_t shard_count = std::max<std::size_t>(1, backend.threads());
  const std::vector<Vertex> bounds = shard_bounds(g, shard_count);
  std::vector<Shard> shards(shard_count);

  // Bit v is set while v still steps: its color was not final at the start
  // of the last round.  Shard cuts are multiples of 64, so every word has
  // one owner.
  std::vector<std::uint64_t> stepping((n + 63) / 64, 0);
  const auto words_of = [&](std::size_t s) {
    const Vertex b = bounds[s];
    const Vertex e = bounds[s + 1];
    return b == e ? std::pair<std::size_t, std::size_t>{0, 0}
                  : std::pair<std::size_t, std::size_t>{b / 64, (e + 63) / 64};
  };

  PackedColors buf_a(n, bits);
  PackedColors buf_b(n, bits);
  PackedColors* cur = &buf_a;
  PackedColors* next = &buf_b;
  result.state_bytes = buf_a.memory_bytes() + buf_b.memory_bytes();

  obs::PhaseProfile profile;
  obs::PhaseProfile* prof = opts.collect_phase_times ? &profile : nullptr;
  if (prof != nullptr) prof->ensure_shards(shard_count);
  obs::PhaseStats* extra = prof != nullptr ? prof->extra() : nullptr;
  const auto stats_of = [prof](std::size_t s) {
    return prof != nullptr ? prof->shard(s) : nullptr;
  };

  // Fill both buffers, mark the non-final vertices, find the first vertex
  // whose round-1 broadcast the transport rejects.  A color too wide to pack
  // is never read from the buffers: with a port it fails that broadcast, and
  // without one no neighbor reads it and its own reads use `col`.
  const std::function<void(std::size_t)> init = [&](std::size_t s) {
    Shard& sh = shards[s];
    sh.nbrs.reserve(g.max_degree());
    for (Vertex v = bounds[s]; v < bounds[s + 1]; ++v) {
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

  // One round for the shard's stepping vertices.  Final colors are fixed
  // points of step() (the is_final contract), so a vertex found final is
  // copied into `next` once — the round after it became final, when only
  // `cur` holds its color — and is never stepped again.
  const std::function<void(std::size_t)> step = [&](std::size_t s) {
    obs::ScopedPhaseTimer timer(stats_of(s), obs::Phase::Receive);
    Shard& sh = shards[s];
    sh.bad = kNone;
    std::size_t nonfinal = 0;
    const auto [w0, w1] = words_of(s);
    for (std::size_t w = w0; w < w1; ++w) {
      for (std::uint64_t set = stepping[w]; set != 0; set &= set - 1) {
        const auto v = static_cast<Vertex>(w * 64 + std::countr_zero(set));
        const Color own = col[v];
        if (rule.is_final(own)) {
          if (fits(own)) next->set(v, own);
          stepping[w] &= ~bit_of(v);
          continue;
        }
        // The multiset in CSR order: a rule's result does not depend on the
        // order, and the rule may reorder the scratch (iterative.hpp).
        sh.nbrs.clear();
        for (const Vertex u : g.neighbors(v)) sh.nbrs.push_back(cur->get(u));
        const Color c = rule.step({v, result.rounds}, own, sh.nbrs);
        if (fits(c)) {
          next->set(v, c);
        } else if (sh.bad == kNone && g.degree(v) > 0) {
          sh.bad = v;
        }
        col[v] = c;
        if (!rule.is_final(c)) ++nonfinal;
      }
    }
    sh.nonfinal = nonfinal;
  };

  // Properness.  Round 0 checks every edge; afterwards, with the previous
  // coloring proper, only edges at a vertex whose color just changed can
  // have become monochromatic, and those vertices all just stepped (with
  // their previous color still in `cur`).
  bool full_check = true;
  const std::function<void(std::size_t)> check = [&](std::size_t s) {
    obs::ScopedPhaseTimer timer(stats_of(s), obs::Phase::Check);
    Shard& sh = shards[s];
    const auto clashes = [&](Vertex v) {
      const Color c = col[v];
      for (const Vertex u : g.neighbors(v)) {
        if (col[u] == c) return true;
      }
      return false;
    };
    sh.proper = true;
    if (full_check) {
      for (Vertex v = bounds[s]; v < bounds[s + 1] && sh.proper; ++v) {
        sh.proper = !clashes(v);
      }
      return;
    }
    const auto [w0, w1] = words_of(s);
    for (std::size_t w = w0; w < w1 && sh.proper; ++w) {
      for (std::uint64_t set = stepping[w]; set != 0 && sh.proper; set &= set - 1) {
        const auto v = static_cast<Vertex>(w * 64 + std::countr_zero(set));
        sh.proper = col[v] == cur->get(v) || !clashes(v);
      }
    }
  };

  // Fork/join one pass; with phase times on, book the shards' wait for the
  // slowest one as Barrier, like ParallelExecutor::round does.
  const auto run = [&](const std::function<void(std::size_t)>& task,
                       obs::Phase phase) {
    if (prof == nullptr || shard_count == 1) {
      backend.run_shards(shard_count, task);
      return;
    }
    const std::uint64_t busy_before = prof->busy_ns(phase);
    const std::uint64_t t0 = obs::monotonic_ns();
    backend.run_shards(shard_count, task);
    const std::uint64_t occupied = (obs::monotonic_ns() - t0) * shard_count;
    const std::uint64_t busy = prof->busy_ns(phase) - busy_before;
    extra->add(obs::Phase::Barrier, occupied > busy ? occupied - busy : 0);
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

  backend.run_shards(shard_count, init);
  std::size_t nonfinal = count_nonfinal();

  if (opts.check_proper_each_round) {
    run(check, obs::Phase::Check);
    result.proper_each_round = all_proper();
  }
  full_check = false;
  if (opts.on_round) {
    obs::ScopedPhaseTimer timer(extra, obs::Phase::Observer);
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
    run(step, obs::Phase::Receive);
    ++result.rounds;
    nonfinal = count_nonfinal();
    if (opts.sink != nullptr) {
      obs::Event ev;
      ev.kind = obs::EventKind::RoundEnd;
      ev.round = result.rounds;
      ev.value = messages_per_round;
      ev.ns = obs::monotonic_ns() - t0;
      opts.sink->emit(ev);
    }
    if (opts.check_proper_each_round && result.proper_each_round) {
      run(check, obs::Phase::Check);
      result.proper_each_round = all_proper();
    }
    std::swap(cur, next);
    if (opts.on_round) {
      obs::ScopedPhaseTimer timer(extra, obs::Phase::Observer);
      opts.on_round(result.rounds, col);
    }
  }
  result.converged = nonfinal == 0;

  // The engine's accounting of the same broadcasts, in closed form.
  result.metrics.rounds = result.rounds;
  result.metrics.messages = result.rounds * messages_per_round;
  result.metrics.total_bits = result.metrics.messages * bits;
  result.metrics.max_edge_bits = g.m() > 0 ? result.rounds * bits : 0;
  if (prof != nullptr) result.phases = profile.folded();
  return result;
}

}  // namespace agc::runtime::detail
