#include "agc/faultlab/zoo.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

namespace agc::faultlab {

namespace {

using runtime::FaultEvent;
using runtime::FaultKind;
using runtime::MailboxArena;
using runtime::Word;

/// splitmix64 finalizer — the same mixer graph::Rng seeds with.  Statelessly
/// hashing (seed, round, u, v) instead of streaming an RNG is what makes wire
/// decisions independent of visit order, hence of the shard count.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::uint64_t edge_hash(std::uint64_t seed, std::uint64_t round,
                                      graph::Vertex u, graph::Vertex v) noexcept {
  std::uint64_t h = mix(seed ^ mix(round));
  h = mix(h ^ (static_cast<std::uint64_t>(u) << 32 | v));
  return h;
}

[[nodiscard]] std::uint64_t width_mask(std::uint32_t bits) noexcept {
  return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

/// A word's declared width as the wire faults read it: at least one bit.
[[nodiscard]] std::uint32_t width(const Word& w) noexcept {
  return w.bits == 0 ? 1 : w.bits;
}

template <typename Config>
[[nodiscard]] bool in_window(const Config& c, std::uint64_t round) noexcept {
  return round >= c.first_round && round <= c.last_round;
}

}  // namespace

// ---------------------------------------------------------------------------
// WireFaults
// ---------------------------------------------------------------------------

bool is_liar(const ByzantineConfig& config, std::uint64_t seed,
             graph::Vertex v) noexcept {
  if (!config.enabled()) return false;
  return mix(mix(seed) ^ v) % 1'000'000u < config.liars_per_million;
}

WireFaults::WireFaults(const ChannelFaultConfig& channel, const ZooSpec& zoo,
                       std::uint64_t zoo_seed, runtime::FaultEventSink* recorder)
    : channel_(channel),
      zoo_(zoo),
      flap_seed_(zoo_seed ^ kFlapStream),
      byz_seed_(zoo_seed ^ kByzStream),
      recorder_(recorder) {
  // One die roll per port-round lands in at most one range: a mix past 1
  // would silently cut the later kinds' share.
  if (std::uint64_t{channel.drop_per_million} + channel.corrupt_per_million +
          channel.duplicate_per_million + channel.delay_per_million >
      1'000'000) {
    throw std::invalid_argument(
        "channel fault probabilities (chan-drop + chan-corrupt + chan-dup + "
        "chan-delay) sum above 1");
  }
  if (std::uint64_t{zoo.flap.down_per_million} + zoo.flap.up_per_million >
      1'000'000) {
    throw std::invalid_argument(
        "flapping-link probabilities (flap-down + flap-up) sum above 1");
  }
}

WireFaults::WireFaults(const std::vector<FaultEvent>& plan_events) : replay_(true) {
  for (const FaultEvent& ev : plan_events) {
    if (runtime::is_channel_fault(ev.kind)) plan_.push_back(ev);
  }
  // Port order within a sender; events on one port keep their plan order,
  // which is the order the live run landed them in.
  std::stable_sort(plan_.begin(), plan_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.round != b.round) return a.round < b.round;
                     if (a.u != b.u) return a.u < b.u;
                     return a.v < b.v;
                   });
}

void WireFaults::begin_round(const MailboxArena& arena, graph::GraphView /*g*/,
                             std::uint64_t round) {
  if (!bound_ || arena_version_ != arena.topology_version()) {
    const std::size_t ports =
        arena.n() == 0 ? 0 : arena.base(static_cast<graph::Vertex>(arena.n()));
    stash_.assign(ports, Word{});
    stashed_.assign(ports, 0);
    down_.assign(ports, 0);
    arena_version_ = arena.topology_version();
    bound_ = true;
  }
  if (replay_) {
    const auto by_round = [](const FaultEvent& ev, std::uint64_t r) {
      return ev.round < r;
    };
    round_begin_ = static_cast<std::size_t>(
        std::lower_bound(plan_.begin(), plan_.end(), round, by_round) - plan_.begin());
    round_end_ = static_cast<std::size_t>(
        std::lower_bound(plan_.begin(), plan_.end(), round + 1, by_round) -
        plan_.begin());
  }
}

void WireFaults::apply(MailboxArena& arena, graph::GraphView g, graph::Vertex v,
                       std::uint64_t round, std::size_t shard) {
  const auto nbrs = g.neighbors(v);
  const std::uint32_t base = arena.base(v);
  // This round's plan events of sender v, in receiver order.
  auto next = plan_.cbegin() + static_cast<std::ptrdiff_t>(round_begin_);
  const auto end = plan_.cbegin() + static_cast<std::ptrdiff_t>(round_end_);
  if (replay_) {
    next = std::lower_bound(next, end, v, [](const FaultEvent& ev, graph::Vertex u) {
      return ev.u < u;
    });
  }
  const bool noisy = channel_.total_per_million() > 0 && in_window(channel_, round);
  const auto in_region = [this](graph::Vertex x) noexcept {
    return x >= zoo_.outage.lo && x <= zoo_.outage.hi;
  };
  const bool dark = zoo_.outage.enabled() && in_window(zoo_.outage, round);
  const bool flapping = zoo_.flap.enabled() && in_window(zoo_.flap, round);
  const bool lying = in_window(zoo_.byz, round) && is_liar(zoo_.byz, byz_seed_, v);
  std::uint64_t landed = 0;
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    const std::uint32_t gp = base + static_cast<std::uint32_t>(p);
    const graph::Vertex w = nbrs[p];
    // A word delayed last round re-emerges at the front of this round's
    // traffic, whether or not the port is attacked again.
    if (stashed_[gp] != 0) {
      stashed_[gp] = 0;
      const auto words = arena.words_mutable(gp);
      if (words.empty()) {
        arena.push(gp, shard, stash_[gp]);
      } else {
        // Exact for the single-word ports a delay targets; a multi-word
        // message (possible only after churn) moves its first word last.
        const Word displaced = words[0];
        words[0] = stash_[gp];
        arena.push(gp, shard, displaced);
      }
    }
    if (replay_) {
      while (next != end && next->u == v && next->v < w) ++next;  // churned away
      for (; next != end && next->u == v && next->v == w; ++next) {
        landed += inject(arena, gp, shard, *next);
      }
      continue;
    }
    FaultEvent ev;
    ev.round = round;
    ev.u = v;
    ev.v = w;
    if (noisy && !arena.words_mutable(gp).empty()) {
      const std::uint64_t h = edge_hash(channel_.seed, round, v, w);
      const auto roll = static_cast<std::uint32_t>(h % 1'000'000u);
      const std::uint32_t drop = channel_.drop_per_million;
      const std::uint32_t corrupt = drop + channel_.corrupt_per_million;
      const std::uint32_t dup = corrupt + channel_.duplicate_per_million;
      const std::uint32_t delay = dup + channel_.delay_per_million;
      if (roll < delay) {
        ev.kind = roll < drop      ? FaultKind::Drop
                  : roll < corrupt ? FaultKind::Corrupt
                  : roll < dup     ? FaultKind::Duplicate
                                   : FaultKind::Delay;
        ev.value = ev.kind == FaultKind::Corrupt
                       ? (h >> 32) % width(arena.words_mutable(gp)[0])
                       : 0;
        landed += inject(arena, gp, shard, ev);
      }
    }
    ev.value = 0;
    ev.kind = FaultKind::Drop;
    if (dark && (in_region(v) || in_region(w))) landed += inject(arena, gp, shard, ev);
    if (flapping) {
      // One coupled roll per (link, round): both directions hash the
      // canonical endpoint pair, so the two per-port copies of the chain
      // never diverge.
      const std::uint64_t h =
          edge_hash(flap_seed_, round, std::min(v, w), std::max(v, w));
      const auto roll = static_cast<std::uint32_t>(h % 1'000'000u);
      const std::uint32_t up = zoo_.flap.up_per_million;
      if (down_[gp] != 0) {
        if (roll < up) down_[gp] = 0;
      } else if (roll >= up && roll < up + zoo_.flap.down_per_million) {
        down_[gp] = 1;
      }
      if (down_[gp] != 0) landed += inject(arena, gp, shard, ev);
    }
    if (lying) {
      const auto words = arena.words_mutable(gp);
      if (words.empty()) continue;
      const std::uint64_t h = edge_hash(byz_seed_, round, v, w);
      if (h % 1'000'000u >= zoo_.byz.lie_per_million) continue;
      // A lie equal to the truth is no lie; flipping bit 0 stays in-width.
      ev.kind = FaultKind::Lie;
      ev.value = mix(h) & width_mask(width(words[0]));
      if (ev.value == words[0].value) ev.value ^= 1;
      landed += inject(arena, gp, shard, ev);
    }
  }
  if (landed != 0) events_.fetch_add(landed, std::memory_order_relaxed);
}

bool WireFaults::inject(MailboxArena& arena, std::uint32_t gp, std::size_t shard,
                        const FaultEvent& ev) {
  const auto words = arena.words_mutable(gp);
  if (words.empty()) return false;  // nothing on the wire to attack
  switch (ev.kind) {
    case FaultKind::Drop:
      arena.clear_port(gp);
      break;
    case FaultKind::Corrupt:
      words[0].value ^= 1ULL << (ev.value % width(words[0]));
      break;
    case FaultKind::Duplicate: {
      const Word head = words[0];  // push may relocate the span
      arena.push(gp, shard, head);
      break;
    }
    case FaultKind::Delay:
      // One word in flight per port, and only single-word messages.
      if (words.size() != 1 || stashed_[gp] != 0) return false;
      stash_[gp] = words[0];
      stashed_[gp] = 1;
      arena.clear_port(gp);
      break;
    case FaultKind::Lie:
      words[0].value = ev.value & width_mask(width(words[0]));
      break;
    default:
      return false;
  }
  if (recorder_ != nullptr) recorder_->record(ev);
  return true;
}

// ---------------------------------------------------------------------------
// AdaptiveAdversary
// ---------------------------------------------------------------------------

std::size_t AdaptiveAdversary::inject(runtime::Engine& engine,
                                      std::size_t round) {
  const std::size_t n = engine.graph().n();
  const std::size_t known = prev_word0_.size();
  if (known < n) {
    prev_word0_.resize(n, 0);
    last_changed_.resize(n, 0);
  }
  // Recency tracking runs on every call (firing or not) so the snapshot the
  // next firing targets is exact, not sampled at the firing period.
  for (std::size_t v = 0; v < n; ++v) {
    const auto ram = engine.ram(static_cast<graph::Vertex>(v));
    const std::uint64_t w0 = ram.empty() ? 0 : ram[0];
    if (v >= known || w0 != prev_word0_[v]) last_changed_[v] = round;
    prev_word0_[v] = w0;
  }
  if (round == 0 || !config_.enabled() || round > config_.last_round ||
      round % config_.period != 0 || n == 0) {
    return 0;
  }
  const std::size_t count = std::min(config_.count, n);
  targets_.resize(n);
  std::iota(targets_.begin(), targets_.end(), 0u);
  const auto by_degree = [&](std::uint32_t a, std::uint32_t b) {
    const std::size_t da = engine.graph().degree(a);
    const std::size_t db = engine.graph().degree(b);
    if (da != db) return da > db;
    return a < b;
  };
  if (config_.target == AdaptiveConfig::Target::RecentlyRecolored) {
    std::partial_sort(targets_.begin(),
                      targets_.begin() + static_cast<std::ptrdiff_t>(count),
                      targets_.end(), [&](std::uint32_t a, std::uint32_t b) {
                        if (last_changed_[a] != last_changed_[b]) {
                          return last_changed_[a] > last_changed_[b];
                        }
                        return by_degree(a, b);
                      });
  } else {
    std::partial_sort(targets_.begin(),
                      targets_.begin() + static_cast<std::ptrdiff_t>(count),
                      targets_.end(), by_degree);
  }
  std::size_t injected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto v = static_cast<graph::Vertex>(targets_[i]);
    const auto nbrs = engine.graph().neighbors(v);
    if (nbrs.empty()) continue;
    const std::uint64_t h = mix(mix(seed_ ^ round) ^ v);
    const graph::Vertex u = nbrs[h % nbrs.size()];
    const auto u_ram = engine.ram(u);
    if (u_ram.empty()) continue;
    // The classic worst case, aimed: a monochromatic edge at the vertex the
    // snapshot says hurts most.
    engine.corrupt_ram(v, 0, u_ram[0]);
    ++injected;
  }
  events_ += injected;
  return injected;
}

// ---------------------------------------------------------------------------
// ChurnTrace
// ---------------------------------------------------------------------------

ChurnTrace::ChurnTrace(ChurnTraceConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  if (!config_.enabled()) return;
  // Bounded Pareto inter-arrival gaps: P(gap >= g) ~ g^-alpha, clamped to
  // [1, 1024] rounds.  The schedule depends on the seed alone, never on
  // engine state, so record and replay see identical entry rounds.
  std::size_t r = config_.first_round;
  for (std::size_t i = 0; i < config_.events; ++i) {
    if (i > 0) {
      double u = rng_.uniform();
      if (u < 1e-12) u = 1e-12;
      const double g = std::pow(u, -1.0 / config_.alpha);
      auto gap = g >= 1024.0 ? std::size_t{1024} : static_cast<std::size_t>(g);
      if (gap < 1) gap = 1;
      r += gap;
    }
    if (r > config_.last_round) break;
    schedule_.push_back(r);
  }
}

std::size_t ChurnTrace::inject(runtime::Engine& engine, std::size_t round) {
  if (round == 0) return 0;
  std::size_t injected = 0;
  while (next_ < schedule_.size() && schedule_[next_] <= round) {
    ++next_;
    const std::size_t n = engine.graph().n();
    if (n == 0) continue;
    const bool want_reset =
        rng_.below(1'000'000) < config_.resets_per_million;
    const bool can_grow =
        config_.max_vertices > 0 && n < config_.max_vertices;
    graph::Vertex v;
    if (want_reset || !can_grow) {
      v = static_cast<graph::Vertex>(rng_.below(n));
      engine.reset_vertex(v);
      ++injected;
    } else {
      v = engine.add_vertex();
      ++injected;
    }
    // Degree-biased attachment: land on a uniform vertex, step to one of its
    // neighbors — the friend-of-a-friend walk lands on a vertex with
    // probability proportional to its degree, matching preferential
    // attachment without any global bookkeeping.
    const std::size_t total = engine.graph().n();
    std::size_t added = 0;
    std::size_t guard = 0;
    while (added < config_.attach && guard < 20 * config_.attach + 50) {
      ++guard;
      const auto x = static_cast<graph::Vertex>(rng_.below(total));
      const auto nb = engine.graph().neighbors(x);
      const graph::Vertex t = nb.empty() ? x : nb[rng_.below(nb.size())];
      if (t == v) continue;
      if (engine.graph().degree(t) >= config_.dmax ||
          engine.graph().degree(v) >= config_.dmax) {
        continue;
      }
      if (engine.add_edge(v, t)) {
        ++added;
        ++injected;
      }
    }
  }
  events_ += injected;
  return injected;
}

// ---------------------------------------------------------------------------
// FaultAdversaryChain
// ---------------------------------------------------------------------------

std::size_t FaultAdversaryChain::inject(runtime::Engine& engine,
                                        std::size_t round) {
  std::size_t total = 0;
  for (runtime::FaultAdversary* adversary : adversaries_) {
    total += adversary->inject(engine, round);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

void append_state_adversaries(FaultAdversaryChain& chain, const ZooSpec& zoo,
                              std::uint64_t seed) {
  if (zoo.adapt.enabled()) {
    chain.own(
        std::make_unique<AdaptiveAdversary>(zoo.adapt, seed ^ kAdaptStream));
  }
  if (zoo.churn.enabled()) {
    chain.own(std::make_unique<ChurnTrace>(zoo.churn, seed ^ kChurnStream));
  }
}

}  // namespace agc::faultlab
