#include "agc/faultlab/zoo.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

namespace agc::faultlab {

namespace {

using runtime::FaultEvent;
using runtime::FaultKind;
using runtime::MailboxArena;

/// splitmix64 finalizer — identical to channel.cpp's, so zoo decisions are
/// pure (seed, round, u, v) hashes with the same independence guarantees.
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

}  // namespace

// ---------------------------------------------------------------------------
// RegionalOutage
// ---------------------------------------------------------------------------

void RegionalOutage::begin_round(const MailboxArena& /*arena*/,
                                 graph::GraphView /*g*/,
                                 std::uint64_t /*round*/) {}

void RegionalOutage::apply(MailboxArena& arena, graph::GraphView g,
                           graph::Vertex v, std::uint64_t round,
                           std::size_t /*shard*/) {
  if (!config_.enabled()) return;
  if (round < config_.first_round || round > config_.last_round) return;
  const auto in_region = [this](graph::Vertex x) noexcept {
    return x >= config_.lo && x <= config_.hi;
  };
  const auto nbrs = g.neighbors(v);
  const std::uint32_t base = arena.base(v);
  const bool sender_dark = in_region(v);
  std::uint64_t injected = 0;
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    const graph::Vertex w = nbrs[p];
    if (!sender_dark && !in_region(w)) continue;
    const std::uint32_t gp = base + static_cast<std::uint32_t>(p);
    if (arena.words_mutable(gp).empty()) continue;
    arena.clear_port(gp);
    FaultEvent ev;
    ev.round = round;
    ev.kind = FaultKind::Drop;
    ev.u = v;
    ev.v = w;
    ++injected;
    if (recorder_ != nullptr) recorder_->record(ev);
  }
  if (injected != 0) events_.fetch_add(injected, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// FlappingLinks
// ---------------------------------------------------------------------------

void FlappingLinks::begin_round(const MailboxArena& arena,
                                graph::GraphView /*g*/,
                                std::uint64_t /*round*/) {
  if (bound_ && arena_version_ == arena.topology_version()) return;
  const std::size_t total_ports =
      arena.n() == 0 ? 0 : arena.base(static_cast<graph::Vertex>(arena.n()));
  down_.assign(total_ports, 0);
  arena_version_ = arena.topology_version();
  bound_ = true;
}

void FlappingLinks::apply(MailboxArena& arena, graph::GraphView g,
                          graph::Vertex v, std::uint64_t round,
                          std::size_t /*shard*/) {
  if (!config_.enabled()) return;
  if (round < config_.first_round || round > config_.last_round) return;
  const auto nbrs = g.neighbors(v);
  const std::uint32_t base = arena.base(v);
  const std::uint32_t up = config_.up_per_million;
  const std::uint32_t dn = config_.down_per_million;
  std::uint64_t injected = 0;
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    const graph::Vertex w = nbrs[p];
    const std::uint32_t gp = base + static_cast<std::uint32_t>(p);
    // One coupled roll per (link, round): both directions hash the canonical
    // endpoint pair, so the two per-port copies of the chain never diverge.
    const std::uint64_t h =
        edge_hash(seed_, round, std::min(v, w), std::max(v, w));
    const auto roll = static_cast<std::uint32_t>(h % 1'000'000u);
    if (down_[gp] != 0) {
      if (roll < up) down_[gp] = 0;
    } else if (roll >= up && roll < up + dn) {
      down_[gp] = 1;
    }
    if (down_[gp] == 0) continue;
    if (arena.words_mutable(gp).empty()) continue;
    arena.clear_port(gp);
    FaultEvent ev;
    ev.round = round;
    ev.kind = FaultKind::Drop;
    ev.u = v;
    ev.v = w;
    ++injected;
    if (recorder_ != nullptr) recorder_->record(ev);
  }
  if (injected != 0) events_.fetch_add(injected, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ByzantineNeighbors
// ---------------------------------------------------------------------------

bool ByzantineNeighbors::is_liar(graph::Vertex v) const noexcept {
  if (!config_.enabled()) return false;
  const std::uint64_t h = mix(mix(seed_) ^ v);
  return h % 1'000'000u < config_.liars_per_million;
}

void ByzantineNeighbors::begin_round(const MailboxArena& /*arena*/,
                                     graph::GraphView /*g*/,
                                     std::uint64_t /*round*/) {}

void ByzantineNeighbors::apply(MailboxArena& arena, graph::GraphView g,
                               graph::Vertex v, std::uint64_t round,
                               std::size_t /*shard*/) {
  if (round < config_.first_round || round > config_.last_round) return;
  if (!is_liar(v)) return;
  const auto nbrs = g.neighbors(v);
  const std::uint32_t base = arena.base(v);
  std::uint64_t injected = 0;
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    const std::uint32_t gp = base + static_cast<std::uint32_t>(p);
    auto words = arena.words_mutable(gp);
    if (words.empty()) continue;
    const graph::Vertex w = nbrs[p];
    const std::uint64_t h = edge_hash(seed_, round, v, w);
    if (h % 1'000'000u >= config_.lie_per_million) continue;
    const std::uint32_t bits = words[0].bits == 0 ? 1 : words[0].bits;
    std::uint64_t lie = mix(h) & width_mask(bits);
    // A lie equal to the truth is no lie; flipping bit 0 stays in-width.
    if (lie == words[0].value) lie ^= 1;
    words[0].value = lie;
    FaultEvent ev;
    ev.round = round;
    ev.kind = FaultKind::Lie;
    ev.u = v;
    ev.v = w;
    ev.value = lie;
    ++injected;
    if (recorder_ != nullptr) recorder_->record(ev);
  }
  if (injected != 0) events_.fetch_add(injected, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ChannelHookChain
// ---------------------------------------------------------------------------

void ChannelHookChain::begin_round(const MailboxArena& arena, graph::GraphView g,
                                   std::uint64_t round) {
  for (runtime::ChannelHook* hook : hooks_) hook->begin_round(arena, g, round);
}

void ChannelHookChain::apply(MailboxArena& arena, graph::GraphView g,
                             graph::Vertex v, std::uint64_t round,
                             std::size_t shard) {
  for (runtime::ChannelHook* hook : hooks_) {
    hook->apply(arena, g, v, round, shard);
  }
}

std::uint64_t ChannelHookChain::events() const noexcept {
  std::uint64_t total = 0;
  for (const runtime::ChannelHook* hook : hooks_) total += hook->events();
  return total;
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

void append_channel_hooks(ChannelHookChain& chain, const ZooSpec& zoo,
                          std::uint64_t seed,
                          runtime::FaultEventSink* recorder) {
  if (zoo.outage.enabled()) {
    chain.own(std::make_unique<RegionalOutage>(zoo.outage, recorder));
  }
  if (zoo.flap.enabled()) {
    chain.own(
        std::make_unique<FlappingLinks>(zoo.flap, seed ^ kFlapStream, recorder));
  }
  if (zoo.byz.enabled()) {
    chain.own(std::make_unique<ByzantineNeighbors>(zoo.byz, seed ^ kByzStream,
                                                   recorder));
  }
}

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
