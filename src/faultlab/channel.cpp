#include "agc/faultlab/channel.hpp"

#include <algorithm>
#include <cassert>

#include "agc/graph/spec.hpp"

namespace agc::faultlab {

namespace {

using runtime::FaultEvent;
using runtime::FaultKind;
using runtime::MailboxArena;
using runtime::Word;

/// splitmix64 finalizer — the same mixer graph::Rng seeds with.  Statelessly
/// hashing (seed, round, u, v) instead of streaming an RNG is what makes
/// channel decisions independent of visit order, hence of the shard count.
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

/// Re-emit a word delayed in round r-1 at the *front* of port gp's traffic
/// for round r.  For the (bounded-model) single-word case this is an exact
/// prepend; for a LOCAL multi-word message the displaced first word moves to
/// the back (documented in docs/FAULTS.md — delay targets single-word ports
/// only, so this only matters for in-flight flushes after topology churn).
void flush_stash(MailboxArena& arena, std::uint32_t gp, std::size_t shard,
                 std::vector<Word>& stash, std::vector<std::uint8_t>& full) {
  if (!full[gp]) return;
  full[gp] = 0;
  const Word delayed = stash[gp];
  const auto words = arena.words_mutable(gp);
  if (words.empty()) {
    arena.push(gp, shard, delayed);
  } else {
    const Word displaced = words[0];
    words[0] = delayed;
    arena.push(gp, shard, displaced);
  }
}

/// Rebind per-port stash storage after the arena rebuilt its port tables.
/// Ports are renumbered by churn, so pending delayed words are discarded —
/// the edge they were traveling on may no longer exist.
void rebind(const MailboxArena& arena, std::vector<Word>& stash,
            std::vector<std::uint8_t>& full, std::uint64_t& version,
            bool& bound) {
  if (bound && version == arena.topology_version()) return;
  const std::size_t total_ports =
      arena.n() == 0 ? 0 : arena.base(static_cast<graph::Vertex>(arena.n()));
  stash.assign(total_ports, Word{});
  full.assign(total_ports, 0);
  version = arena.topology_version();
  bound = true;
}

}  // namespace

std::optional<std::uint32_t> parse_per_million(std::string_view text) noexcept {
  const auto p = graph::parse_f64(text);
  if (!p || *p < 0.0 || *p > 1.0) return std::nullopt;
  return static_cast<std::uint32_t>(*p * 1'000'000.0 + 0.5);
}

void ChannelAdversary::begin_round(const MailboxArena& arena,
                                   graph::GraphView /*g*/,
                                   std::uint64_t /*round*/) {
  rebind(arena, stash_, stash_full_, arena_version_, bound_);
}

void ChannelAdversary::apply(MailboxArena& arena, graph::GraphView g,
                             graph::Vertex v, std::uint64_t round,
                             std::size_t shard) {
  const auto nbrs = g.neighbors(v);
  const std::uint32_t base = arena.base(v);
  const bool active =
      round >= config_.first_round && round <= config_.last_round;
  std::uint64_t injected = 0;
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    const std::uint32_t gp = base + static_cast<std::uint32_t>(p);
    flush_stash(arena, gp, shard, stash_, stash_full_);
    if (!active) continue;
    auto words = arena.words_mutable(gp);
    if (words.empty()) continue;  // nothing on the wire to attack
    const graph::Vertex w = nbrs[p];
    const std::uint64_t h = edge_hash(config_.seed, round, v, w);
    const std::uint32_t roll = static_cast<std::uint32_t>(h % 1'000'000u);
    const std::uint32_t d = config_.drop_per_million;
    const std::uint32_t c = d + config_.corrupt_per_million;
    const std::uint32_t u = c + config_.duplicate_per_million;
    const std::uint32_t l = u + config_.delay_per_million;
    FaultEvent ev;
    ev.round = round;
    ev.u = v;
    ev.v = w;
    if (roll < d) {
      arena.clear_port(gp);
      ev.kind = FaultKind::Drop;
    } else if (roll < c) {
      const std::uint32_t bits = words[0].bits == 0 ? 1 : words[0].bits;
      const std::uint32_t bit = static_cast<std::uint32_t>((h >> 32) % bits);
      words[0].value ^= 1ULL << bit;
      ev.kind = FaultKind::Corrupt;
      ev.value = bit;
    } else if (roll < u) {
      const Word head = words[0];  // push may relocate the span
      arena.push(gp, shard, head);
      ev.kind = FaultKind::Duplicate;
    } else if (roll < l) {
      // Delay targets single-word messages with a free stash slot; anything
      // else passes untouched (and unrecorded) this round.
      if (words.size() != 1 || stash_full_[gp]) continue;
      stash_[gp] = words[0];
      stash_full_[gp] = 1;
      arena.clear_port(gp);
      ev.kind = FaultKind::Delay;
    } else {
      continue;
    }
    ++injected;
    if (recorder_ != nullptr) recorder_->record(ev);
  }
  if (injected != 0) events_.fetch_add(injected, std::memory_order_relaxed);
}

ChannelPlayback::ChannelPlayback(const std::vector<FaultEvent>& events) {
  for (const FaultEvent& ev : events) {
    if (runtime::is_channel_fault(ev.kind)) channel_events_.push_back(ev);
  }
  std::stable_sort(channel_events_.begin(), channel_events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.round != b.round) return a.round < b.round;
                     return a.u < b.u;
                   });
}

void ChannelPlayback::begin_round(const MailboxArena& arena,
                                  graph::GraphView /*g*/,
                                  std::uint64_t round) {
  rebind(arena, stash_, stash_full_, arena_version_, bound_);
  auto lo = std::lower_bound(
      channel_events_.begin(), channel_events_.end(), round,
      [](const FaultEvent& ev, std::uint64_t r) { return ev.round < r; });
  auto hi = std::upper_bound(
      channel_events_.begin(), channel_events_.end(), round,
      [](std::uint64_t r, const FaultEvent& ev) { return r < ev.round; });
  round_begin_ = static_cast<std::size_t>(lo - channel_events_.begin());
  round_end_ = static_cast<std::size_t>(hi - channel_events_.begin());
}

void ChannelPlayback::apply(MailboxArena& arena, graph::GraphView g,
                            graph::Vertex v, std::uint64_t round,
                            std::size_t shard) {
  const auto nbrs = g.neighbors(v);
  const std::uint32_t base = arena.base(v);
  // Delayed words re-emerge exactly as in the live run, whether or not any
  // event targets this sender this round.
  for (std::size_t p = 0; p < nbrs.size(); ++p) {
    flush_stash(arena, base + static_cast<std::uint32_t>(p), shard, stash_,
                stash_full_);
  }
  auto lo = std::lower_bound(
      channel_events_.begin() + static_cast<std::ptrdiff_t>(round_begin_),
      channel_events_.begin() + static_cast<std::ptrdiff_t>(round_end_), v,
      [](const FaultEvent& ev, graph::Vertex u) { return ev.u < u; });
  std::uint64_t applied = 0;
  for (; lo != channel_events_.begin() + static_cast<std::ptrdiff_t>(round_end_) &&
         lo->u == v && lo->round == round;
       ++lo) {
    const FaultEvent& ev = *lo;
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), ev.v);
    if (it == nbrs.end() || *it != ev.v) continue;  // edge churned away
    const std::uint32_t gp =
        base + static_cast<std::uint32_t>(it - nbrs.begin());
    auto words = arena.words_mutable(gp);
    if (words.empty()) continue;
    switch (ev.kind) {
      case FaultKind::Drop:
        arena.clear_port(gp);
        break;
      case FaultKind::Corrupt: {
        const std::uint32_t bits = words[0].bits == 0 ? 1 : words[0].bits;
        words[0].value ^= 1ULL << (ev.value % bits);
        break;
      }
      case FaultKind::Duplicate: {
        const Word head = words[0];
        arena.push(gp, shard, head);
        break;
      }
      case FaultKind::Delay:
        if (words.size() != 1 || stash_full_[gp]) continue;
        stash_[gp] = words[0];
        stash_full_[gp] = 1;
        arena.clear_port(gp);
        break;
      case FaultKind::Lie: {
        const std::uint32_t bits = words[0].bits == 0 ? 1 : words[0].bits;
        const std::uint64_t cap =
            bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
        words[0].value = ev.value & cap;
        break;
      }
      default:
        continue;
    }
    ++applied;
  }
  if (applied != 0) events_.fetch_add(applied, std::memory_order_relaxed);
}

}  // namespace agc::faultlab
