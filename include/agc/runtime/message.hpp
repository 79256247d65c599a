#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "agc/graph/view.hpp"

/// \file message.hpp
/// Messages and the flat mailbox arena of the synchronous round engine.
///
/// A message is a sequence of machine words, each with a *declared width in
/// bits*.  The transport accounts the summed width per edge per round
/// (CONGEST caps it at B bits, the Bit-Round model at 1 bit), so
/// bit-complexity results such as Lemma 5.2 are measured properties of an
/// execution, not assertions.  LOCAL-model algorithms (e.g. the line-graph
/// simulations of Section 4.2) may send arbitrarily many words per edge.
///
/// Storage is one MailboxArena per engine, not one container per vertex: a
/// CSR offset table maps every directed edge (a *port* of its sender) to one
/// inline Word slot in a flat buffer, with a per-shard spill lane for the
/// rare ports that carry more than one word per round (LOCAL-model
/// multi-word messages).  The arena is sized from the graph's degree
/// structure once per topology (Graph::topology_version) and *reset — not
/// reallocated — each round*, so the steady-state round loop performs zero
/// heap allocations for bounded models.  Programs interact with it only
/// through the non-owning OutboxRef / InboxRef views below.

namespace agc::runtime {

struct Word {
  std::uint64_t value = 0;
  std::uint32_t bits = 64;  ///< declared width; must satisfy value < 2^bits

  friend bool operator==(const Word&, const Word&) = default;
};

/// Helper: the narrowest width that can carry `value` (1 for 0).
[[nodiscard]] constexpr std::uint32_t width_of(std::uint64_t value) noexcept {
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::bit_width(value)));
}

class OutboxRef;
class InboxRef;

/// Flat CSR-backed mailbox storage for every vertex's outgoing messages of
/// one round.
///
/// Layout:
///   * `base_[v] .. base_[v+1]` are the global port indices of v, one per
///     directed edge (v, neighbor), in neighbor-sorted (port) order.
///   * Each port owns kInline Word slot(s) in `inline_`; the first word of a
///     port — all of it, for single-word protocols like every bounded-model
///     broadcast — lives there, with no indirection.
///   * A port that outgrows its inline slot relocates *wholly* into the spill
///     lane of the shard that owns its sender, so `words()` always returns
///     one contiguous span.  Runs grow geometrically and lane buffers are
///     never shrunk, so spill allocation stops once the protocol's message
///     sizes stabilize.
///   * `peer_port_[base_[v] + p]` is the global port of v in its p-th
///     neighbor's table — the precomputed reverse-port map that lets
///     delivery and InboxRef read the sender's words directly (no per-round
///     binary search, no copy).
///
/// Concurrency contract (matches docs/EXEC.md): during the send phase, shard
/// s writes only the ports of its own contiguous vertex range and only lane
/// s; after the send barrier the arena is read-only until the next round's
/// send phase resets it.  Port *contents* are therefore independent of the
/// shard count; only the (unobservable) lane layout varies.
///
/// Dynamic topology: the arena is rebuilt from the graph whenever
/// Graph::topology_version() changes (adversarial add_edge / remove_edge /
/// add_vertex / reset_vertex between rounds), so port tables never go stale
/// — see the churn regression tests in tests/test_mailbox_arena.cpp.  Views
/// handed to a program are valid only within the callback that received
/// them.
class MailboxArena {
 public:
  static constexpr std::uint32_t kInline = 1;       ///< words per port, inline
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  /// Rebuild the port tables iff the graph's topology changed since the last
  /// call, and report whether it did.  O(1) when unchanged; O(n + m) after
  /// churn.
  bool ensure(graph::GraphView g) {
    if (built_ && version_ == g.topology_version()) return false;
    rebuild(g);
    return true;
  }

  /// Size the per-shard spill lanes and multiset scratch.  Allocation happens
  /// only when the shard count grows (the engine calls this per new cut).
  void ensure_shards(std::size_t shards) {
    if (lanes_.size() < shards) lanes_.resize(shards);
    if (scratch_.size() < shards) scratch_.resize(shards);
  }

  /// Reset the spill lane of `shard` for a new round (capacity retained).
  void begin_shard(std::size_t shard) noexcept { lanes_[shard].used = 0; }

  /// Reset all ports of sender `v` (called by v's shard before on_send).
  void reset_ports(graph::Vertex v) noexcept {
    for (std::uint32_t gp = base_[v]; gp < base_[v + 1]; ++gp) {
      headers_[gp].count = 0;
      headers_[gp].lane = kNoLane;
    }
  }

  /// Append one word to the message at global port `gp`, spilling into
  /// `shard`'s lane when the inline slot is full.
  void push(std::uint32_t gp, std::size_t shard, Word w) {
    Port& h = headers_[gp];
    if (h.lane == kNoLane) {
      if (h.count < kInline) {
        inline_[gp * kInline + h.count++] = w;
        return;
      }
      spill(gp, shard);
    } else if (h.count == h.cap) {
      grow(gp, shard);
    }
    Port& hh = headers_[gp];  // spill/grow rewrote the header
    lanes_[hh.lane].buf[hh.begin + hh.count++] = w;
  }

  /// The words queued at global port `gp` this round (always contiguous).
  [[nodiscard]] std::span<const Word> words(std::uint32_t gp) const noexcept {
    const Port& h = headers_[gp];
    if (h.count == 0) return {};
    const Word* p = h.lane == kNoLane ? &inline_[gp * kInline]
                                      : &lanes_[h.lane].buf[h.begin];
    return {p, h.count};
  }

  // --- Channel-fault mutation (runtime::ChannelHook implementations) -------
  // A hook runs inside the send phase on the shard that owns the sender, so
  // these touch only state that shard already owns; see transport.hpp.

  /// Mutable view of the words at `gp` (corrupt-in-place).
  [[nodiscard]] std::span<Word> words_mutable(std::uint32_t gp) noexcept {
    const Port& h = headers_[gp];
    if (h.count == 0) return {};
    Word* p = h.lane == kNoLane ? &inline_[gp * kInline]
                                : &lanes_[h.lane].buf[h.begin];
    return {p, h.count};
  }

  /// Drop everything queued at `gp` this round.  The spill run (if any) stays
  /// accounted in its lane until the next round's reset — capacity, not
  /// contents, so nothing leaks.
  void clear_port(std::uint32_t gp) noexcept {
    headers_[gp].count = 0;
    headers_[gp].lane = kNoLane;
  }

  /// Grow lane `shard` to at least `words` total capacity up front, so a
  /// channel hook's in-round pushes (duplicate / delayed arrivals) never
  /// reallocate mid-phase.  No-op once the lane is big enough — the
  /// steady-state guarantee of test_alloc_hook.
  void reserve_lane(std::size_t shard, std::size_t words) {
    if (lanes_[shard].buf.size() < words) lanes_[shard].buf.resize(words);
  }

  [[nodiscard]] std::size_t n() const noexcept { return base_.size() - 1; }
  [[nodiscard]] std::uint32_t base(graph::Vertex v) const noexcept {
    return base_[v];
  }
  [[nodiscard]] std::uint32_t ports(graph::Vertex v) const noexcept {
    return base_[v + 1] - base_[v];
  }
  /// Reverse-port table slice for receiver `v`: entry p is the global port
  /// of v at its p-th neighbor.
  [[nodiscard]] const std::uint32_t* peer_ports(graph::Vertex v) const noexcept {
    return peer_port_.data() + base_[v];
  }

  [[nodiscard]] std::vector<std::uint64_t>& scratch(std::size_t shard) noexcept {
    return scratch_[shard];
  }

  [[nodiscard]] OutboxRef outbox(graph::Vertex v, std::size_t shard) noexcept;
  [[nodiscard]] InboxRef inbox(graph::Vertex v, std::size_t shard) noexcept;

  // --- Introspection (tests, allocation accounting) ------------------------

  /// Words currently held in spill runs (partition-independent: a port's
  /// contents never depend on the shard layout).
  [[nodiscard]] std::uint64_t spilled_words() const noexcept {
    std::uint64_t total = 0;
    for (const Port& h : headers_)
      if (h.lane != kNoLane) total += h.count;
    return total;
  }
  /// Sum of lane run capacities in use this round (partition-*dependent*;
  /// deterministic for a fixed shard count).
  [[nodiscard]] std::uint64_t lane_words_used() const noexcept {
    std::uint64_t total = 0;
    for (const Lane& l : lanes_) total += l.used;
    return total;
  }
  /// Heap capacity currently reserved across all spill lanes.
  [[nodiscard]] std::uint64_t lane_capacity() const noexcept {
    std::uint64_t total = 0;
    for (const Lane& l : lanes_) total += l.buf.size();
    return total;
  }
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return version_;
  }

 private:
  struct Port {
    std::uint32_t count = 0;
    std::uint32_t lane = kNoLane;  ///< kNoLane = inline storage
    std::uint32_t begin = 0;       ///< run offset in lanes_[lane].buf
    std::uint32_t cap = 0;         ///< run capacity (spilled ports only)
  };
  struct Lane {
    std::vector<Word> buf;  ///< grows geometrically, never shrinks
    std::size_t used = 0;   ///< high-water mark of this round's runs
  };

  void rebuild(graph::GraphView g);
  void spill(std::uint32_t gp, std::size_t shard);  // inline slot -> lane run
  void grow(std::uint32_t gp, std::size_t shard);   // double a full run

  std::vector<std::uint32_t> base_;       ///< n+1 CSR port offsets
  std::vector<std::uint32_t> peer_port_;  ///< reverse-port map, 2m entries
  std::vector<Port> headers_;             ///< per-port state, 2m entries
  std::vector<Word> inline_;              ///< kInline words per port
  std::vector<Lane> lanes_;               ///< one spill lane per shard
  std::vector<std::vector<std::uint64_t>> scratch_;  ///< multiset, per shard
  std::uint64_t version_ = 0;
  bool built_ = false;
};

/// Non-owning view of one vertex's outgoing ports for one round.  Ports are
/// indices into the vertex's (sorted) neighbor list.  Valid only inside the
/// on_send callback it was created for.
class OutboxRef {
 public:
  OutboxRef(MailboxArena& arena, std::uint32_t base, std::uint32_t ports,
            std::size_t shard) noexcept
      : arena_(&arena), base_(base), ports_(ports), shard_(shard) {}

  /// Append one word to the message for the neighbor at `port`.
  void send(std::size_t port, Word w) {
    assert(port < ports_);
    arena_->push(base_ + static_cast<std::uint32_t>(port), shard_, w);
    broadcast_only_ = false;
  }

  /// Send the same single word to every neighbor.  This is the only
  /// primitive available in the SET-LOCAL model.
  void broadcast(Word w) {
    for (std::uint32_t p = 0; p < ports_; ++p) arena_->push(base_ + p, shard_, w);
  }

  [[nodiscard]] std::size_t ports() const noexcept { return ports_; }
  [[nodiscard]] std::span<const Word> at(std::size_t port) const {
    return arena_->words(base_ + static_cast<std::uint32_t>(port));
  }
  [[nodiscard]] bool used_broadcast_only() const noexcept {
    return broadcast_only_;
  }

 private:
  MailboxArena* arena_;
  std::uint32_t base_;
  std::uint32_t ports_;
  std::size_t shard_;
  bool broadcast_only_ = true;  ///< no directed send() has occurred
};

/// Non-owning view of one vertex's incoming ports for one round: reads the
/// senders' words in place through the arena's reverse-port map (delivery
/// copies nothing).  Valid only inside the on_receive callback it was
/// created for — after the adversary churns topology between rounds the
/// arena rebuilds its port tables, so views never see stale ports.
class InboxRef {
 public:
  InboxRef(const MailboxArena& arena, const std::uint32_t* peer_ports,
           std::uint32_t ports, std::vector<std::uint64_t>& scratch) noexcept
      : arena_(&arena), peer_(peer_ports), ports_(ports), scratch_(&scratch) {}

  [[nodiscard]] std::size_t ports() const noexcept { return ports_; }

  /// Message from the neighbor at `port` (empty if it sent nothing).
  [[nodiscard]] std::span<const Word> from_port(std::size_t port) const {
    assert(port < ports_);
    return arena_->words(peer_[port]);
  }

  /// First word from `port`, or `fallback` if none arrived.
  [[nodiscard]] std::uint64_t value_or(std::size_t port,
                                       std::uint64_t fallback) const {
    const auto w = from_port(port);
    return w.empty() ? fallback : w.front().value;
  }

  /// SET-LOCAL view: the multiset of first-word values, stripped of sender
  /// identity, in unspecified order (every reader is order-free, as
  /// IterativeRule::step is).  Algorithms that only use this view are
  /// directly executable in the SET-LOCAL model (Section 1.2.3 of the
  /// paper).  The values are materialized into the shard's reusable scratch
  /// buffer, which the caller may reorder or overwrite; the returned span is
  /// invalidated by the next multiset() call on this shard (i.e. by the next
  /// vertex's on_receive).
  [[nodiscard]] std::span<std::uint64_t> multiset() const {
    auto& vals = *scratch_;
    vals.clear();
    for (std::uint32_t p = 0; p < ports_; ++p) {
      const auto w = arena_->words(peer_[p]);
      if (!w.empty()) vals.push_back(w.front().value);
    }
    return vals;
  }

 private:
  const MailboxArena* arena_;
  const std::uint32_t* peer_;
  std::uint32_t ports_;
  std::vector<std::uint64_t>* scratch_;
};

inline OutboxRef MailboxArena::outbox(graph::Vertex v,
                                      std::size_t shard) noexcept {
  return OutboxRef(*this, base_[v], ports(v), shard);
}

inline InboxRef MailboxArena::inbox(graph::Vertex v,
                                    std::size_t shard) noexcept {
  return InboxRef(*this, peer_ports(v), ports(v), scratch_[shard]);
}

}  // namespace agc::runtime
