#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "agc/runtime/faults.hpp"
#include "agc/runtime/transport.hpp"

/// \file channel.hpp
/// Message-path adversaries: the seeded random ChannelAdversary and the
/// plan-driven ChannelPlayback, both implementing runtime::ChannelHook.
///
/// A channel fault attacks the wire, not the sender: it runs after transport
/// validation, so the *program* stayed inside the model's bandwidth budget
/// and the fault is attributable to the channel.  Four fault kinds exist:
///
///   drop       the whole message at one port vanishes this round.
///   corrupt    one bit of the first word flips — the flipped bit stays below
///              the word's declared width, so the corrupted value still fits
///              the model's B-bit budget.
///   duplicate  the first word is appended once more (the receiver's
///              from_port() sees it twice; SET-LOCAL's multiset() view reads
///              only first words, so there a duplicate is absorbed — exactly
///              the sender-anonymity the model promises).
///   delay      a single-word message is held back and *prepended* to the
///              same port's traffic next round.  In-flight delayed words are
///              still flushed after the adversary quiesces.
///
/// Determinism: every decision is a pure hash of (seed, round, sender,
/// receiver) — vertex IDs, not port indices, so decisions survive topology
/// churn — and per-port state is only touched by the shard that owns the
/// sender.  Trajectories are therefore bit-identical for 1, 2 or 8 threads.

namespace agc::faultlab {

/// Per-edge-per-round fault probabilities in parts per million.  The four
/// kinds are disjoint: one die roll per (edge, round) lands in at most one
/// range, so their sum must stay <= 1'000'000.
struct ChannelFaultConfig {
  std::uint64_t seed = 1;
  std::uint32_t drop_per_million = 0;
  std::uint32_t corrupt_per_million = 0;
  std::uint32_t duplicate_per_million = 0;
  std::uint32_t delay_per_million = 0;
  /// Active window, inclusive, in 0-based engine rounds.  Outside the window
  /// the wire is clean (pending delayed words still flush), matching the
  /// paper's promise that faults eventually stop.
  std::uint64_t first_round = 0;
  std::uint64_t last_round = std::uint64_t(-1);

  [[nodiscard]] std::uint32_t total_per_million() const noexcept {
    return drop_per_million + corrupt_per_million + duplicate_per_million +
           delay_per_million;
  }
};

/// The one reading of a probability from outside input (a campaign key, a
/// CLI flag): a finite decimal in [0, 1] (graph::parse_f64), stored as the
/// nearest value on the per-million grid every adversary draws against.
/// nullopt when `text` is not such a number.
[[nodiscard]] std::optional<std::uint32_t> parse_per_million(
    std::string_view text) noexcept;

/// The seeded random wire attacker.  Optionally records every injected fault
/// to a FaultEventSink (see plan.hpp) so a fuzz run can be replayed exactly.
class ChannelAdversary final : public runtime::ChannelHook {
 public:
  explicit ChannelAdversary(ChannelFaultConfig config,
                            runtime::FaultEventSink* recorder = nullptr)
      : config_(config), recorder_(recorder) {}

  void begin_round(const runtime::MailboxArena& arena, graph::GraphView g,
                   std::uint64_t round) override;
  void apply(runtime::MailboxArena& arena, graph::GraphView g,
             graph::Vertex v, std::uint64_t round, std::size_t shard) override;

  [[nodiscard]] const char* name() const noexcept override { return "channel"; }
  [[nodiscard]] std::uint64_t events() const noexcept override {
    return events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ChannelFaultConfig& config() const noexcept {
    return config_;
  }

 private:
  ChannelFaultConfig config_;
  runtime::FaultEventSink* recorder_;
  std::atomic<std::uint64_t> events_{0};
  // Delay stash, one slot per global port.  A slot is only ever touched by
  // the shard owning its sender, so plain (non-atomic) storage is safe.
  std::vector<runtime::Word> stash_;
  std::vector<std::uint8_t> stash_full_;
  std::uint64_t arena_version_ = std::uint64_t(-1);
  bool bound_ = false;
};

/// Replays the channel-domain events of a recorded fault plan (plan.hpp),
/// reproducing the recorded trajectory bit-for-bit — including the one-round
/// re-emergence of delayed words.  Events must be canonicalized (sorted by
/// round, then sender); PlanAdversary handles the RAM/topology domain.
class ChannelPlayback final : public runtime::ChannelHook {
 public:
  /// `events` must outlive the playback; only channel-kind entries are used.
  explicit ChannelPlayback(const std::vector<runtime::FaultEvent>& events);

  void begin_round(const runtime::MailboxArena& arena, graph::GraphView g,
                   std::uint64_t round) override;
  void apply(runtime::MailboxArena& arena, graph::GraphView g,
             graph::Vertex v, std::uint64_t round, std::size_t shard) override;

  [[nodiscard]] const char* name() const noexcept override { return "channel"; }
  [[nodiscard]] std::uint64_t events() const noexcept override {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<runtime::FaultEvent> channel_events_;  ///< sorted (round, u, v)
  std::size_t round_begin_ = 0;  ///< current round's slice, set in begin_round
  std::size_t round_end_ = 0;
  std::atomic<std::uint64_t> events_{0};
  std::vector<runtime::Word> stash_;
  std::vector<std::uint8_t> stash_full_;
  std::uint64_t arena_version_ = std::uint64_t(-1);
  bool bound_ = false;
};

}  // namespace agc::faultlab
