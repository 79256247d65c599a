#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

/// \file channel.hpp
/// Classic channel noise: i.i.d. per-port-round faults on the wire, run by
/// faultlab::WireFaults (zoo.hpp) beside the zoo's wire families.
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
/// range, so their sum must stay <= 1'000'000 (WireFaults refuses more).
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

}  // namespace agc::faultlab
