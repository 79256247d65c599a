#pragma once

#include <cstdint>
#include <string>

#include "agc/runtime/message.hpp"

/// \file transport.hpp
/// Communication models.  The transport validates every outgoing message
/// against the model's bandwidth and structure rules and feeds the metrics.
///
///   LOCAL      — unbounded messages (model of [49], [3], [22]).
///   CONGEST(B) — at most B bits per edge per round (B = O(log n) classically).
///   BIT        — 1 bit per edge per round (Bit-Round model of [43]).
///   SET_LOCAL  — broadcast-only, sender-anonymous; receivers see only the
///                multiset of neighbor values (weak LOCAL model of [33]).

namespace agc::runtime {

enum class Model : std::uint8_t { LOCAL, CONGEST, BIT, SET_LOCAL };

[[nodiscard]] std::string to_string(Model m);

class Transport {
 public:
  /// `congest_bits` is only meaningful for Model::CONGEST.
  explicit Transport(Model model, std::uint32_t congest_bits = 64)
      : model_(model), congest_bits_(congest_bits) {}

  [[nodiscard]] Model model() const noexcept { return model_; }
  [[nodiscard]] std::uint32_t congest_bits() const noexcept { return congest_bits_; }

  /// Maximum declared message width admitted on one edge in one round, or
  /// 0 for unbounded.
  [[nodiscard]] std::uint32_t width_cap() const noexcept;

  /// Throws std::logic_error if the outbox violates the model (over-wide
  /// message, or a directed send in SET_LOCAL).  Reads the arena-backed view
  /// in place — no message is copied for validation.
  void validate(const OutboxRef& out) const;

  /// The same checks validate() applies to every port of a one-word
  /// broadcast from a vertex with at least one neighbor, with the same
  /// errors: the value must fit its declared width, then the width must fit
  /// the model's cap.
  void validate_broadcast(const Word& w) const;

 private:
  static void check_value(const Word& w);
  void check_port_bits(std::uint64_t total) const;

  Model model_;
  std::uint32_t congest_bits_;
};

/// The message-path fault hook (src/faultlab implements it).
///
/// While the FaultAdversary of faults.hpp attacks RAM and topology *between*
/// rounds, a ChannelHook attacks messages *inside* a round: it runs right
/// after a sender's outbox passed model validation — the sender was honest,
/// the wire is not — and may drop, duplicate, corrupt or delay the words
/// queued at that sender's ports, in place in the MailboxArena.
///
/// Concurrency contract: apply(v) is called by the shard that owns sender v,
/// so an implementation may keep per-port state (e.g. a delay stash) as long
/// as slots are only touched through the owning sender's ports.  Any decision
/// an implementation takes must be a pure function of (its own seed/plan,
/// round, sender, receiver) so trajectories are bit-identical for every shard
/// count.  begin_round runs on the driving thread between rounds and is the
/// only place an implementation may allocate (rebinding per-port state after
/// topology churn); steady-state apply() must not allocate.
class ChannelHook {
 public:
  virtual ~ChannelHook() = default;

  /// Driving thread, once per engine step, after the arena's port tables are
  /// rebuilt (if churned) and before any send.  `round` is the 0-based engine
  /// round about to execute.
  virtual void begin_round(const MailboxArena& arena, graph::GraphView g,
                           std::uint64_t round) = 0;

  /// Attack the validated outgoing ports of sender `v` for round `round`.
  /// Executed by shard `shard` inside the send phase.
  virtual void apply(MailboxArena& arena, graph::GraphView g,
                     graph::Vertex v, std::uint64_t round,
                     std::size_t shard) = 0;

  /// Static-lifetime label used in emitted fault events.
  [[nodiscard]] virtual const char* name() const noexcept { return "channel"; }

  /// Total channel fault events injected so far.  Implementations accumulate
  /// with relaxed atomics, so the sum is shard-count-independent.
  [[nodiscard]] virtual std::uint64_t events() const noexcept = 0;
};

}  // namespace agc::runtime
