#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "agc/faultlab/channel.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/transport.hpp"

/// \file zoo.hpp
/// The adversary zoo: production-shaped fault models behind the existing
/// ChannelHook / FaultAdversary seams, and WireFaults, the one hook that
/// runs every wire fault.
///
/// Where channel.hpp's noise throws i.i.d. per-edge coins, the zoo models
/// the correlated, stateful, targeted failures production systems actually
/// see.  Three families act on the wire, inside WireFaults:
///
///   outage     every edge incident to a contiguous ID range goes dark for a
///              window of rounds — a rack/region partition, not independent
///              packet loss.
///   flap       each link runs a seeded two-state Markov chain (Up/Down);
///              while Down the link drops everything, so loss arrives in
///              bursts with geometric dwell times.
///   byz        a seeded vertex subset lies on the wire: outgoing word 0 is
///              replaced by a width-preserving bounded lie, so the receiver
///              cannot reject it on format grounds.
///
/// Two act on the state, between rounds:
///
///   AdaptiveAdversary   re-targets the currently highest-degree or
///                       most-recently-recolored vertices from a
///                       deterministic snapshot and clones a neighbor's
///                       color onto them — the worst-case monochromatic hit.
///   ChurnTrace          a power-law arrival process replayed into the
///                       add/remove-vertex path: heavy-tailed gaps between
///                       arrivals/crashes with degree-biased attachment.
///
/// Determinism contract (same as channel.hpp): every wire decision is a pure
/// splitmix64 hash of (stream seed, round, sender, receiver) — vertex IDs,
/// not port indices — and per-port mutable state is only touched by the shard
/// owning the sender.  State adversaries run on the driving thread between
/// rounds.  Trajectories are therefore bit-identical for 1, 2 or 8 threads;
/// tests/test_zoo.cpp pins this per adversary.
///
/// Round anchors: wire faults use 0-based engine rounds (the round the
/// message travels in), state adversaries use the 1-based index of the round
/// that just completed, with PeriodicAdversary's boundary semantics (round 0
/// never fires, last_round is inclusive).

namespace agc::faultlab {

// ---------------------------------------------------------------------------
// Declarative configs (the FaultSpec grammar in sched/campaign.hpp maps
// one key family onto each; see docs/FAULTS.md).
// ---------------------------------------------------------------------------

/// Correlated regional outage: every message with an endpoint in [lo, hi]
/// (inclusive) is dropped during [first_round, last_round].  The region is
/// fully partitioned from the rest of the graph — and internally, since its
/// own edges are incident to it twice.  Disabled while lo > hi.
struct RegionalOutageConfig {
  graph::Vertex lo = 1;
  graph::Vertex hi = 0;
  std::uint64_t first_round = 0;
  std::uint64_t last_round = std::uint64_t(-1);

  [[nodiscard]] bool enabled() const noexcept { return lo <= hi; }
};

/// Flapping links: a two-state Markov chain per link.  Both directions of an
/// edge share one chain (rolls hash the canonical (min, max) endpoint pair),
/// so a Down link is symmetric, like a real dead cable.  Transition
/// probabilities are per round in parts per million; their sum must stay
/// <= 1'000'000 (WireFaults refuses more).  Links start Up, only evolve
/// inside the window, and are treated as Up outside it — faults eventually
/// stop.
struct FlappingLinksConfig {
  std::uint32_t down_per_million = 0;      ///< P(Up -> Down) per round
  std::uint32_t up_per_million = 500'000;  ///< P(Down -> Up) per round
  std::uint64_t first_round = 0;
  std::uint64_t last_round = std::uint64_t(-1);

  [[nodiscard]] bool enabled() const noexcept { return down_per_million > 0; }
};

/// Byzantine-valued neighbors: a seeded subset of vertices (each vertex is a
/// liar with probability liars_per_million, decided by a pure hash of the
/// vertex ID so the subset survives churn) replaces word 0 of outgoing
/// messages with a seeded lie of the same declared bit width.  The lie always
/// differs from the true value, and each lying send records a
/// FaultKind::Lie event carrying the substituted value for exact replay.
struct ByzantineConfig {
  std::uint32_t liars_per_million = 0;         ///< vertex-is-a-liar probability
  std::uint32_t lie_per_million = 1'000'000;   ///< per-message lie probability
  std::uint64_t first_round = 0;
  std::uint64_t last_round = std::uint64_t(-1);

  [[nodiscard]] bool enabled() const noexcept { return liars_per_million > 0; }
};

/// Adaptive targeted corruption: every `period` completed rounds (up to
/// last_round, inclusive — PeriodicAdversary boundary semantics) pick the
/// `count` currently worst vertices from a deterministic snapshot and clone a
/// hash-chosen neighbor's RAM word 0 onto each, guaranteeing a monochromatic
/// edge at the most valuable target.
struct AdaptiveConfig {
  enum class Target : std::uint8_t {
    HighestDegree,      ///< rank by (degree desc, id asc)
    RecentlyRecolored,  ///< rank by (last round word 0 changed desc, id asc)
  };

  std::size_t period = 1;
  std::size_t last_round = std::numeric_limits<std::size_t>::max();
  std::size_t count = 0;  ///< targets per firing (0 = disabled)
  Target target = Target::HighestDegree;

  [[nodiscard]] bool enabled() const noexcept {
    return count > 0 && period > 0;
  }
};

/// Churn trace: `events` trace entries scheduled from `first_round` with
/// heavy-tailed inter-arrival gaps (bounded Pareto with tail exponent
/// `alpha`, gaps clamped to [1, 1024] rounds), truncated at `last_round`.
/// Each entry is either a vertex arrival (engine.add_vertex + `attach`
/// degree-biased edges, capped by `max_vertices`) or, with probability
/// resets_per_million — or always, once the vertex cap is hit — a
/// crash/recover (engine.reset_vertex + `attach` reconnect edges).  All
/// topology edits respect the degree cap `dmax` and flow through the
/// engine's adversary interface, so they are recorded into fault plans
/// automatically.
struct ChurnTraceConfig {
  std::size_t events = 0;  ///< total trace entries (0 = disabled)
  double alpha = 1.5;      ///< Pareto tail exponent for inter-arrival gaps
  std::size_t attach = 2;  ///< edges attached per arrival / reconnect
  std::uint32_t resets_per_million = 250'000;
  std::size_t first_round = 1;
  std::size_t last_round = std::numeric_limits<std::size_t>::max();
  std::size_t dmax = 16;          ///< degree cap for attached edges
  std::size_t max_vertices = 0;   ///< arrival cap on n (0 = resets only)
  /// Declarative form of max_vertices for campaign grids, where the graph's
  /// n is not known at spec-writing time: allow up to `grow` arrivals above
  /// the initial vertex count.  Runners resolve max_vertices = n + grow when
  /// grow > 0 and max_vertices was left 0.
  std::size_t grow = 0;

  [[nodiscard]] bool enabled() const noexcept { return events > 0; }
};

/// The whole zoo as one declarative value — what sched::FaultSpec embeds and
/// the campaign grammar serializes.  Seeds are not part of the shape:
/// WireFaults and append_state_adversaries derive one stream seed per
/// adversary from the job seed.
struct ZooSpec {
  RegionalOutageConfig outage;
  FlappingLinksConfig flap;
  ByzantineConfig byz;
  AdaptiveConfig adapt;
  ChurnTraceConfig churn;

  [[nodiscard]] bool any_channel() const noexcept {
    return outage.enabled() || flap.enabled() || byz.enabled();
  }
  [[nodiscard]] bool any_state() const noexcept {
    return adapt.enabled() || churn.enabled();
  }
  [[nodiscard]] bool any() const noexcept { return any_channel() || any_state(); }
};

/// Per-adversary seed streams, XORed into the job seed so one `seed=` knob
/// yields independent randomness per fault model (kChannelStream in
/// sched/registry.cpp plays the same role for channel noise).
inline constexpr std::uint64_t kFlapStream = 0xf1a99c0ffee0d1ceULL;
inline constexpr std::uint64_t kByzStream = 0xb12a7713e5a7b0a7ULL;
inline constexpr std::uint64_t kAdaptStream = 0xada9717e5eed5a17ULL;
inline constexpr std::uint64_t kChurnStream = 0xc0a27ace5eed1234ULL;

// ---------------------------------------------------------------------------
// The wire (runtime::ChannelHook)
// ---------------------------------------------------------------------------

/// True iff `v` lies under `config` with the byz stream seed `seed` (the
/// job's zoo seed ^ kByzStream): a pure hash of the vertex ID, so the liar
/// subset survives churn and thread-count changes.
[[nodiscard]] bool is_liar(const ByzantineConfig& config, std::uint64_t seed,
                           graph::Vertex v) noexcept;

/// Every wire fault, live or replayed, behind the engine's one channel-hook
/// slot.
///
/// Live, each outgoing port u -> w of a sender first flushes a word delayed
/// last round, then runs the families in a fixed order: channel noise
/// (channel.hpp), regional outage, flapping links, Byzantine lies.  A family
/// only *decides* a FaultEvent, from the port's words and a pure (seed,
/// round, u, w) hash.  Replaying, the port takes the plan's events for
/// (round, u, w) in plan order instead.  Either way one applier lands each
/// event on the port, records it and counts it — so a replay lands exactly
/// what the live run did, by construction.  An event finds nothing to do on
/// an empty port, and a delay nothing on a multi-word port or a full stash;
/// such an event is neither applied, recorded nor counted.
///
/// Per-port state — the delay stash and the flap chains — lives in vectors
/// indexed by global port and is touched only by the shard owning the
/// sender, so apply() is allocation-free and per-shard.  begin_round rebinds
/// it when churn renumbers the ports: pending delayed words are discarded
/// and every link comes back Up.
class WireFaults final : public runtime::ChannelHook {
 public:
  /// Live: channel noise from `channel` (seeded by channel.seed) and the
  /// zoo's wire families from `zoo`, flap seeded zoo_seed ^ kFlapStream and
  /// byz zoo_seed ^ kByzStream.  Throws std::invalid_argument when the four
  /// channel probabilities, or flap's down and up, sum above 1.
  WireFaults(const ChannelFaultConfig& channel, const ZooSpec& zoo,
             std::uint64_t zoo_seed, runtime::FaultEventSink* recorder = nullptr);
  /// Replay: the channel-kind events of a recorded plan; the others are
  /// PlanAdversary's (plan.hpp).
  explicit WireFaults(const std::vector<runtime::FaultEvent>& plan_events);

  void begin_round(const runtime::MailboxArena& arena, graph::GraphView g,
                   std::uint64_t round) override;
  void apply(runtime::MailboxArena& arena, graph::GraphView g,
             graph::Vertex v, std::uint64_t round, std::size_t shard) override;

  /// "zoo" when a zoo wire family is live, "channel" otherwise.
  [[nodiscard]] const char* name() const noexcept override {
    return zoo_.any_channel() ? "zoo" : "channel";
  }
  [[nodiscard]] std::uint64_t events() const noexcept override {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  /// The one applier: land `ev` on global port `gp`, record it; false when
  /// it found nothing to do.
  bool inject(runtime::MailboxArena& arena, std::uint32_t gp, std::size_t shard,
              const runtime::FaultEvent& ev);

  ChannelFaultConfig channel_;
  ZooSpec zoo_;
  std::uint64_t flap_seed_ = 0;
  std::uint64_t byz_seed_ = 0;
  runtime::FaultEventSink* recorder_ = nullptr;
  bool replay_ = false;
  std::vector<runtime::FaultEvent> plan_;  ///< replayed events, by (round, u, v)
  std::size_t round_begin_ = 0;  ///< the current round's slice of plan_
  std::size_t round_end_ = 0;
  std::atomic<std::uint64_t> events_{0};
  std::vector<runtime::Word> stash_;   ///< per port: the delayed word
  std::vector<std::uint8_t> stashed_;  ///< per port: 1 = stash_ holds a word
  std::vector<std::uint8_t> down_;     ///< per port: 1 = the link is Down
  std::uint64_t arena_version_ = 0;
  bool bound_ = false;
};

// ---------------------------------------------------------------------------
// State adversaries (runtime::FaultAdversary, driving thread between rounds)
// ---------------------------------------------------------------------------

/// Re-targets the worst vertices each firing.  Tracks "recently recolored"
/// by diffing RAM word 0 against the previous round's snapshot on every
/// inject call (O(n) per round — the zoo runs at test/campaign scale, not at
/// src/scale sizes).  Corruption goes through engine.corrupt_ram, so events
/// are recorded into fault plans by the engine itself.
class AdaptiveAdversary final : public runtime::FaultAdversary {
 public:
  AdaptiveAdversary(AdaptiveConfig config, std::uint64_t seed)
      : config_(config), seed_(seed) {}

  std::size_t inject(runtime::Engine& engine, std::size_t round) override;

  [[nodiscard]] const char* name() const noexcept override { return "adaptive"; }
  [[nodiscard]] std::size_t total_events() const noexcept { return events_; }

 private:
  AdaptiveConfig config_;
  std::uint64_t seed_;
  std::size_t events_ = 0;
  std::vector<std::uint64_t> prev_word0_;
  std::vector<std::uint64_t> last_changed_;  ///< round word 0 last changed, 0 = never
  std::vector<std::uint32_t> targets_;       ///< scratch, reused per firing
};

/// Replays a power-law arrival trace into the add/remove-vertex path.  The
/// schedule (which rounds carry an entry) is precomputed at construction from
/// the seed alone; entry contents consume a private Rng in trace order on the
/// driving thread, so the whole trace is independent of thread count.
class ChurnTrace final : public runtime::FaultAdversary {
 public:
  ChurnTrace(ChurnTraceConfig config, std::uint64_t seed);

  std::size_t inject(runtime::Engine& engine, std::size_t round) override;

  [[nodiscard]] const char* name() const noexcept override { return "churn"; }
  [[nodiscard]] std::size_t total_events() const noexcept { return events_; }
  [[nodiscard]] const std::vector<std::size_t>& schedule() const noexcept {
    return schedule_;
  }

 private:
  ChurnTraceConfig config_;
  graph::Rng rng_;
  std::vector<std::size_t> schedule_;  ///< sorted rounds carrying one entry each
  std::size_t next_ = 0;
  std::size_t events_ = 0;
};

/// Stacks state adversaries on RunOptions' single adversary slot; inject
/// forwards in composition order and sums the injected-event counts.
class FaultAdversaryChain final : public runtime::FaultAdversary {
 public:
  void add(runtime::FaultAdversary& adversary) {
    adversaries_.push_back(&adversary);
  }
  void own(std::unique_ptr<runtime::FaultAdversary> adversary) {
    adversaries_.push_back(adversary.get());
    owned_.push_back(std::move(adversary));
  }

  [[nodiscard]] bool empty() const noexcept { return adversaries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return adversaries_.size(); }

  std::size_t inject(runtime::Engine& engine, std::size_t round) override;

  [[nodiscard]] const char* name() const noexcept override { return "zoo"; }

 private:
  std::vector<runtime::FaultAdversary*> adversaries_;
  std::vector<std::unique_ptr<runtime::FaultAdversary>> owned_;
};

// ---------------------------------------------------------------------------
// Factories: one job seed -> the full configured zoo.
// ---------------------------------------------------------------------------

/// Append every enabled state adversary of `zoo` to `chain` in the fixed
/// composition order adapt -> churn, deriving stream seeds from `seed`.
void append_state_adversaries(FaultAdversaryChain& chain, const ZooSpec& zoo,
                              std::uint64_t seed);

}  // namespace agc::faultlab
