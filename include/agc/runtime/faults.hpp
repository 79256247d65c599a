#pragma once

#include <cstdint>
#include <limits>

#include "agc/graph/generators.hpp"
#include "agc/runtime/engine.hpp"

/// \file faults.hpp
/// The adversary of the fully-dynamic self-stabilizing setting (Section 4).
///
/// Between rounds the adversary may overwrite any RAM word of any vertex with
/// any value, insert or delete edges, and crash/recover vertices — the only
/// promises are that the bounds on n and Delta hold and that faults
/// eventually stop.  Stabilization time is measured from the last adversary
/// event.
///
/// Two layers live here: the low-level `Adversary` toolbox of fault
/// primitives (corrupt / clone / churn), and the `FaultAdversary` hook that
/// RunOptions threads through every entry point — iterative, pipeline, edge
/// and selfstab runs alike — so fault injection is no longer a selfstab-only
/// capability driven by hand.

namespace agc::runtime {

/// What one injected fault did.  The engine's adversary interface records
/// RAM/topology kinds with the engine round they happened *after*; channel
/// hooks record wire kinds with the 0-based round they happened *inside*.
/// The two domains replay at different points of the round loop, so a plan
/// orders them independently (see faultlab/plan.hpp).
enum class FaultKind : std::uint8_t {
  Ram = 0,      ///< RAM word `word` of vertex v overwritten with `value`
  AddEdge,      ///< edge {u, v} inserted
  RemoveEdge,   ///< edge {u, v} deleted
  ResetVertex,  ///< vertex v crashed/recovered (edges dropped, program reset)
  AddVertex,    ///< a fresh vertex appended (its id is `v`)
  Drop,         ///< message u -> v discarded on the wire
  Corrupt,      ///< bit `value` of word `word` of message u -> v flipped
  Duplicate,    ///< word `word` of message u -> v delivered twice
  Delay,        ///< message u -> v held back one round
  Lie,          ///< word 0 of message u -> v replaced with `value` (same width)
};

[[nodiscard]] const char* to_string(FaultKind k) noexcept;
[[nodiscard]] constexpr bool is_channel_fault(FaultKind k) noexcept {
  return k >= FaultKind::Drop;
}

/// One fault, fully determined: replaying the same record reproduces the
/// same mutation.  Trivially copyable so recording never allocates per event.
struct FaultEvent {
  std::uint64_t round = 0;  ///< engine round (see FaultKind for the anchor)
  FaultKind kind = FaultKind::Ram;
  std::uint32_t u = 0;      ///< channel sender / edge endpoint (else unused)
  std::uint32_t v = 0;      ///< vertex / channel receiver / edge endpoint
  std::uint32_t word = 0;   ///< RAM word index, or word index within a message
  std::uint64_t value = 0;  ///< RAM value, or flipped bit index for Corrupt

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Recording hook: the engine calls record() from its adversary-interface
/// methods (corrupt_ram / add_edge / remove_edge / reset_vertex /
/// add_vertex), channel hooks call it from apply().  Channel records arrive
/// from executor shards concurrently, so implementations must be
/// thread-safe; faultlab::FaultPlanRecorder is the canonical one.
class FaultEventSink {
 public:
  virtual ~FaultEventSink() = default;
  virtual void record(const FaultEvent& event) = 0;
};

class Adversary {
 public:
  explicit Adversary(std::uint64_t seed) : rng_(seed) {}

  /// Overwrite RAM word `word` of `count` random vertices with random values
  /// in [0, value_range).
  void corrupt_random(Engine& engine, std::size_t count, std::uint64_t value_range,
                      std::size_t word = 0);

  /// Worst-case color fault: copy a random neighbor's RAM word into the
  /// vertex, guaranteeing a monochromatic edge.  `count` random vertices.
  void clone_neighbor(Engine& engine, std::size_t count, std::size_t word = 0);

  /// Insert up to `adds` random edges (respecting the degree cap `dmax`) and
  /// delete up to `removes` random existing edges.
  void churn_edges(Engine& engine, std::size_t adds, std::size_t removes,
                   std::size_t dmax);

  /// Crash/recover `count` random vertices: all incident edges drop and the
  /// program restarts from scratch, then reconnect each with up to
  /// `reconnect` random edges under the degree cap.
  void churn_vertices(Engine& engine, std::size_t count, std::size_t reconnect,
                      std::size_t dmax);

  [[nodiscard]] std::size_t events() const noexcept { return events_; }

 private:
  graph::Rng rng_;
  std::size_t events_ = 0;
};

/// The hook RunOptions::adversary points at.  Every runner reaches it through
/// runtime::HookedRounds (hooked_rounds.hpp), which calls inject() between
/// rounds (after deliver/receive, before the next send) with the number of
/// rounds the runner has stepped: the 1-based index of the round that just
/// completed, counted from the start of the run (for the harness, from the
/// start of its fault phase), not from engine round 0.  The return value is
/// the number of fault events injected this call; HookedRounds adds it to
/// RunReport::fault_events, emits it as a Fault event stamped
/// engine.rounds(), and hands it back so runners can reset stabilization
/// clocks.
///
/// Implementations may mutate RAM words and churn edges; runners that mirror
/// program state (e.g. the iterative harness) resynchronize after a non-zero
/// return.  Adding vertices mid-run is only supported by the selfstab
/// runners.
class FaultAdversary {
 public:
  virtual ~FaultAdversary() = default;

  virtual std::size_t inject(Engine& engine, std::size_t round) = 0;

  /// Static-lifetime label used in emitted fault events.
  [[nodiscard]] virtual const char* name() const noexcept { return "adversary"; }
};

/// Deterministic, seeded adversary that fires every `period` rounds up to
/// `last_round` (inclusive), then goes quiet — matching the paper's promise
/// that faults eventually stop.  Each firing applies the configured mix of
/// primitives from the `Adversary` toolbox.
///
/// Boundary semantics (pinned by tests/test_faultlab.cpp):
///   * Runners pass the 1-based index of the round that just completed, and
///     inject() additionally guards round == 0 — so "round % period == 0"
///     NEVER fires before the first round, for any period.
///   * `last_round` quiescence is inclusive: a round equal to last_round
///     still fires (if the period divides it); last_round + 1 never does.
///   * Every primitive the toolbox applies counts exactly one event —
///     including the reconnect edges of churn_vertices — so after any
///     multi-stage RunReport::absorb() rollup, fault_events equals
///     Adversary::events().
class PeriodicAdversary final : public FaultAdversary {
 public:
  struct Schedule {
    std::size_t period = 1;       ///< fire when round % period == 0 (round >= 1)
    std::size_t last_round =      ///< quiesce after this round (inclusive)
        std::numeric_limits<std::size_t>::max();
    std::size_t corrupt = 0;        ///< vertices to corrupt_random per firing
    std::uint64_t value_range = 0;  ///< corruption value range (0 = full word)
    std::size_t clones = 0;         ///< vertices to clone_neighbor per firing
    std::size_t edge_adds = 0;      ///< edges to insert per firing
    std::size_t edge_removes = 0;   ///< edges to delete per firing
    std::size_t dmax = 0;           ///< degree cap for edge churn
  };

  PeriodicAdversary(std::uint64_t seed, Schedule schedule)
      : adversary_(seed), schedule_(schedule) {}

  std::size_t inject(Engine& engine, std::size_t round) override;

  [[nodiscard]] const char* name() const noexcept override { return "periodic"; }

  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }
  [[nodiscard]] std::size_t total_events() const noexcept {
    return adversary_.events();
  }

 private:
  Adversary adversary_;
  Schedule schedule_;
};

}  // namespace agc::runtime
