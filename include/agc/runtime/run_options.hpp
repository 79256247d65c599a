#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "agc/runtime/transport.hpp"

/// \file run_options.hpp
/// The unified run configuration shared by every `run_*` entry point.
///
/// Before this header existed, each entry point grew its own option spelling:
/// IterativeOptions carried model/congest/max_rounds/executor, the edge
/// colorer had a private congest_bits + executor pair, the arb entry points
/// took a bare executor parameter, and fault adversaries were reachable only
/// by hand-driving a selfstab engine.  RunOptions is the one core those
/// structs now embed (IterativeOptions and EdgeColoringOptions derive from
/// it; PipelineOptions nests it through its iterative stage options), so the
/// execution backend, the fault adversary and the observability hooks are
/// spelled — and threaded — identically everywhere.

namespace agc::obs {
class EventSink;
}  // namespace agc::obs

namespace agc::runtime {

class RoundExecutor;    // round.hpp
class FaultAdversary;   // faults.hpp

struct RunOptions {
  /// Communication model of the engine's transport.  Entry points whose
  /// protocol fixes the model (e.g. the CONGEST/Bit-Round edge colorer)
  /// ignore this field and document what they use instead.
  Model model = Model::SET_LOCAL;
  std::uint32_t congest_bits = 64;
  std::size_t max_rounds = 1'000'000;

  /// Execution backend for the round engine and for the locally-iterative
  /// sweep's shard passes (null = sequential).  The exec subsystem's sharded
  /// backend is bit-identical for any thread count, so this only affects
  /// wall-clock time.
  std::shared_ptr<RoundExecutor> executor;

  /// Fault adversary invoked between rounds (non-owning; null = fault-free).
  /// Works for iterative, pipeline, Luby and edge runs as well as the selfstab
  /// runners and the faultlab harness, which all step through
  /// runtime::HookedRounds; see faults.hpp for the hook contract and
  /// hooked_rounds.hpp for the round index and event stamps.
  FaultAdversary* adversary = nullptr;

  /// Message-path fault hook run inside every send phase (non-owning; null =
  /// clean wire).  Unlike the adversary it attacks messages, not RAM or
  /// topology; see ChannelHook in transport.hpp and src/faultlab for the
  /// seeded implementation.  Channel events count into
  /// RunReport::fault_events like adversary events do.
  ChannelHook* channel = nullptr;

  /// Structured event sink (non-owning; null = observability off, the
  /// default — emission is skipped behind one branch and the steady-state
  /// round loop stays allocation-free).
  obs::EventSink* sink = nullptr;

  /// Collect per-shard phase timings into the result's telemetry.  Off by
  /// default; when off the timers cost one branch per phase per shard.
  bool collect_phase_times = false;

  /// Static tag attached to emitted events (stage name, algorithm name).
  const char* tag = nullptr;

  /// Seed for randomized algorithms (coloring::luby today).  Determinism
  /// contract: any randomized entry point must derive its per-vertex
  /// randomness as a pure function of (seed, round, vertex id) — never of
  /// thread count or scheduling — so a run replays bit-identically across
  /// 1/2/8 threads.
  /// This is the ONE seed spelling for algorithm randomness; per-call seed
  /// parameters on coloring entry points are not accepted (CI grep-gates
  /// include/agc/coloring for them).  Deterministic algorithms ignore it.
  std::uint64_t seed = 1;
};

}  // namespace agc::runtime
