#pragma once

#include <cstddef>
#include <cstdint>

#include "agc/obs/phase_timer.hpp"
#include "agc/obs/telemetry.hpp"
#include "agc/runtime/metrics.hpp"

/// \file run_report.hpp
/// The common core every `run_*` entry point's result embeds.
///
/// Per-algorithm result structs (IterativeResult, PipelineReport,
/// EdgeColoringResult, the selfstab stabilization reports, ...) derive from
/// RunReport, so `rounds`, `converged`, `metrics` and the telemetry accessor
/// are spelled identically across the whole API instead of once per struct.
/// Algorithm-specific fields (colors, palette, stage round splits, ...) stay
/// on the derived structs.

namespace agc::runtime {

struct RunReport {
  std::size_t rounds = 0;   ///< engine rounds this run executed
  bool converged = false;   ///< the entry point's success predicate
  Metrics metrics;          ///< rounds/messages/bits accounting

  /// Folded per-shard phase timings (all-zero unless the run's RunOptions
  /// set collect_phase_times).
  obs::PhaseStats phases;
  /// End-to-end wall time of the run, including runner-side work.
  std::uint64_t wall_ns = 0;
  /// Total adversary events injected through RunOptions::adversary.
  std::size_t fault_events = 0;
  /// Peak bytes of the locally-iterative sweep's two packed color buffers
  /// (0 for runs on the engine).  Stages fold it as a max.
  std::uint64_t state_bytes = 0;

  /// The unified counters/gauges view: everything Metrics, the edge-bit
  /// ledger and the phase timers counted, as one registry (assembled on
  /// call; fine to invoke once at end of run, not per round).
  [[nodiscard]] obs::Telemetry telemetry() const;

  /// Stage accumulation: counters add, metrics merge (max_edge_bits is a
  /// max), phase stats merge, convergence ANDs, state_bytes is a max.  Used
  /// by the pipelines.
  void absorb(const RunReport& stage);
};

}  // namespace agc::runtime
