#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agc/coloring/palette.hpp"
#include "agc/runtime/iterative.hpp"

/// \file pipeline.hpp
/// End-to-end (Delta+1)-coloring pipelines — the library's front door.
///
/// Every pipeline starts from the identity ID-coloring, runs Linial's
/// reduction to O(Delta^2) colors in log* n + O(1) rounds, and then differs
/// in how it closes the O(Delta^2) -> Delta+1 gap:
///
///   color_delta_plus_one       — AG, then the O(Delta)-color greedy
///                                reduction (Corollary 3.6): O(Delta + log* n).
///   color_delta_plus_one_exact — AG, then the Section 7 mixed AG(p)/AG(N)
///                                rule; no standard reduction at all.
///   color_kuhn_wattenhofer     — the KW/SV barrier baseline:
///                                O(Delta log Delta + log* n).
///   color_linial_greedy        — Goldberg-Plotkin-Shannon-style baseline:
///                                greedy reduction straight from O(Delta^2)
///                                colors, O(Delta^2 + log* n).
///   color_o_delta              — stop after AG with O(Delta) colors (the
///                                palette the self-stabilizing algorithm of
///                                Section 4.1 maintains).

namespace agc::coloring {

struct PipelineOptions {
  PipelineOptions() = default;
  /// A bare RunOptions parameterizes the pipeline's iterative stages, so the
  /// same options object drives any entry point in the library.
  /*implicit*/ PipelineOptions(const runtime::RunOptions& base) : iter(base) {}

  runtime::IterativeOptions iter;
  /// ID space = id_space_factor * n; sweeping it exercises the log* term.
  std::uint64_t id_space_factor = 1;
  /// Palette slack for the (1+eps)Delta entry point (registry algo "eps");
  /// every other pipeline ignores it.
  double eps = 0.5;

  /// The unified RunOptions core the stages run under (== iter's base).
  [[nodiscard]] runtime::RunOptions& run() noexcept { return iter; }
  [[nodiscard]] const runtime::RunOptions& run() const noexcept { return iter; }
};

/// RunReport core (rounds, converged, metrics, telemetry) plus the coloring,
/// the palette size and the per-stage round split.
struct PipelineReport : runtime::RunReport {
  std::vector<Color> colors;
  std::size_t palette = 0;        ///< number of distinct colors used
  std::size_t rounds_linial = 0;  ///< log* phase
  std::size_t rounds_core = 0;    ///< AG / KW / greedy phase
  std::size_t rounds_finish = 0;  ///< final reduction phase (if any)
  /// The final colors judged on the input graph.  Taken from the stages'
  /// per-round verdict when that verdict covers them: checks on, the
  /// invariant held, at least one stage ran, the colors are the last
  /// stage's output and no adversary churned the graph the engine judged.
  /// Otherwise every edge is checked once more.
  bool proper = false;
  bool proper_each_round = false;  ///< the locally-iterative invariant
};

[[nodiscard]] PipelineReport color_delta_plus_one(graph::GraphView g,
                                                  const PipelineOptions& opts = {});

[[nodiscard]] PipelineReport color_delta_plus_one_exact(
    graph::GraphView g, const PipelineOptions& opts = {});

[[nodiscard]] PipelineReport color_kuhn_wattenhofer(graph::GraphView g,
                                                    const PipelineOptions& opts = {});

[[nodiscard]] PipelineReport color_linial_greedy(graph::GraphView g,
                                                 const PipelineOptions& opts = {});

[[nodiscard]] PipelineReport color_o_delta(graph::GraphView g,
                                           const PipelineOptions& opts = {});

}  // namespace agc::coloring
