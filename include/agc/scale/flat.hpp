#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "agc/graph/checks.hpp"
#include "agc/graph/view.hpp"

/// \file flat.hpp
/// The web-graph-scale front door of the (Delta+1) pipeline (docs/SCALE.md).
///
/// At n = 10^7 the round engine's per-vertex programs and mailboxes do not
/// fit the budget, and none of them is needed for the fault-free BSP case.
/// run_locally_iterative already evaluates such runs with the sweep — two
/// byte-lane color buffers, one pass per round over the frozen CSR that
/// steps only non-final vertices, 64-vertex-aligned shards on the exec
/// thread pool (iterative.hpp, docs/EXEC.md).  This header is the thin
/// wrapper the scale bench drives: coloring::color_delta_plus_one on a
/// thread count, reported with the lane state size.  The pipeline is described once,
/// in coloring/pipeline.cpp.

namespace agc::scale {

struct FlatOptions {
  /// Worker threads for the per-round sweep (0 = all hardware threads).
  std::size_t threads = 1;
};

struct FlatResult {
  std::vector<graph::Color> colors;
  std::size_t rounds = 0;         ///< total rounds across all stages
  std::size_t rounds_linial = 0;  ///< log* phase
  std::size_t rounds_core = 0;    ///< AG phase
  std::size_t rounds_finish = 0;  ///< greedy palette finish
  bool converged = false;
  bool proper = false;            ///< final coloring verified proper
  std::size_t palette = 0;        ///< distinct colors in the final coloring
  /// Peak bytes of lane working state (both buffers) across stages — the
  /// number BENCH_scale.json reports as state_bytes_per_vertex.
  std::uint64_t state_bytes = 0;
};

/// coloring::color_delta_plus_one (Linial, AG, greedy finish) on
/// exec::make_executor(opts.threads).
[[nodiscard]] FlatResult color_delta_plus_one_flat(graph::GraphView g,
                                                   const FlatOptions& opts = {});

}  // namespace agc::scale
