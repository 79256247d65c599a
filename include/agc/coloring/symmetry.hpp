#pragma once

#include <vector>

#include "agc/coloring/pipeline.hpp"
#include "agc/graph/line_graph.hpp"

/// \file symmetry.hpp
/// The classic symmetry-breaking corollaries of fast (Delta+1)-coloring, in
/// their static distributed form: a proper k-coloring yields an MIS in <= k
/// additional rounds (each vertex decides once all smaller-colored neighbors
/// have), and MIS / vertex coloring on the line graph yield maximal matching
/// and (2Delta-1)-edge-coloring.  With the AG pipeline these all run in
/// O(Delta + log* n) rounds — the bounds the self-stabilizing variants of
/// Section 4 match under faults.

namespace agc::coloring {

/// RunReport core (rounds = coloring + MIS wave, converged == valid) plus
/// the membership flags and the per-phase round split.
struct MisReport : runtime::RunReport {
  std::vector<bool> in_mis;
  std::size_t rounds_coloring = 0;
  std::size_t rounds_mis = 0;  ///< <= palette of the input coloring
  bool valid = false;
};

/// Reduce a proper coloring to an MIS (one broadcast per round; a vertex
/// decides once every smaller-colored neighbor has decided, joining iff no
/// neighbor joined).  The wave is a rule over the word (color << 2) | status,
/// run by run_locally_iterative under `opts` — executor, fault hooks, sink,
/// phase timers and on_round included — for at most palette + 2 rounds; an
/// untagged run is tagged "mis-wave".
[[nodiscard]] MisReport mis_from_coloring(graph::GraphView g,
                                          const std::vector<Color>& colors,
                                          const runtime::IterativeOptions& opts = {});

/// End to end: AG pipeline + MIS reduction, O(Delta + log* n) rounds total.
[[nodiscard]] MisReport maximal_independent_set(graph::GraphView g,
                                                const PipelineOptions& opts = {});

/// RunReport core; `rounds` counts line-graph rounds (2x in the host graph).
struct MatchingReport : runtime::RunReport {
  std::vector<graph::Edge> matching;
  bool valid = false;
};

/// Maximal matching = MIS on the line graph (Section 4.2's reduction, static
/// form).  Round counts are line-graph rounds; a host-graph implementation
/// pays the standard factor-2 simulation overhead.
[[nodiscard]] MatchingReport maximal_matching(graph::GraphView g,
                                              const PipelineOptions& opts = {});

/// RunReport core; `rounds` counts line-graph rounds.
struct LineEdgeColoringReport : runtime::RunReport {
  std::vector<Color> colors;  ///< aligned with edge_list(g)
  std::size_t palette = 0;
  bool proper = false;
};

/// (2Delta-1)-edge-coloring by (Delta_L+1)-vertex-coloring L(G) — the LOCAL-
/// model baseline that Section 5's direct CONGEST algorithm replaces.
[[nodiscard]] LineEdgeColoringReport edge_coloring_via_line_graph(
    graph::GraphView g, const PipelineOptions& opts = {});

}  // namespace agc::coloring
