#pragma once

#include <vector>

#include "agc/runtime/iterative.hpp"

/// \file sweep.hpp (internal)
/// The flat evaluator run_locally_iterative uses for hook-free runs.
/// Its contract is run_locally_iterative's (iterative.hpp, docs/EXEC.md);
/// this header only splits it from the engine path in iterative.cpp.

namespace agc::runtime::detail {

/// Evaluate `rule` from `colors` with one double-buffered sweep per round:
/// next[v] = rule.step({v, round}, cur[v], N(v) colors in CSR order) for
/// every vertex whose current color is not final.  Each pass also checks
/// the previous round's coloring on the colors it gathers, and one closing
/// pass per run checks what no step pass read.  Reproduces the engine
/// path's colors, rounds, convergence, per-round properness, on_round calls,
/// RoundEnd events, transport errors and (in closed form) metrics.  Requires
/// no adversary and no channel hook; emits neither RunStart nor RunEnd and
/// leaves wall_ns to the caller.
[[nodiscard]] IterativeResult sweep_locally_iterative(graph::GraphView g,
                                                      std::vector<Color> colors,
                                                      const IterativeRule& rule,
                                                      const IterativeOptions& opts);

}  // namespace agc::runtime::detail
