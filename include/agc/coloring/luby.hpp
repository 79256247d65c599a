#pragma once

#include <cstdint>

#include "agc/coloring/pipeline.hpp"

/// \file luby.hpp
/// Seeded Luby-style randomized (Delta+1)-coloring — the classic baseline
/// every distributed-coloring table is measured against.
///
/// Per round, every still-uncolored vertex draws a candidate uniformly from
/// its free list (the (Delta+1)-palette minus the colors of finalized
/// neighbors) and commits unless a neighbor holds that color or an active
/// neighbor drew the same candidate this round (symmetric defer — fresh
/// randomness next round breaks the tie).  With a fresh draw per round this
/// finishes in O(log n) rounds in expectation.
///
/// Determinism contract (RunOptions::seed): the candidate drawn by vertex v
/// in round r is H(seed, r, v) reduced onto the free list — a pure function
/// of (seed, round, vertex id), never of thread count or message arrival
/// order.  A fixed seed therefore replays bit-identically across 1/2/8
/// threads.  Distinct seeds give distinct trajectories.
///
/// Luby is a runtime::IterativeRule over one state word, which is also the
/// broadcast: state < Delta+1 is done with final color `state`; state =
/// Delta+1 + cand is active, proposing `cand`.  The initial state holds the
/// round-0 draw; a vertex that defers in round r draws its round-(r+1)
/// candidate at the end of its step, from the done colors of that round's
/// neighbor multiset.  color_luby is one run_locally_iterative call tagged
/// "luby": the sweep unless the options carry a fault hook.
///
/// A rewritten state is kept, not redrawn: after a RAM write or a vertex
/// reset (which restarts a vertex from its current word) an active vertex
/// proposes that word's candidate until it defers, and a done word stays
/// done.  Properness is judged against the input graph.
///
/// Unlike the coloring pipelines, Luby is NOT locally-iterative, rule or not:
/// an uncolored vertex has no proper color to maintain, so PipelineReport::
/// proper_each_round is reported false by construction.  That contrast —
/// randomized O(log n) without the invariant vs deterministic sublinear with
/// it — is exactly what the extended Table 1 measures.

namespace agc::coloring {

/// Run the seeded Luby-style coloring.  rounds_core carries the full round
/// count; palette <= Delta+1; RunOptions::seed selects the trajectory.
[[nodiscard]] PipelineReport color_luby(graph::GraphView g,
                                        const PipelineOptions& opts = {});

}  // namespace agc::coloring
