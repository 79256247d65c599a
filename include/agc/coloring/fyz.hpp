#pragma once

#include <cstdint>

#include "agc/coloring/pipeline.hpp"

/// \file fyz.hpp
/// The Fu–Yin–Zheng locally-iterative (Delta+1)-coloring (arXiv 2207.14458)
/// — the direct successor that broke this paper's O(Delta) barrier with an
/// O(Delta^{3/4} log Delta + log* n) round bound.
///
/// Structure (all four stages are locally-iterative rules run through
/// run_locally_iterative; every intermediate packed coloring is proper):
///
///   1. linial     — the shared log* n preamble: identity IDs down to the
///                   O(Delta^2) palette L.
///   2. partition  — defective-Linial stages with slack budget
///                   p = ceil(Delta^{1/4}) compress L to the class space
///                   K = O((Delta/p)^2) = O(Delta^{3/2}) in O(1) rounds.
///   3. fyz-arb    — a carrier-packed Arbdefective-Color (Section 6 of the
///                   source paper): the tolerant AG iteration over Z_q,
///                   q = O(Delta/p) = O(Delta^{3/4}) prime, freezes every
///                   vertex into one of q classes within 2*ceil(Delta/p)+1
///                   rounds.
///   4. fyz-list   — a proposal-in-the-color list-coloring wave: a frozen
///                   vertex's state packs (priority, proposed color); it
///                   commits its proposal exactly when no done neighbor holds
///                   it and no same-proposal active neighbor has smaller
///                   priority.  Class-spread initial proposals keep the
///                   contention intra-class, so the wave drains in O(q)-ish
///                   measured rounds.
///
/// The carrier trick makes stages 2–4 locally-iterative in the strict
/// Szegedy–Vishwanathan sense even though defective/arbdefective colorings
/// are improper: every working state rides on top of the immutable proper
/// Linial color (state = lin * span + machinery), so adjacent full states
/// always differ and check_proper_each_round holds at every round of the
/// whole pipeline.  This mirrors FYZ's own tuple encoding; DESIGN.md records
/// where the wave rule substitutes for their exact finisher.
///
/// Determinism: the pipeline is deterministic and bit-identical at any
/// thread count (it is pure locally-iterative rules); it ignores
/// RunOptions::seed.

namespace agc::coloring {

/// The arbdefect/slack budget p used for Delta: ceil(Delta^{1/4}), >= 1.
/// Exposed so tests and the bench can report the induced class count.
[[nodiscard]] std::uint64_t fyz_budget(std::size_t delta);

/// Compute a (Delta+1)-coloring with the four-stage FYZ pipeline.  Round
/// split in the report: rounds_linial = stage 1, rounds_core = stages 2+3,
/// rounds_finish = stage 4.  Throws std::invalid_argument if Delta is large
/// enough that the packed state space leaves 64-bit colors (Delta ~ 2^13+ —
/// far beyond the CSR workloads this repo drives).
[[nodiscard]] PipelineReport color_fyz(graph::GraphView g,
                                       const PipelineOptions& opts = {});

}  // namespace agc::coloring
