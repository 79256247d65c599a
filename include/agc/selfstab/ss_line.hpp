#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_mis.hpp"

/// \file ss_line.hpp
/// Self-stabilizing maximal matching and (2*Delta-1)-edge-coloring via a
/// consistent line-graph simulation (Section 4.2, Theorem 4.7).
///
/// Every vertex hosts one virtual vertex per incident edge; the edge's state
/// is replicated at both endpoints.  An algorithm round takes two engine
/// rounds:
///   phase A — endpoints exchange their replicas of the shared edge; on a
///             mismatch both adopt the smaller-ID endpoint's value.
///   phase B — endpoints exchange the (now reconciled) states of all their
///             incident edges; both endpoints then run the identical
///             self-stabilizing step for the shared edge, so the replicas
///             stay equal in the absence of faults.
///
/// The virtual vertices run SsConfig::step (coloring) and, for maximal
/// matching, additionally mis_update — i.e. exactly the vertex algorithms on
/// L(G).  The line graph of a graph with maximum degree Delta has maximum
/// degree 2*Delta-2, so the exact palette mode yields a proper
/// (2*Delta-1)-edge-coloring.

namespace agc::selfstab {

enum class LineTask { EdgeColoring, MaximalMatching };

/// Configuration for the line-graph simulation.  `delta_g` is the degree
/// bound of the *host* graph; virtual IDs live in [0, n_bound^2).
class SsLineConfig {
 public:
  SsLineConfig(std::uint64_t n_bound, std::size_t delta_g, LineTask task,
               PaletteMode mode = PaletteMode::ExactDeltaPlusOne)
      : n_bound_(n_bound),
        task_(task),
        coloring_(n_bound * n_bound,
                  std::max<std::size_t>(delta_g >= 1 ? 2 * delta_g - 2 : 0, 1),
                  mode) {}

  [[nodiscard]] const SsConfig& coloring() const noexcept { return coloring_; }
  [[nodiscard]] LineTask task() const noexcept { return task_; }

  /// Unique virtual-vertex ID of the edge {u, v}.
  [[nodiscard]] std::uint64_t edge_id(graph::Vertex u, graph::Vertex v) const {
    const auto lo = std::min(u, v);
    const auto hi = std::max(u, v);
    return static_cast<std::uint64_t>(lo) * n_bound_ + hi;
  }

 private:
  std::uint64_t n_bound_;
  LineTask task_;
  SsConfig coloring_;
};

/// The per-vertex host program.  RAM exposes one word per incident edge (the
/// packed (color,status) replica), in neighbor-sorted order.
class SsLineProgram final : public runtime::VertexProgram {
 public:
  explicit SsLineProgram(const SsLineConfig& cfg) : cfg_(cfg) {}

  void on_start(const runtime::VertexEnv& env) override;
  void on_send(const runtime::VertexEnv& env, runtime::OutboxRef& out) override;
  void on_receive(const runtime::VertexEnv& env,
                  const runtime::InboxRef& in) override;
  std::span<std::uint64_t> ram() override { return vals_; }

  /// Replica state for the edge to neighbor `w` (packed color|status), or
  /// nullopt if not incident.
  [[nodiscard]] std::optional<std::uint64_t> replica(graph::Vertex w) const;

 private:
  void sync_keys(const runtime::VertexEnv& env);

  const SsLineConfig& cfg_;
  std::vector<graph::Vertex> keys_;   ///< neighbor ids, sorted (port order)
  std::vector<std::uint64_t> vals_;   ///< replica per key (RAM)
  // Phase B scratch, reused every round: the next replicas, one edge's
  // line-graph neighborhood and its colors.
  std::vector<std::uint64_t> next_;
  std::vector<std::uint64_t> packed_;
  std::vector<std::uint64_t> colors_;
};

[[nodiscard]] runtime::ProgramFactory ss_line_factory(const SsLineConfig& cfg);

/// Edge colors aligned with edge_list(engine.graph()), read from the smaller
/// endpoint's replica.
[[nodiscard]] std::vector<Color> current_edge_colors(runtime::Engine& engine);

/// Matched edges (replica status == kMis at the smaller endpoint).
[[nodiscard]] std::vector<graph::Edge> current_matching(runtime::Engine& engine);

/// The two replicas of edge e = {u, w}: u's and w's, or nullopt when either
/// endpoint runs no SsLineProgram or holds no replica for the other.
[[nodiscard]] std::optional<std::pair<std::uint64_t, std::uint64_t>> edge_replicas(
    runtime::Engine& engine, graph::Edge e);

}  // namespace agc::selfstab
