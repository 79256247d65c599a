#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "agc/coloring/ag3.hpp"
#include "agc/graph/checks.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/metrics.hpp"
#include "agc/runtime/run_options.hpp"
#include "agc/runtime/run_report.hpp"

/// \file edge_coloring.hpp
/// The distributed (2*Delta-1)-edge-coloring of Section 5, in the CONGEST and
/// Bit-Round models.
///
/// Stage 1  ID + (i,j) exchange: Kuhn's 2-defective Delta^2-edge-coloring
///          (one O(log n)-bit and one O(log Delta)-bit message per edge).
/// Stage 2  Cole-Vishkin over each color class's edge-chains: the tail of an
///          edge computes the shrinking label and forwards it to the head
///          (O(log n) bits total per edge, the widths halving each round),
///          then three 3-bit shift-down rounds; yields a proper
///          3*Delta^2-edge-coloring.
/// Stage 3  AG on the edges: each endpoint tests for second-coordinate
///          conflicts among its incident edges and sends ONE BIT per edge
///          per round; both endpoints then apply the identical AG update.
///          O(Delta) rounds to an O(Delta)-edge-coloring (Lemma 5.1).
/// Stage 4  (optional) the mixed AG(p)/AG(N) rule on the line graph via a
///          2-bit-per-edge exchange, finishing at exactly 2*Delta-1 colors
///          (Theorem 5.3).
///
/// With `bit_round` set, every multi-bit message is serialized one bit per
/// round (the schedule's widths are ROM-computable, so sender and receiver
/// agree on framing), which realizes the O(Delta + log n) Bit-Round bound.

namespace agc::edge {

using graph::Color;

/// The lockstep logical-round schedule; all parameters are ROM-computable
/// from (id_space, delta), so every vertex derives the same schedule.
class EdgeSchedule {
 public:
  enum class Phase : std::uint8_t { Id, IJ, Cv, Shift, Ag, Exact };

  struct Slot {
    Phase phase;
    std::size_t index;    ///< index within the phase
    std::uint32_t width;  ///< message width in bits (per direction)
  };

  EdgeSchedule(std::uint64_t id_space, std::size_t delta, bool exact);

  [[nodiscard]] std::size_t logical_rounds() const { return slots_.size(); }
  [[nodiscard]] const Slot& slot(std::size_t lr) const { return slots_[lr]; }
  /// Total engine rounds when every message is serialized to 1 bit/round.
  [[nodiscard]] std::size_t total_bits() const;

  [[nodiscard]] std::uint64_t id_space() const { return id_space_; }
  [[nodiscard]] std::size_t delta() const { return delta_; }
  [[nodiscard]] std::uint64_t q() const { return q_; }
  [[nodiscard]] bool exact() const { return mixed_.has_value(); }
  [[nodiscard]] const coloring::MixedRule& mixed() const { return *mixed_; }

 private:
  std::uint64_t id_space_;
  std::size_t delta_;
  std::uint64_t q_ = 0;
  std::optional<coloring::MixedRule> mixed_;
  std::vector<Slot> slots_;
};

/// The per-vertex program driving its incident edges through the schedule.
class EdgeColoringProgram final : public runtime::VertexProgram {
 public:
  EdgeColoringProgram(const EdgeSchedule& sched, bool serialize)
      : sched_(sched), serialize_(serialize) {}

  void on_start(const runtime::VertexEnv& env) override;
  void on_send(const runtime::VertexEnv& env, runtime::OutboxRef& out) override;
  void on_receive(const runtime::VertexEnv& env,
                  const runtime::InboxRef& in) override;
  [[nodiscard]] bool halted(const runtime::VertexEnv&) const override {
    return lr_ >= sched_.logical_rounds();
  }

  /// Final color of the edge to neighbor `w` (valid once halted).
  [[nodiscard]] std::optional<Color> edge_color(graph::Vertex w) const;

 private:
  struct EdgeSlot {
    bool out = false;         ///< this endpoint is the tail (smaller ID)
    std::uint32_t mine = 0;   ///< i if out, j if in
    std::uint32_t other = 0;  ///< j if out, i if in
    std::uint64_t label = 0;  ///< Cole-Vishkin label
    std::uint64_t color = 0;  ///< AG / mixed state
  };

  [[nodiscard]] std::optional<std::uint64_t> word_for_port(
      const runtime::VertexEnv& env, std::size_t p);
  void apply(const runtime::VertexEnv& env,
             const std::vector<std::optional<std::uint64_t>>& in_words);

  /// Follow edge churn: re-key the per-port state to env.neighbors.
  void sync_ports(const runtime::VertexEnv& env);
  /// Port of the class-predecessor of edge p (incoming with matching (i,j)),
  /// or npos.
  [[nodiscard]] std::size_t pred_port(std::size_t p) const;
  /// Port of the class-successor of edge p (outgoing with matching (i,j)).
  [[nodiscard]] std::size_t succ_port(std::size_t p) const;

  const EdgeSchedule& sched_;
  bool serialize_;
  std::size_t lr_ = 0;    ///< logical round
  std::uint32_t bit_ = 0; ///< bit cursor within the logical round (serialized)
  std::vector<graph::Vertex> nbrs_;
  std::vector<EdgeSlot> slots_;
  std::vector<std::optional<std::uint64_t>> pending_out_;
  std::vector<std::uint64_t> pending_new_label_;
  std::vector<std::optional<std::uint64_t>> in_acc_;
};

/// Unified RunOptions core (congest_bits, executor, adversary, observability
/// hooks) plus the edge colorer's own switches.  The protocol fixes the
/// communication model itself — CONGEST, or Bit-Round with `bit_round` set —
/// so RunOptions::model is ignored here.
struct EdgeColoringOptions : runtime::RunOptions {
  EdgeColoringOptions() = default;
  /*implicit*/ EdgeColoringOptions(const runtime::RunOptions& base)
      : runtime::RunOptions(base) {}

  bool exact = true;      ///< finish at exactly 2*Delta-1 colors
  bool bit_round = false; ///< Bit-Round model: 1 bit per edge per round
};

/// RunReport core plus the edge coloring and its bandwidth accounting.
struct EdgeColoringResult : runtime::RunReport {
  std::vector<Color> colors;  ///< aligned with edge_list(g)
  std::size_t palette = 0;
  bool proper = false;
  double avg_bits_per_edge = 0.0;
  std::uint64_t max_bits_per_edge = 0;  ///< over directed edges
};

/// Run the full distributed edge-coloring pipeline on g.
[[nodiscard]] EdgeColoringResult color_edges_distributed(
    graph::GraphView g, const EdgeColoringOptions& opts = {});

}  // namespace agc::edge
