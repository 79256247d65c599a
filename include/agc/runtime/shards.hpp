#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "agc/graph/view.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/round.hpp"

/// \file shards.hpp
/// The fork/join of the flat runners — the locally-iterative sweep
/// (iterative.hpp) and the self-stabilizing coloring's flat rounds
/// (selfstab/stabilization.hpp).  Neither builds a RoundContext: each round
/// is one or two passes over contiguous vertex shards that the executor runs
/// through RoundExecutor::run_shards, with a barrier after each pass.

namespace agc::runtime {

class VertexShards {
 public:
  /// One shard per executor thread (null = sequential: one shard).  Cuts are
  /// degree-weighted like ParallelExecutor's and rounded up to a multiple of
  /// 64 vertices — 64 entries span whole words at every packed width, so
  /// shards never write the same word (PackedColors contract), and a bitset
  /// word has one owner.  Any contiguous partition is result-identical; the
  /// weighting only balances wall clock.  With `timed`, every pass collects
  /// per-shard phase times.
  VertexShards(graph::GraphView g, RoundExecutor* executor, bool timed);

  VertexShards(const VertexShards&) = delete;
  VertexShards& operator=(const VertexShards&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return bounds_.size() - 1; }
  [[nodiscard]] graph::Vertex begin(std::size_t s) const { return bounds_[s]; }
  [[nodiscard]] graph::Vertex end(std::size_t s) const { return bounds_[s + 1]; }

  /// Shard s's phase timers (written by that shard only); null when untimed.
  [[nodiscard]] obs::PhaseStats* timers(std::size_t s) {
    return timed_ ? profile_.shard(s) : nullptr;
  }
  /// The driving thread's phase timers (observers); null when untimed.
  [[nodiscard]] obs::PhaseStats* extra() { return timed_ ? profile_.extra() : nullptr; }

  /// task(0) .. task(size() - 1), then the barrier.
  void run(const std::function<void(std::size_t)>& task) {
    backend_.run_shards(size(), task);
  }

  /// The same, for a task that times itself under `phase`: when timed, the
  /// shards' wait for the slowest one is booked as Barrier, as
  /// ParallelExecutor::round does.
  void run(const std::function<void(std::size_t)>& task, obs::Phase phase);

  /// Every shard's timers and the driving thread's, folded in shard order.
  [[nodiscard]] obs::PhaseStats folded() const { return profile_.folded(); }

 private:
  SequentialExecutor sequential_;
  RoundExecutor& backend_;
  std::vector<graph::Vertex> bounds_;  ///< size() + 1 cut points over [0, n)
  obs::PhaseProfile profile_;
  bool timed_;
};

}  // namespace agc::runtime
