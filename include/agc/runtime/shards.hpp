#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "agc/graph/view.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/round.hpp"

/// \file shards.hpp
/// The fork/join of every round runner — the message-passing engine
/// (engine.hpp), the locally-iterative sweep (iterative.hpp) and the
/// self-stabilizing coloring's flat rounds (selfstab/stabilization.hpp).
/// Each round is a few passes over contiguous vertex shards that the
/// executor runs through RoundExecutor::run_shards, with a barrier after
/// each pass.

namespace agc::runtime {

class VertexShards {
 public:
  /// One shard per executor thread (null = sequential: one shard).  Cuts
  /// fall on cumulative (degree + 1) quantiles — edge work dominates every
  /// pass, and the +1 keeps long runs of isolated vertices from collapsing
  /// into one shard — each rounded up to a multiple of `granule` (or to n).
  /// The flat runners pass 64, so a word of a per-vertex bitset (the
  /// sweep's stepping set) has one owner.  The engine passes 1.  Any contiguous
  /// partition is result-identical; the weighting only balances wall clock.
  /// With a `profile` (non-owning), timed passes accumulate shard s's phase
  /// times into profile->shard(s) and barrier waits into its extra set.
  VertexShards(graph::GraphView g, RoundExecutor* executor,
               obs::PhaseProfile* profile, std::size_t granule);

  [[nodiscard]] std::size_t size() const noexcept { return bounds_.size() - 1; }
  [[nodiscard]] graph::Vertex begin(std::size_t s) const { return bounds_[s]; }
  [[nodiscard]] graph::Vertex end(std::size_t s) const { return bounds_[s + 1]; }

  /// Shard s's phase timers (written by that shard only); null when untimed.
  [[nodiscard]] obs::PhaseStats* timers(std::size_t s) const {
    return profile_ != nullptr ? profile_->shard(s) : nullptr;
  }
  /// The driving thread's phase timers (observers); null when untimed.
  [[nodiscard]] obs::PhaseStats* extra() const {
    return profile_ != nullptr ? profile_->extra() : nullptr;
  }

  /// task(0) .. task(size() - 1), then the barrier.
  void run(const std::function<void(std::size_t)>& task) const {
    if (executor_ != nullptr) {
      executor_->run_shards(size(), task);
    } else {
      task(0);
    }
  }

  /// The same, for a task that times itself under `phase`: when timed and
  /// sharded, the shards' wait for the slowest one — the pass's wall clock
  /// times size(), minus the time shards spent in the phase — is booked as
  /// Barrier on the driving thread.
  void run(const std::function<void(std::size_t)>& task, obs::Phase phase) const;

 private:
  RoundExecutor* executor_;
  obs::PhaseProfile* profile_;
  std::vector<graph::Vertex> bounds_;  ///< size() + 1 cut points over [0, n)
};

}  // namespace agc::runtime
