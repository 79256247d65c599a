#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "agc/exec/thread_pool.hpp"
#include "agc/runtime/round.hpp"

/// \file executor.hpp
/// The shard-deterministic parallel backend of the round engine.
///
/// ParallelExecutor partitions the vertex set into size() contiguous shards
/// and runs each round's send, deliver, and receive phases shard-per-thread
/// on a fixed ThreadPool, with a barrier between phases.  Delivery is
/// sharded by receiver and per-shard accounting is reduced in shard order
/// (RoundContext::reduce), so final colorings, round counts, messages,
/// total_bits and max_edge_bits are bit-identical to the sequential engine
/// for every thread count — the contract docs/EXEC.md spells out and
/// tests/test_exec.cpp pins.
///
/// The per-round state (shard Metrics, phase task closures) is owned by the
/// executor and reused, so a steady-state round makes no heap allocation
/// here — matching the engine's arena-backed message path.

namespace agc::exec {

class ParallelExecutor final : public runtime::RoundExecutor {
 public:
  /// `threads` >= 2 OS threads (use make_executor for the general case).
  explicit ParallelExecutor(std::size_t threads);

  [[nodiscard]] std::size_t threads() const noexcept override {
    return pool_.size();
  }

  void round(runtime::RoundContext& ctx, runtime::Metrics& total) override;

  /// Shard task i runs on pool worker i % threads(); see ThreadPool::run.
  void run_shards(std::size_t shards,
                  const std::function<void(std::size_t)>& task) override {
    pool_.run(shards, task);
  }

  /// The degree-aware shard boundaries the current round uses (bounds_[s]
  /// .. bounds_[s+1] is shard s's vertex range).  Exposed for tests.
  [[nodiscard]] const std::vector<graph::Vertex>& bounds() const noexcept {
    return bounds_;
  }

 private:
  /// Recompute degree-balanced shard boundaries when the topology changed.
  /// Shards stay contiguous (the arena's lane contract), but cuts fall on
  /// cumulative-degree quantiles instead of vertex-count quantiles, so a
  /// skewed degree distribution no longer piles all edge work onto a few
  /// shards.  Any contiguous partition yields bit-identical results (the
  /// shard-determinism contract), so rebalancing is purely a wall-clock
  /// optimization.
  void refresh_bounds(const runtime::RoundContext& ctx);

  ThreadPool pool_;
  /// Round-scoped context pointer read by the reusable phase tasks.  Only
  /// valid inside round(); engines never run rounds concurrently on one
  /// executor.
  runtime::RoundContext* ctx_ = nullptr;
  std::vector<runtime::Metrics> per_shard_;
  std::vector<graph::Vertex> bounds_;  ///< size() + 1 cut points over [0, n)
  std::size_t bounds_n_ = 0;
  std::uint64_t bounds_version_ = 0;
  bool bounds_built_ = false;
  std::function<void(std::size_t)> send_task_;
  std::function<void(std::size_t)> deliver_task_;
  std::function<void(std::size_t)> receive_task_;
};

/// Shard s of [0, n) split into `shards` contiguous, balanced ranges.
[[nodiscard]] inline std::pair<graph::Vertex, graph::Vertex> shard_range(
    std::size_t n, std::size_t shards, std::size_t s) noexcept {
  return {static_cast<graph::Vertex>(n * s / shards),
          static_cast<graph::Vertex>(n * (s + 1) / shards)};
}

/// Backend factory: 0 means "hardware concurrency"; 1 yields the sequential
/// backend; anything larger a ParallelExecutor with that many threads.
[[nodiscard]] std::shared_ptr<runtime::RoundExecutor> make_executor(
    std::size_t threads);

/// The fleet-wide default thread count: the AGC_THREADS environment variable
/// if set (0 = hardware concurrency), else 1.  Benches and the CLI use this
/// as the fallback when --threads is not given.
[[nodiscard]] std::size_t default_threads();

}  // namespace agc::exec
