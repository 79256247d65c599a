#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "agc/exec/thread_pool.hpp"
#include "agc/runtime/round.hpp"

/// \file executor.hpp
/// The shard-deterministic parallel backend of every round runner.
///
/// ParallelExecutor runs each pass of a round — the engine's send, deliver
/// and receive, the sweep's step and check, the flat rounds' step and
/// legality check — shard-per-thread on a fixed ThreadPool; returning from
/// run_shards is the barrier between passes.  The shards themselves are cut
/// by runtime::VertexShards, and every runner folds per-shard results in
/// shard order, so final colorings, round counts, messages, total_bits and
/// max_edge_bits are bit-identical to the sequential backend for every
/// thread count — the contract docs/EXEC.md spells out and
/// tests/test_exec.cpp pins.

namespace agc::exec {

class ParallelExecutor final : public runtime::RoundExecutor {
 public:
  /// `threads` >= 2 OS threads (use make_executor for the general case).
  explicit ParallelExecutor(std::size_t threads) : pool_(threads) {}

  [[nodiscard]] std::size_t threads() const noexcept override {
    return pool_.size();
  }

  /// Shard task i runs on pool worker i % threads(); see ThreadPool::run.
  void run_shards(std::size_t shards,
                  const std::function<void(std::size_t)>& task) override {
    pool_.run(shards, task);
  }

 private:
  ThreadPool pool_;
};

/// Backend factory: 0 means "hardware concurrency"; 1 yields the sequential
/// backend; anything larger a ParallelExecutor with that many threads.
[[nodiscard]] std::shared_ptr<runtime::RoundExecutor> make_executor(
    std::size_t threads);

/// The fleet-wide default thread count: the AGC_THREADS environment variable
/// if set (0 = hardware concurrency), else 1.  Benches and the CLI use this
/// as the fallback when --threads is not given.  Throws
/// std::invalid_argument when AGC_THREADS is set but is not an unsigned
/// decimal (graph::parse_u64).
[[nodiscard]] std::size_t default_threads();

}  // namespace agc::exec
