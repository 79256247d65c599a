#pragma once

#include <cstddef>
#include <functional>

/// \file round.hpp
/// The execution backend of every round runner.
///
/// A synchronous round — of the message-passing engine, the
/// locally-iterative sweep or the flat self-stabilizing rounds — is a few
/// passes over contiguous vertex shards (runtime::VertexShards, shards.hpp)
/// with a barrier after each.  A RoundExecutor runs one such pass: the
/// in-tree SequentialExecutor on the caller, the thread-pool
/// ParallelExecutor in `src/exec` shard-per-thread.  Shards write disjoint
/// state and their results are folded in shard order, so every backend gives
/// bit-identical results (docs/EXEC.md).

namespace agc::runtime {

class RoundExecutor {
 public:
  virtual ~RoundExecutor() = default;

  /// OS threads this executor runs vertex programs on (1 = sequential).
  [[nodiscard]] virtual std::size_t threads() const noexcept = 0;

  /// Run task(0) .. task(shards - 1) and return once all of them finished —
  /// the barrier.  The base runs them in index order on the caller; the
  /// parallel backend runs them on its pool.
  virtual void run_shards(std::size_t shards,
                          const std::function<void(std::size_t)>& task) {
    for (std::size_t s = 0; s < shards; ++s) task(s);
  }
};

/// The default single-thread backend: one shard spanning [0, n).
class SequentialExecutor final : public RoundExecutor {
 public:
  [[nodiscard]] std::size_t threads() const noexcept override { return 1; }
};

}  // namespace agc::runtime
