#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.hpp
/// A fixed-size, work-stealing-free thread pool.
///
/// Task i of a batch always runs on worker i % size() — static assignment,
/// never stealing — so a batch of size() shard tasks maps one shard to one
/// thread, the same way every round.  run() blocks until the whole batch has
/// finished; that wait is the barrier between the round engine's send,
/// deliver, and receive phases.  Determinism never depends on scheduling:
/// shards write disjoint state and are reduced in shard order afterwards
/// (see docs/EXEC.md), the static assignment just keeps caches warm.
/// Workers sleep on a condition variable between batches, so an idle pool
/// burns no CPU.

namespace agc::exec {

class ThreadPool {
 public:
  /// Spawns `threads` (>= 1) workers that live until destruction.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Run body(0) .. body(tasks-1) across the workers and wait for all of
  /// them.  If any task throws, the exception of the lowest-indexed failing
  /// task is rethrown here after the batch drains (so the choice of
  /// propagated error is deterministic too).  Batches of at most one task
  /// run inline on the caller.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop(std::size_t worker);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t tasks_ = 0;
  std::uint64_t epoch_ = 0;      ///< bumped per batch; workers wake on change
  std::size_t running_ = 0;      ///< workers still inside the current batch
  bool stop_ = false;
  std::size_t error_task_ = SIZE_MAX;
  std::exception_ptr error_;
};

}  // namespace agc::exec
