#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/engine.hpp"

/// \file round.hpp
/// One synchronous round, decomposed into shardable phases.
///
/// The engine delegates each round to a RoundExecutor.  Both backends — the
/// in-tree SequentialExecutor and the thread-pool ParallelExecutor in
/// `src/exec` — drive the *same* RoundContext phase methods, so validation
/// and accounting live in exactly one place.
///
/// Shard-determinism contract (see docs/EXEC.md):
///   * Vertices are partitioned into contiguous shards.  send() and
///     receive() touch only the programs/envs/ports of their own shard
///     (plus, for receive, read-only views of the frozen arena), so
///     concurrent shards never alias writable state.
///   * deliver() is sharded by *receiver*: shard [b, e) walks, for each of
///     its receivers v in ascending order and each port p of v in ascending
///     order, the words its neighbor queued for v — reading them in place
///     through the arena's reverse-port map.  Accounting per (sender,
///     receiver) edge happens in exactly the order the sequential engine
///     uses, so delivery is bit-identical for every shard count, including 1.
///   * Accounting is folded per shard into a local Metrics and reduced in
///     shard order (Metrics::merge: sums for counters, max for
///     max_edge_bits), so metrics are bit-identical too.

namespace agc::runtime {

/// Recompute the ROM view of `v` for round `round`.  Shared by the engine's
/// topology-change hooks and the per-round send phase.
void refresh_vertex_env(graph::GraphView g, const EngineOptions& opts,
                        std::uint64_t round, graph::Vertex v, VertexEnv& env);

/// All state one round touches.  Messages live in the engine's MailboxArena;
/// the context only hands out views.  Phase methods accept a vertex range
/// plus the executing shard's id so executors can shard them; ranges passed
/// to one phase must partition [0, n) between its barriers, and the same
/// shard id must always own the same range within a round.
class RoundContext {
 public:
  RoundContext(graph::GraphView graph, const Transport& transport,
               const EngineOptions& opts,
               std::vector<std::unique_ptr<VertexProgram>>& programs,
               std::vector<VertexEnv>& envs, EdgeBitLedger& ledger,
               MailboxArena& arena, std::uint64_t round,
               obs::PhaseProfile* profile = nullptr,
               ChannelHook* channel = nullptr);

  [[nodiscard]] std::size_t n() const noexcept { return graph_.n(); }

  /// Null unless this round collects phase timings.  Shard s's phase methods
  /// accumulate into profile()->shard(s); executors use it for barrier
  /// accounting (into the extra set, driving thread only).
  [[nodiscard]] obs::PhaseProfile* profile() const noexcept { return profile_; }

  /// Called once per round by the executor before any phase: sizes the
  /// arena's per-shard lanes and scratch (no-op at steady state).
  void prepare(std::size_t shards) {
    arena_.ensure_shards(shards);
    if (profile_ != nullptr) profile_->ensure_shards(shards);
  }

  /// Phase 1: refresh envs, reset the shard's ports and spill lane, collect
  /// and validate outgoing messages of senders [begin, end).  When a channel
  /// hook is installed it attacks each sender's validated ports right here,
  /// still inside the shard that owns them — faults need no extra phase or
  /// barrier, and the per-sender order is identical for every shard count.
  void send(graph::Vertex begin, graph::Vertex end, std::size_t shard);

  /// Phase 2: account every message addressed to receivers [begin, end),
  /// folding into `metrics`, executed by shard `shard`.  Reads the frozen
  /// arena in place — nothing is copied.  Requires send() to have completed
  /// for ALL vertices (the executor's barrier).
  void deliver(graph::Vertex begin, graph::Vertex end, Metrics& metrics,
               std::size_t shard);

  /// Fold per-shard deliver() accounting into `total`, in shard order.
  static void reduce(std::span<const Metrics> shards, Metrics& total);

  /// Phase 3: state updates of vertices [begin, end).  Requires deliver()
  /// to have completed for the same range (receive reads the whole frozen
  /// arena through inbox views; executors barrier globally).
  void receive(graph::Vertex begin, graph::Vertex end, std::size_t shard);

  [[nodiscard]] graph::GraphView graph() const noexcept { return graph_; }

 private:
  graph::GraphView graph_;
  const Transport& transport_;
  const EngineOptions& opts_;
  std::vector<std::unique_ptr<VertexProgram>>& programs_;
  std::vector<VertexEnv>& envs_;
  EdgeBitLedger& ledger_;
  MailboxArena& arena_;
  std::uint64_t round_;
  obs::PhaseProfile* profile_;
  ChannelHook* channel_;
};

/// Execution backend interface: runs the three phases of one round with
/// whatever parallelism it owns, honoring the barriers between phases.
class RoundExecutor {
 public:
  virtual ~RoundExecutor() = default;

  /// OS threads this executor runs vertex programs on (1 = sequential).
  [[nodiscard]] virtual std::size_t threads() const noexcept = 0;

  /// Execute one full round, folding accounting into `total`.
  virtual void round(RoundContext& ctx, Metrics& total) = 0;

  /// Run task(0) .. task(shards - 1) and return once all of them finished —
  /// the barrier.  The locally-iterative sweep (iterative.hpp) hands its
  /// word-aligned shard passes to BSP backends through this instead of a
  /// RoundContext.  The base runs them in index order on the caller; the
  /// parallel backend runs them on its pool.
  virtual void run_shards(std::size_t shards,
                          const std::function<void(std::size_t)>& task);
};

/// The default single-thread backend: one shard spanning [0, n).
class SequentialExecutor final : public RoundExecutor {
 public:
  [[nodiscard]] std::size_t threads() const noexcept override { return 1; }
  void round(RoundContext& ctx, Metrics& total) override;
};

}  // namespace agc::runtime
