#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "agc/graph/view.hpp"
#include "agc/runtime/message.hpp"
#include "agc/runtime/metrics.hpp"
#include "agc/runtime/transport.hpp"

/// \file engine.hpp
/// The synchronous message-passing round engine.
///
/// Every algorithm in this library is a per-vertex state machine
/// (VertexProgram).  Each round the engine (1) asks every vertex for its
/// outgoing messages, (2) validates them against the communication model,
/// (3) delivers them, and (4) lets every vertex update its state.  The engine
/// also hosts the adversary interface for the fully-dynamic self-stabilizing
/// setting: RAM corruption, edge churn and vertex churn between rounds.

namespace agc::obs {
class EventSink;     // obs/event_sink.hpp
class PhaseProfile;  // obs/phase_timer.hpp
}  // namespace agc::obs

namespace agc::runtime {

/// Hard-wired, fault-free per-vertex knowledge: the paper's ROM contents
/// (ID, bounds on n and Delta).  `padded_id` lives in a possibly much larger
/// ID space than [0, n) — Linial-style reductions depend only on the ID-space
/// size, which experiments sweep independently of n.
struct VertexEnv {
  graph::Vertex id = 0;
  std::uint64_t padded_id = 0;
  std::size_t degree = 0;
  std::uint64_t n_bound = 0;
  std::uint64_t id_space = 0;  ///< padded_id < id_space
  std::size_t delta_bound = 0;
  /// Current neighbor IDs in port order.  Standard knowledge in LOCAL /
  /// CONGEST (one round of ID exchange); SET-LOCAL programs must not use it.
  std::span<const graph::Vertex> neighbors;
  /// Global synchronous round number (a shared clock; used only for phase
  /// parity in multi-phase protocols such as the line-graph simulation).
  std::uint64_t round = 0;
};

class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Called once when the program is installed (and again if the adversary
  /// resets the vertex).
  virtual void on_start(const VertexEnv& /*env*/) {}

  /// Produce this round's outgoing messages.  `out` is a view into the
  /// engine's mailbox arena, valid only for the duration of the call.
  virtual void on_send(const VertexEnv& env, OutboxRef& out) = 0;

  /// Consume this round's incoming messages and update state.  `in` reads
  /// the senders' words in place; the view (and any span it returns) is
  /// valid only for the duration of the call.
  virtual void on_receive(const VertexEnv& env, const InboxRef& in) = 0;

  /// A runner stops once every vertex reports halted (Engine::all_halted).
  /// Self-stabilizing programs never halt.
  [[nodiscard]] virtual bool halted(const VertexEnv& /*env*/) const { return false; }

  /// Volatile state exposed to the adversary.  Everything returned here may
  /// be overwritten with arbitrary values between rounds; a self-stabilizing
  /// algorithm must recover.  Static algorithms keep their state private.
  virtual std::span<std::uint64_t> ram() { return {}; }
};

using ProgramFactory =
    std::function<std::unique_ptr<VertexProgram>(const VertexEnv&)>;

struct EngineOptions {
  /// Multiplier applied to n to form the ID space (padded_id = id, but the
  /// *bound* the algorithms see is id_space).  Sweeping this exercises the
  /// log* dependence without growing the graph.
  std::uint64_t id_space_factor = 1;
  /// Override for the Delta bound in ROM; 0 means "use the graph's max
  /// degree".  Dynamic runs must set this to the maximum degree that can ever
  /// occur.
  std::size_t delta_bound = 0;
  /// Override for the n bound in ROM; 0 means "use g.n()".
  std::uint64_t n_bound = 0;
};

class RoundExecutor;   // round.hpp — the engine's execution backend
class FaultEventSink;  // faults.hpp — fault recording hook

class Engine {
 public:
  /// Owning: the engine takes the graph by value and mutates it directly
  /// through the adversary interface below.
  Engine(graph::Graph g, Transport transport, EngineOptions opts = {});

  /// View-backed: the engine runs read-only over the caller's topology
  /// backend (a Graph or FrozenGraph that must outlive the engine) without
  /// copying it.  The adversary interface still works: the first successful
  /// topology mutation materializes a private mutable copy (copy-on-churn),
  /// after which the run proceeds exactly as if the engine had owned the
  /// graph from the start.
  Engine(graph::GraphView g, Transport transport, EngineOptions opts = {});

  /// Create a program for every vertex.  Must be called before stepping.
  void install(const ProgramFactory& factory);

  /// Swap the execution backend (null = built-in sequential).  The exec
  /// subsystem's parallel backend is bit-identical to sequential for every
  /// thread count (see docs/EXEC.md), so this only changes wall-clock time.
  void set_executor(std::shared_ptr<RoundExecutor> executor) {
    executor_ = std::move(executor);
  }
  [[nodiscard]] const std::shared_ptr<RoundExecutor>& executor() const noexcept {
    return executor_;
  }

  /// Run one synchronous round.
  void step();

  /// True once every program reports halted().
  [[nodiscard]] bool all_halted() const;

  [[nodiscard]] graph::GraphView graph() const noexcept { return view_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] std::size_t rounds() const noexcept { return metrics_.rounds; }

  [[nodiscard]] VertexProgram& program(graph::Vertex v) { return *programs_[v]; }
  [[nodiscard]] const VertexProgram& program(graph::Vertex v) const {
    return *programs_[v];
  }
  [[nodiscard]] const VertexEnv& env(graph::Vertex v) const { return envs_[v]; }

  /// The engine-owned mailbox storage (exposed for tests and allocation
  /// accounting; programs only ever see it through Outbox/Inbox views).
  [[nodiscard]] const MailboxArena& arena() const noexcept { return arena_; }

  // --- Observability hooks (src/obs; wired by runners from RunOptions) -----

  /// Per-shard phase-timing accumulator (non-owning; null = timing off, the
  /// default — each phase then costs one branch and no clock read).
  void set_profile(obs::PhaseProfile* profile) noexcept { profile_ = profile; }
  [[nodiscard]] obs::PhaseProfile* profile() const noexcept { return profile_; }

  /// Structured event sink (non-owning; null = no events).  The engine emits
  /// one RoundEnd event per step carrying the messages delivered that round;
  /// runners layer run/stage/fault events on top.
  void set_sink(obs::EventSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] obs::EventSink* sink() const noexcept { return sink_; }

  /// Message-path fault hook (non-owning; null = clean wire, the default).
  /// Runs inside every send phase after transport validation — see
  /// ChannelHook in transport.hpp for the concurrency contract.
  void set_channel(ChannelHook* channel) noexcept { channel_ = channel; }
  [[nodiscard]] ChannelHook* channel() const noexcept { return channel_; }

  /// Fault recorder (non-owning; null = no recording).  The adversary
  /// interface below reports every successful mutation to it, so a recorded
  /// plan replays exactly what happened — including mutations an adversary
  /// attempted that silently no-opped (those are *not* recorded).
  void set_fault_recorder(FaultEventSink* recorder) noexcept {
    fault_recorder_ = recorder;
  }
  [[nodiscard]] FaultEventSink* fault_recorder() const noexcept {
    return fault_recorder_;
  }

  // --- Adversary interface (fully-dynamic self-stabilizing setting) -------

  /// Overwrite one RAM word of v.  No-op if the program exposes no RAM.
  void corrupt_ram(graph::Vertex v, std::size_t word, std::uint64_t value);

  /// Read v's RAM (adversaries peek to craft worst-case faults).
  [[nodiscard]] std::span<std::uint64_t> ram(graph::Vertex v) {
    return programs_[v]->ram();
  }

  bool add_edge(graph::Vertex u, graph::Vertex v);
  bool remove_edge(graph::Vertex u, graph::Vertex v);

  /// Append a fresh vertex running a new program instance.
  graph::Vertex add_vertex();

  /// Crash/recover: drop all edges of v and restart its program.
  void reset_vertex(graph::Vertex v);

 private:
  void refresh_env(graph::Vertex v);

  /// Copy-on-churn: the mutable backing graph, materializing a private copy
  /// of a view-backed topology (and re-pointing every env's neighbor span at
  /// it) on first use.
  graph::Graph& mutable_graph();

  /// Heap-allocated so its address — which view_ and every env's neighbor
  /// span may point into — survives Engine moves.  Null while the engine is
  /// view-backed and unchurned.
  std::unique_ptr<graph::Graph> owned_;
  graph::GraphView view_;
  Transport transport_;
  EngineOptions opts_;
  ProgramFactory factory_;
  std::vector<std::unique_ptr<VertexProgram>> programs_;
  std::vector<VertexEnv> envs_;
  Metrics metrics_;
  EdgeBitLedger edge_bits_;
  MailboxArena arena_;
  std::shared_ptr<RoundExecutor> executor_;
  obs::PhaseProfile* profile_ = nullptr;
  obs::EventSink* sink_ = nullptr;
  ChannelHook* channel_ = nullptr;
  FaultEventSink* fault_recorder_ = nullptr;
};

}  // namespace agc::runtime
