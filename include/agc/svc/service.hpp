#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "agc/graph/graph.hpp"
#include "agc/graph/spec.hpp"
#include "agc/runtime/run_options.hpp"
#include "agc/runtime/run_report.hpp"
#include "agc/selfstab/ss_config.hpp"
#include "agc/selfstab/stabilization.hpp"
#include "agc/svc/histogram.hpp"

/// \file service.hpp
/// Coloring-as-a-service: a long-lived Service owns a graph and one RAM word
/// per vertex — its color under the self-stabilizing coloring — and serves a
/// mutation/query API on top of them.  Clients submit operations; the
/// service batches them into *epochs*, applies each batch to the graph and
/// the colors, and calls selfstab::flat_resettle() to drive the coloring
/// back to legal — recoloring only the affected region (the paper's
/// adjustment radius 1 is what makes an epoch O(batch * (Delta + log* n))
/// rounds instead of a from-scratch run).
///
/// Epoch semantics (docs/SERVICE.md has the long form):
///   - submit() only enqueues; nothing observes the op until pump().
///   - pump() takes up to `epoch_batch` ops in submission order, applies the
///     mutations, repairs, then answers queries against the *post-epoch*
///     settled coloring (read-your-writes within an epoch).  Query liveness
///     is judged at the op's position in the submission order, so a query
///     racing a remove_vertex in the same batch keeps sequential semantics.
///   - Per-op latency is measured from submit to the end of the op's epoch,
///     once in repair rounds (deterministic) and once in wall-clock ns
///     (timing; excluded from the deterministic aggregate).
///
/// Fault contract: every fault the service sees is a client mutation, and it
/// lands between repair runs, so every round is fault-free and runs flat
/// (no engine).  ServiceConfig::run must therefore carry no adversary and no
/// channel hook; the constructor throws std::invalid_argument otherwise.
/// Faults inside a round need the engine (selfstab::resettle under
/// faultlab's hooks).
///
/// Determinism contract: with a fixed config and submission sequence, every
/// OpResult field except latency_ns — and every ServiceStats field except
/// the timing block — is bit-identical for any RunOptions::executor thread
/// count (the flat rounds are shard-deterministic; tests/test_svc.cpp pins
/// this at 1/2/8 threads).

namespace agc::svc {

enum class OpKind : std::uint8_t {
  AddEdge,       ///< u, v
  RemoveEdge,    ///< u, v
  AddVertex,     ///< result value = new vertex id
  RemoveVertex,  ///< u; retires the vertex (isolated + excluded from the API)
  QueryColor,    ///< u; result value = settled color
};

[[nodiscard]] const char* to_string(OpKind k) noexcept;

enum class OpStatus : std::uint8_t {
  Pending,   ///< submitted, epoch not pumped yet
  Ok,        ///< applied / answered
  Rejected,  ///< failed validation (see service.cpp apply rules)
};

/// A client operation.  `u`/`v` are vertex ids; AddVertex ignores both,
/// single-vertex ops use `u`.
struct Op {
  OpKind kind = OpKind::QueryColor;
  graph::Vertex u = 0;
  graph::Vertex v = 0;
};

struct OpResult {
  std::uint64_t op_id = 0;  ///< submission order, from 0
  OpKind kind = OpKind::QueryColor;
  OpStatus status = OpStatus::Pending;
  /// QueryColor: the color; AddVertex: the new vertex id; otherwise 0.
  std::uint64_t value = 0;
  std::uint64_t epoch = 0;  ///< epoch index the op completed in
  /// Repair rounds from submit to the end of the op's epoch (legal coloring
  /// with the op's effect visible).  Deterministic.
  std::uint64_t latency_rounds = 0;
  /// Same interval in wall-clock ns.  Timing-only: never part of the
  /// deterministic aggregate.
  std::uint64_t latency_ns = 0;
};

struct ServiceConfig {
  /// Initial graph.  The spec stays the identity of the service's graph
  /// however much churn follows (GraphSpec::estimated_bytes(extra_v, extra_e)
  /// gives the headroom-adjusted footprint).
  graph::GraphSpec spec;
  /// Hard degree cap — the Delta bound baked into every vertex's ROM, so it
  /// must hold for the *lifetime* of the service, not just the initial graph
  /// (0 = twice the initial max degree).  AddEdge ops that would exceed it
  /// are rejected.
  std::size_t delta_bound = 0;
  /// Hard vertex cap — fixes the Linial ID space, so appended vertices keep
  /// valid ids (0 = twice the initial n).  AddVertex ops beyond it are
  /// rejected.
  std::uint64_t max_vertices = 0;
  selfstab::PaletteMode mode = selfstab::PaletteMode::ODelta;
  /// Max ops consumed per pump() epoch.
  std::size_t epoch_batch = 64;
  /// Repair watchdog: abort an epoch's repair after this many rounds
  /// without reaching legality (counts as a legality violation in stats).
  std::size_t repair_budget = 50'000;
  /// Consecutive legal rounds before an epoch commits.
  std::size_t confirm_rounds = 2;
  /// Executor / observability / round budget of the repair rounds.
  /// run.sink receives one RoundEnd per round plus one StageStart /
  /// StageEnd pair per epoch; run.collect_phase_times folds the phase
  /// timings (receive, check, barrier) of the boot settle and every epoch's
  /// repair into report().phases.  run.adversary and run.channel must stay
  /// null (the fault contract above).
  runtime::RunOptions run;
};

/// Aggregate service counters.  Everything above the timing block is part of
/// the deterministic contract.
struct ServiceStats {
  std::uint64_t epochs = 0;
  std::uint64_t ops = 0;        ///< completed (Ok + Rejected)
  std::uint64_t mutations = 0;  ///< accepted mutations
  std::uint64_t queries = 0;    ///< accepted queries
  std::uint64_t rejected = 0;
  std::uint64_t repair_rounds = 0;  ///< rounds spent in epoch repairs
  std::uint64_t adjusted_total = 0;  ///< sum of per-epoch adjustment sets
  std::uint64_t max_adjusted = 0;
  /// Epochs whose repair did not reach a legal coloring within
  /// repair_budget.  The acceptance bar for every committed artifact is 0.
  std::uint64_t legality_violations = 0;
  LatencyHistogram latency_rounds;  ///< per-op, in repair rounds

  // --- timing block (excluded when include_timing=false) ------------------
  LatencyHistogram latency_us;  ///< per-op, in microseconds
  std::uint64_t wall_ns = 0;    ///< total time inside pump()

  [[nodiscard]] double mean_adjusted() const noexcept {
    return epochs == 0 ? 0.0
                       : static_cast<double>(adjusted_total) / epochs;
  }

  /// One JSON object.  include_timing=false drops the timing block and is
  /// the byte-identical-across-thread-counts aggregate the service smoke
  /// golden pins (ci/service_smoke_golden.json).
  [[nodiscard]] std::string to_json(bool include_timing) const;
};

class Service {
 public:
  explicit Service(ServiceConfig cfg);

  /// Enqueue an op; returns its op_id (submission index).  The op is not
  /// validated or visible until its epoch is pumped.
  std::uint64_t submit(const Op& op);

  /// Process one epoch: up to epoch_batch queued ops.  Returns the results
  /// of exactly the ops consumed (empty when the queue is empty).  After
  /// pump() returns, the coloring is legal (or legality_violations grew).
  std::vector<OpResult> pump();

  /// pump() until the queue is empty; concatenated results.
  std::vector<OpResult> drain();

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] const ServiceStats& stats() const noexcept { return stats_; }

  /// Cumulative report over the boot settle and every repair: rounds,
  /// phase timings and metrics in the flat rounds' closed form — messages =
  /// sum over rounds of 2m, total_bits = messages * color_bits(),
  /// max_edge_bits = rounds run with an edge * color_bits().  That last one
  /// is what the engine's per-edge ledger reports whenever some edge existed
  /// in every round.
  [[nodiscard]] runtime::RunReport report() const;

  /// The settled coloring as of the last committed epoch, truncated to the
  /// palette field width.  Retired vertices keep their last color.
  [[nodiscard]] std::vector<graph::Color> colors() const;

  [[nodiscard]] graph::GraphView graph() const noexcept { return graph_; }
  [[nodiscard]] const selfstab::SsConfig& coloring_config() const noexcept {
    return ss_cfg_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] bool live(graph::Vertex v) const noexcept {
    return v < live_.size() && live_[v];
  }
  /// Live (non-retired) vertex count.
  [[nodiscard]] std::size_t live_vertices() const noexcept { return n_live_; }

 private:
  struct Queued {
    Op op;
    std::uint64_t op_id;
    std::uint64_t submit_round;
    std::uint64_t submit_ns;
  };

  /// Apply one mutation to the graph and the colors; fills result.status /
  /// result.value.  Returns true when either changed.
  bool apply(const Op& op, OpResult& result);

  /// Run the flat repair rounds from the current colors; the adjustment
  /// diff is against settled_, which then takes the repaired colors.
  selfstab::StabilizationOutcome repair();

  graph::Graph graph_;  ///< built before cfg_, whose bounds it resolves
  ServiceConfig cfg_;
  selfstab::SsConfig ss_cfg_;
  std::vector<std::uint64_t> ram_;      ///< every vertex's RAM word: its color
  std::vector<std::uint64_t> settled_;  ///< ram_ at the last committed epoch
  std::uint64_t rounds_ = 0;            ///< repair rounds so far, boot included
  runtime::Metrics metrics_;            ///< summed over every repair
  std::vector<bool> live_;
  std::size_t n_live_ = 0;
  std::deque<Queued> queue_;
  std::uint64_t next_op_ = 0;
  ServiceStats stats_;
  obs::PhaseStats phases_;  ///< folded repair phase timings
};

}  // namespace agc::svc
