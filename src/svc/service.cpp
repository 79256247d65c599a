#include "agc/svc/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"

namespace agc::svc {

namespace {

using runtime::Engine;

/// One pass of validation shared by the apply rules and documented in
/// docs/SERVICE.md; the workload generator mirrors these exactly so a seeded
/// run completes with zero rejects.
struct Rules {
  const Engine& engine;
  const std::vector<bool>& live;
  std::size_t delta_bound;
  std::uint64_t max_vertices;

  [[nodiscard]] bool known(graph::Vertex v) const {
    return v < engine.graph().n() && live[v];
  }
  [[nodiscard]] bool can_add_edge(graph::Vertex u, graph::Vertex v) const {
    graph::GraphView g = engine.graph();
    return u != v && known(u) && known(v) && !g.has_edge(u, v) &&
           g.degree(u) < delta_bound && g.degree(v) < delta_bound;
  }
  [[nodiscard]] bool can_remove_edge(graph::Vertex u, graph::Vertex v) const {
    return known(u) && known(v) && engine.graph().has_edge(u, v);
  }
  [[nodiscard]] bool can_add_vertex() const {
    return engine.graph().n() < max_vertices;
  }
};

void emit_stage(obs::EventSink* sink, obs::EventKind kind, std::uint64_t round,
                std::uint64_t value) {
  if (sink == nullptr) return;
  obs::Event ev;
  ev.kind = kind;
  ev.round = round;
  ev.label = "svc.epoch";
  ev.value = value;
  sink->emit(ev);
}

void append_u64(std::string& out, const char* key, std::uint64_t v,
                bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
  if (comma) out += ',';
}

/// Doubles in the deterministic aggregate are ratios of integer counters, so
/// the shortest round-trip spelling is itself deterministic.
void append_f64(std::string& out, const char* key, double v,
                bool comma = true) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += '"';
  out += key;
  out += "\":";
  out += buf;
  if (comma) out += ',';
}

}  // namespace

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::AddEdge: return "add_edge";
    case OpKind::RemoveEdge: return "remove_edge";
    case OpKind::AddVertex: return "add_vertex";
    case OpKind::RemoveVertex: return "remove_vertex";
    case OpKind::QueryColor: return "query";
  }
  return "?";
}

Service::Service(ServiceConfig cfg)
    : cfg_([&] {
        // Resolve the lifetime bounds before any member that bakes them in.
        graph::Graph g0 = cfg.spec.build();
        if (cfg.delta_bound == 0) {
          cfg.delta_bound = 2 * std::max<std::size_t>(1, g0.max_degree());
        }
        if (cfg.max_vertices == 0) cfg.max_vertices = 2 * g0.n();
        cfg.max_vertices = std::max<std::uint64_t>(cfg.max_vertices, g0.n());
        return cfg;
      }()),
      ss_cfg_(cfg_.max_vertices, cfg_.delta_bound, cfg_.mode),
      engine_(cfg_.spec.build(), runtime::Transport(runtime::Model::LOCAL),
              runtime::EngineOptions{.id_space_factor = 1,
                                     .delta_bound = cfg_.delta_bound,
                                     .n_bound = cfg_.max_vertices}) {
  engine_.install(selfstab::ss_coloring_factory(ss_cfg_));
  if (cfg_.run.executor != nullptr) engine_.set_executor(cfg_.run.executor);
  spec_.check = faultlab::coloring_check(ss_cfg_);
  spec_.outputs = faultlab::coloring_outputs();
  spec_.recovery_budget = cfg_.repair_budget;
  spec_.confirm_rounds = cfg_.confirm_rounds;

  live_.assign(engine_.graph().n(), true);
  n_live_ = engine_.graph().n();

  // Settle the initial graph so epoch 0 starts from a legal coloring; this
  // is the only from-scratch stabilization the service ever pays.
  runtime::RunOptions boot = cfg_.run;
  boot.adversary = nullptr;
  boot.channel = nullptr;
  const auto out =
      faultlab::resettle(engine_, boot, spec_, /*baseline=*/{});
  if (!out.recovered) ++stats_.legality_violations;
  phases_.merge(out.phases);
  settled_ = spec_.outputs(engine_);
}

std::uint64_t Service::submit(const Op& op) {
  queue_.push_back(Queued{op, next_op_, engine_.rounds(),
                          obs::monotonic_ns()});
  return next_op_++;
}

bool Service::apply(const Op& op, OpResult& result) {
  const Rules rules{engine_, live_, cfg_.delta_bound, cfg_.max_vertices};
  switch (op.kind) {
    case OpKind::AddEdge:
      if (!rules.can_add_edge(op.u, op.v)) break;
      engine_.add_edge(op.u, op.v);
      result.status = OpStatus::Ok;
      return true;
    case OpKind::RemoveEdge:
      if (!rules.can_remove_edge(op.u, op.v)) break;
      engine_.remove_edge(op.u, op.v);
      result.status = OpStatus::Ok;
      return true;
    case OpKind::AddVertex: {
      if (!rules.can_add_vertex()) break;
      const graph::Vertex v = engine_.add_vertex();
      live_.push_back(true);
      ++n_live_;
      result.status = OpStatus::Ok;
      result.value = v;
      return true;
    }
    case OpKind::RemoveVertex:
      if (!rules.known(op.u)) break;
      // Retire: drop the vertex's edges and restart its program.  The slot
      // stays in the engine (ids are stable) but leaves the service API.
      engine_.reset_vertex(op.u);
      live_[op.u] = false;
      --n_live_;
      result.status = OpStatus::Ok;
      return true;
    case OpKind::QueryColor:
      // Liveness is judged here — at the op's position in the submission
      // order, so a query racing a remove_vertex in the same epoch keeps
      // sequential semantics — but the color itself is read post-repair.
      if (!rules.known(op.u)) break;
      result.status = OpStatus::Ok;
      return false;
  }
  result.status = OpStatus::Rejected;
  return false;
}

std::vector<OpResult> Service::pump() {
  std::vector<OpResult> results;
  if (queue_.empty()) return results;
  const std::uint64_t t0 = obs::monotonic_ns();
  const std::size_t batch = std::min(cfg_.epoch_batch, queue_.size());
  const std::uint64_t epoch = stats_.epochs;
  emit_stage(cfg_.run.sink, obs::EventKind::StageStart, engine_.rounds(),
             batch);

  std::vector<Queued> taken;
  taken.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    taken.push_back(queue_.front());
    queue_.pop_front();
  }

  // The pre-epoch settled snapshot is the adjustment-diff baseline.  It may
  // be shorter than the post-epoch graph (AddVertex): resettle counts the
  // appended tail as adjusted, which is exactly right.
  const std::vector<std::uint64_t> baseline = settled_;

  results.resize(batch);
  std::size_t mutated = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    OpResult& r = results[i];
    r.op_id = taken[i].op_id;
    r.kind = taken[i].op.kind;
    r.epoch = epoch;
    if (apply(taken[i].op, r)) ++mutated;
  }

  // Repair only when the epoch actually touched the engine; a query-only
  // epoch leaves the settled coloring untouched and costs zero rounds.
  if (mutated > 0) {
    const auto out = faultlab::resettle(engine_, cfg_.run, spec_, baseline);
    stats_.repair_rounds += out.rounds;
    stats_.adjusted_total += out.adjusted.size();
    stats_.max_adjusted =
        std::max<std::uint64_t>(stats_.max_adjusted, out.adjusted.size());
    if (!out.recovered) ++stats_.legality_violations;
    phases_.merge(out.phases);
    settled_ = spec_.outputs(engine_);
  }

  const std::uint64_t legal_round = engine_.rounds();
  const std::uint64_t legal_ns = obs::monotonic_ns();
  for (std::size_t i = 0; i < batch; ++i) {
    OpResult& r = results[i];
    if (r.kind == OpKind::QueryColor && r.status == OpStatus::Ok) {
      r.value = ss_cfg_.truncate(settled_[taken[i].op.u]);
    }
    r.latency_rounds = legal_round - taken[i].submit_round;
    r.latency_ns = legal_ns - taken[i].submit_ns;
    stats_.latency_rounds.record(r.latency_rounds);
    stats_.latency_us.record(r.latency_ns / 1000);
    ++stats_.ops;
    if (r.status == OpStatus::Rejected) {
      ++stats_.rejected;
    } else if (r.kind == OpKind::QueryColor) {
      ++stats_.queries;
    } else {
      ++stats_.mutations;
    }
  }
  ++stats_.epochs;
  stats_.wall_ns += obs::monotonic_ns() - t0;
  emit_stage(cfg_.run.sink, obs::EventKind::StageEnd, engine_.rounds(),
             mutated);
  return results;
}

std::vector<OpResult> Service::drain() {
  std::vector<OpResult> all;
  while (!queue_.empty()) {
    auto part = pump();
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

runtime::RunReport Service::report() const {
  runtime::RunReport rep;
  rep.rounds = engine_.rounds();
  rep.converged = stats_.legality_violations == 0;
  rep.metrics = engine_.metrics();
  rep.wall_ns = stats_.wall_ns;
  rep.phases = phases_;
  return rep;
}

std::vector<graph::Color> Service::colors() const {
  std::vector<graph::Color> out(settled_.size());
  for (std::size_t v = 0; v < settled_.size(); ++v) {
    out[v] = static_cast<graph::Color>(ss_cfg_.truncate(settled_[v]));
  }
  return out;
}

std::string ServiceStats::to_json(bool include_timing) const {
  std::string out = "{";
  append_u64(out, "epochs", epochs);
  append_u64(out, "ops", ops);
  append_u64(out, "mutations", mutations);
  append_u64(out, "queries", queries);
  append_u64(out, "rejected", rejected);
  append_u64(out, "repair_rounds", repair_rounds);
  append_u64(out, "adjusted_total", adjusted_total);
  append_u64(out, "max_adjusted", max_adjusted);
  append_f64(out, "mean_adjusted", mean_adjusted());
  append_u64(out, "legality_violations", legality_violations);
  append_u64(out, "latency_rounds_p50", latency_rounds.quantile(0.50));
  append_u64(out, "latency_rounds_p99", latency_rounds.quantile(0.99));
  append_u64(out, "latency_rounds_max", latency_rounds.max());
  append_f64(out, "latency_rounds_mean", latency_rounds.mean(),
             /*comma=*/include_timing);
  if (include_timing) {
    append_u64(out, "latency_us_p50", latency_us.quantile(0.50));
    append_u64(out, "latency_us_p99", latency_us.quantile(0.99));
    append_u64(out, "latency_us_max", latency_us.max());
    append_u64(out, "wall_ns", wall_ns, /*comma=*/false);
  }
  out += '}';
  return out;
}

}  // namespace agc::svc
