// The engine half of stabilization.hpp: run_stabilization, resettle and each
// task's check and outputs.  flat_resettle, which needs no engine, lives in
// stabilization.cpp.
#include "agc/selfstab/stabilization.hpp"

#include <algorithm>

#include "agc/graph/checks.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/hooked_rounds.hpp"
#include "agc/selfstab/detail/repair_loop.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/ss_mis.hpp"

namespace agc::selfstab {

namespace {

using graph::Vertex;
using runtime::Engine;
using runtime::RunOptions;

/// RunStart / RunEnd bracket of one engine run, labelled opts.tag.
void emit_run_event(const RunOptions& opts, obs::EventKind kind, std::uint64_t round,
                    std::uint64_t value, std::uint64_t ns = 0) {
  if (opts.sink != nullptr) {
    opts.sink->emit(obs::Event{kind, round, opts.tag, value, ns});
  }
}

/// spec.check timed under the `check` phase of `rounds`.
Violation timed_check(Engine& engine, const StabilizationSpec& spec,
                      const runtime::HookedRounds& rounds) {
  obs::ScopedPhaseTimer timer(rounds.timers(), obs::Phase::Check);
  return spec.check(engine);
}

/// Phase 0 of run_stabilization: fault-free rounds, observed as opts says,
/// until spec.check holds or the budget runs out; returns the last verdict.
/// Books the rounds in `executed` and their metrics and phases in `out`.
Violation settle(Engine& engine, const RunOptions& opts, const StabilizationSpec& spec,
                 std::size_t& executed, StabilizationOutcome& out) {
  RunOptions quiet = opts;
  quiet.adversary = nullptr;
  quiet.channel = nullptr;
  runtime::HookedRounds rounds(engine, quiet);
  Violation v = timed_check(engine, spec, rounds);
  while (v && executed < spec.recovery_budget && executed < opts.max_rounds) {
    (void)rounds.step();
    ++executed;
    v = timed_check(engine, spec, rounds);
  }
  rounds.finish(out);
  return v;
}

/// The repair: detail::repair_loop on the engine with the RunOptions hooks
/// live through HookedRounds, from the current state (`initially_legal` is
/// its verdict).  Fills everything in `out` except wall_ns and the settle's
/// bookkeeping; `executed` counts engine rounds already spent against
/// opts.max_rounds.
void repair(Engine& engine, const RunOptions& opts, const StabilizationSpec& spec,
            const std::vector<std::uint64_t>& baseline, bool initially_legal,
            std::size_t executed, StabilizationOutcome& out) {
  // The adversary's schedule counts HookedRounds' own rounds, not engine
  // rounds — a settle's length must not eat the schedule.
  runtime::HookedRounds rounds(engine, opts);
  detail::repair_loop(
      spec, opts.max_rounds, initially_legal, executed,
      [&] { return engine.rounds(); }, [&] { return rounds.step().total() > 0; },
      [&] { return timed_check(engine, spec, rounds); }, out);
  if (out.recovered) out.adjusted = detail::adjusted(spec.outputs(engine), baseline);
  rounds.finish(out);
  out.rounds = executed;
  out.converged = out.recovered;
}

/// The run's RunEnd, after stamping its wall time.
void end_run(Engine& engine, const RunOptions& opts, std::uint64_t t0,
             StabilizationOutcome& out) {
  out.wall_ns = obs::monotonic_ns() - t0;
  emit_run_event(opts, obs::EventKind::RunEnd, engine.rounds(), out.rounds,
                 out.wall_ns);
}

}  // namespace

StabilizationOutcome run_stabilization(Engine& engine, const RunOptions& opts,
                                       const StabilizationSpec& spec) {
  const std::uint64_t t0 = obs::monotonic_ns();
  emit_run_event(opts, obs::EventKind::RunStart, engine.rounds(), engine.graph().n());
  StabilizationOutcome out;
  std::size_t executed = 0;
  const Violation v = settle(engine, opts, spec, executed, out);
  if (v) {
    out.violation = v;
    out.violation.kind = ViolationKind::NeverSettled;
    out.violation.round = engine.rounds();
    out.rounds = executed;
  } else {
    const runtime::RunReport settled = out;
    repair(engine, opts, spec, spec.outputs(engine), /*initially_legal=*/true, executed,
           out);
    out.metrics.merge(settled.metrics);
    out.phases.merge(settled.phases);
  }
  end_run(engine, opts, t0, out);
  return out;
}

StabilizationOutcome resettle(Engine& engine, const RunOptions& opts,
                              const StabilizationSpec& spec,
                              const std::vector<std::uint64_t>& baseline) {
  const std::uint64_t t0 = obs::monotonic_ns();
  emit_run_event(opts, obs::EventKind::RunStart, engine.rounds(), engine.graph().n());
  StabilizationOutcome out;
  repair(engine, opts, spec, baseline, !spec.check(engine), /*executed=*/0, out);
  end_run(engine, opts, t0, out);
  return out;
}

StabilizationSpec coloring_spec(const SsConfig& cfg) {
  StabilizationSpec spec;
  spec.check = [&cfg](Engine& engine) {
    return coloring_violation(engine.graph(), cfg, current_colors(engine),
                              engine.rounds());
  };
  spec.outputs = [](Engine& engine) { return current_colors(engine); };
  return spec;
}

StabilizationSpec mis_spec(const SsConfig& cfg) {
  StabilizationSpec spec;
  spec.check = [color = coloring_spec(cfg).check](Engine& engine) -> Violation {
    const Violation color_v = color(engine);
    if (color_v) return color_v;
    const graph::GraphView g = engine.graph();
    const auto status = [&](Vertex v) {
      const auto ram = engine.ram(v);
      return ram.size() >= 2 ? packed_status(ram[1] & 3) : kUndecided;
    };
    for (Vertex v = 0; v < g.n(); ++v) {
      const auto nbrs = g.neighbors(v);
      const bool mis_nbr = std::any_of(nbrs.begin(), nbrs.end(),
                                       [&](Vertex w) { return status(w) == kMis; });
      const MisStatus s = status(v);
      if (s != (mis_nbr ? kNotMis : kMis)) {
        return {ViolationKind::InvalidState, engine.rounds(), v, v,
                static_cast<std::uint64_t>(s)};
      }
    }
    return {};
  };
  spec.outputs = [](Engine& engine) {
    std::vector<std::uint64_t> out(engine.graph().n(), 0);
    for (Vertex v = 0; v < engine.graph().n(); ++v) {
      const auto ram = engine.ram(v);
      if (ram.size() >= 2) out[v] = pack_cs(ram[0], ram[1]);
    }
    return out;
  };
  return spec;
}

StabilizationSpec line_spec(const SsLineConfig& cfg) {
  StabilizationSpec spec;
  spec.check = [&cfg](Engine& engine) -> Violation {
    const graph::GraphView g = engine.graph();
    const std::uint64_t round = engine.rounds();
    for (const auto& [u, w] : graph::edge_list(g)) {
      const auto r = edge_replicas(engine, {u, w});
      if (!r || r->first != r->second) {
        return {ViolationKind::InvalidState, round, u, w, r ? r->second : 0};
      }
      const Color c = packed_color(r->first);
      if (!cfg.coloring().is_final(c)) {
        return {ViolationKind::OutOfPalette, round, u, w, c};
      }
    }
    if (!graph::is_proper_edge_coloring(g, current_edge_colors(engine))) {
      return {ViolationKind::MonochromaticEdge, round, 0, 0, 0};
    }
    if (cfg.task() == LineTask::MaximalMatching &&
        !graph::is_maximal_matching(g, current_matching(engine))) {
      return {ViolationKind::InvalidState, round, 0, 0, 0};
    }
    return {};
  };
  spec.outputs = [](Engine& engine) {
    std::vector<std::uint64_t> out(engine.graph().n(), 0);
    for (Vertex v = 0; v < engine.graph().n(); ++v) {
      std::uint64_t h = 0;
      for (const std::uint64_t w : engine.ram(v)) h = h * 1099511628211ULL + w;
      out[v] = h;
    }
    return out;
  };
  return spec;
}

}  // namespace agc::selfstab
