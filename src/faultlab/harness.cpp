#include "agc/faultlab/harness.hpp"

#include "agc/graph/checks.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/hooked_rounds.hpp"
#include "agc/selfstab/detail/repair_loop.hpp"

namespace agc::faultlab {

namespace {

using runtime::Engine;
using runtime::RunOptions;

/// Phase 1 of the protocol: drive the engine from its current state (legal or
/// not — `initially_legal` says which, sparing a redundant check when phase 0
/// just certified legality) through selfstab::detail::repair_loop, with the
/// RunOptions hooks live through HookedRounds.  Fills everything in `out`
/// except the settle bookkeeping; `executed` counts engine rounds already
/// spent against opts.max_rounds.
void repair_until_legal(Engine& engine, const RunOptions& opts,
                        const StabilizationSpec& spec,
                        const std::vector<std::uint64_t>& baseline,
                        bool initially_legal, std::size_t executed,
                        StabilizationOutcome& out) {
  // The adversary's schedule counts HookedRounds' own rounds, not engine
  // rounds — a settle phase's length must not eat the schedule.
  runtime::HookedRounds rounds(engine, opts);
  selfstab::detail::repair_loop(
      spec, opts.max_rounds, initially_legal, executed,
      [&] { return engine.rounds(); }, [&] { return rounds.step().total() > 0; },
      [&] { return spec.check(engine); }, out);
  if (out.recovered) out.adjusted = selfstab::detail::adjusted(spec.outputs(engine), baseline);
  rounds.finish(out);
  out.rounds = executed;
  out.converged = out.recovered;
}

}  // namespace

StabilizationOutcome run_stabilization(Engine& engine, const RunOptions& opts,
                                       const StabilizationSpec& spec) {
  const std::uint64_t t0 = obs::monotonic_ns();
  StabilizationOutcome out;
  const runtime::Metrics before = engine.metrics();
  const std::size_t settle_budget =
      spec.settle_budget != 0 ? spec.settle_budget : spec.recovery_budget;

  // --- Phase 0: fault-free fixed point ------------------------------------
  std::size_t executed = 0;
  Violation v = spec.check(engine);
  while (v && executed < settle_budget && executed < opts.max_rounds) {
    engine.step();
    ++executed;
    v = spec.check(engine);
  }
  if (v) {
    out.violation = v;
    out.violation.kind = ViolationKind::NeverSettled;
    out.violation.round = engine.rounds();
    out.rounds = executed;
    out.wall_ns = obs::monotonic_ns() - t0;
    return out;
  }
  const std::vector<std::uint64_t> baseline = spec.outputs(engine);

  // --- Phase 1: fault schedule + recovery, under the watchdog -------------
  const runtime::Metrics settled = engine.metrics();
  repair_until_legal(engine, opts, spec, baseline, /*initially_legal=*/true,
                     executed, out);
  // Phase 0's rounds and traffic belong to the run too.
  out.metrics.rounds += settled.rounds - before.rounds;
  out.metrics.messages += settled.messages - before.messages;
  out.metrics.total_bits += settled.total_bits - before.total_bits;
  out.wall_ns = obs::monotonic_ns() - t0;
  return out;
}

StabilizationOutcome resettle(Engine& engine, const RunOptions& opts,
                              const StabilizationSpec& spec,
                              const std::vector<std::uint64_t>& baseline) {
  const std::uint64_t t0 = obs::monotonic_ns();
  StabilizationOutcome out;
  repair_until_legal(engine, opts, spec, baseline, !spec.check(engine),
                     /*executed=*/0, out);
  out.wall_ns = obs::monotonic_ns() - t0;
  return out;
}

CheckFn coloring_check(const selfstab::SsConfig& cfg) {
  return [&cfg](Engine& engine) {
    return selfstab::coloring_violation(engine.graph(), cfg,
                                        selfstab::current_colors(engine),
                                        engine.rounds());
  };
}

OutputFn coloring_outputs() {
  return [](Engine& engine) {
    std::vector<std::uint64_t> out(engine.graph().n(), 0);
    for (graph::Vertex v = 0; v < engine.graph().n(); ++v) {
      const auto ram = engine.ram(v);
      if (!ram.empty()) out[v] = ram[0];
    }
    return out;
  };
}

CheckFn mis_check(const selfstab::SsConfig& cfg) {
  return [&cfg](Engine& engine) -> Violation {
    const Violation color_v = coloring_check(cfg)(engine);
    if (color_v) return color_v;
    const graph::GraphView g = engine.graph();
    for (graph::Vertex v = 0; v < g.n(); ++v) {
      const auto ram = engine.ram(v);
      if (ram.size() < 2) {
        return {ViolationKind::InvalidState, engine.rounds(), v, v, 0};
      }
      const auto status = selfstab::packed_status(ram[1] & 3);
      bool mis_nbr = false;
      for (const graph::Vertex w : g.neighbors(v)) {
        const auto wram = engine.ram(w);
        if (wram.size() >= 2 &&
            selfstab::packed_status(wram[1] & 3) == selfstab::kMis) {
          mis_nbr = true;
          break;
        }
      }
      const bool ok = (status == selfstab::kMis && !mis_nbr) ||
                      (status == selfstab::kNotMis && mis_nbr);
      if (!ok) {
        return {ViolationKind::InvalidState, engine.rounds(), v, v,
                static_cast<std::uint64_t>(status)};
      }
    }
    return {};
  };
}

OutputFn mis_outputs() {
  return [](Engine& engine) {
    std::vector<std::uint64_t> out(engine.graph().n(), 0);
    for (graph::Vertex v = 0; v < engine.graph().n(); ++v) {
      const auto ram = engine.ram(v);
      if (ram.size() >= 2) out[v] = selfstab::pack_cs(ram[0], ram[1]);
    }
    return out;
  };
}

CheckFn line_check(const selfstab::SsLineConfig& cfg) {
  return [&cfg](Engine& engine) -> Violation {
    const graph::GraphView g = engine.graph();
    if (cfg.task() == selfstab::LineTask::EdgeColoring) {
      const auto colors = selfstab::current_edge_colors(engine);
      for (const auto c : colors) {
        if (!cfg.coloring().is_final(c)) {
          return {ViolationKind::OutOfPalette, engine.rounds(), 0, 0, c};
        }
      }
      if (!graph::is_proper_edge_coloring(g, colors)) {
        return {ViolationKind::MonochromaticEdge, engine.rounds(), 0, 0, 0};
      }
      return {};
    }
    // Maximal matching: no vertex matched twice, no edge with both endpoints
    // free.
    const auto matching = selfstab::current_matching(engine);
    std::vector<std::uint8_t> matched(g.n(), 0);
    for (const auto& [u, w] : matching) {
      if (matched[u] != 0 || matched[w] != 0) {
        return {ViolationKind::InvalidState, engine.rounds(), u, w, 1};
      }
      matched[u] = 1;
      matched[w] = 1;
    }
    Violation out{};
    g.for_each_edge([&](graph::Vertex u, graph::Vertex w) {
      if (!out && matched[u] == 0 && matched[w] == 0) {
        out = {ViolationKind::InvalidState, engine.rounds(), u, w, 0};
      }
    });
    return out;
  };
}

OutputFn line_outputs() {
  return [](Engine& engine) {
    std::vector<std::uint64_t> out(engine.graph().n(), 0);
    for (graph::Vertex v = 0; v < engine.graph().n(); ++v) {
      std::uint64_t h = 0;
      for (const std::uint64_t w : engine.ram(v)) h = h * 1099511628211ULL + w;
      out[v] = h;
    }
    return out;
  };
}

}  // namespace agc::faultlab
