#include "agc/faultlab/harness.hpp"

#include <algorithm>

#include "agc/graph/checks.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/hooked_rounds.hpp"

namespace agc::faultlab {

namespace {

using runtime::Engine;
using runtime::RunOptions;

/// Phase 1 of the protocol: drive the engine from its current state (legal or
/// not — `initially_legal` says which, sparing a redundant check when phase 0
/// just certified legality) until the check holds for confirm_rounds
/// consecutive rounds, with the RunOptions hooks live through HookedRounds
/// and the watchdog armed.  Fills everything in `out` except the settle
/// bookkeeping; `executed` counts engine rounds already spent against
/// opts.max_rounds.
void repair_until_legal(Engine& engine, const RunOptions& opts,
                        const StabilizationSpec& spec,
                        const std::vector<std::uint64_t>& baseline,
                        bool initially_legal, std::size_t executed,
                        StabilizationOutcome& out) {
  // The adversary's schedule counts HookedRounds' own rounds, not engine
  // rounds — a settle phase's length must not eat the schedule.
  runtime::HookedRounds rounds(engine, opts);

  // The entry state anchors the clocks: an already-legal configuration with
  // an empty fault schedule recovers in 0 rounds.
  out.last_fault_round = engine.rounds();
  out.first_legal_round = engine.rounds();
  bool legal = initially_legal;
  Violation v;
  std::size_t confirmed = 0;
  out.recovered = legal && spec.confirm_rounds == 0;

  while (!out.recovered && executed < opts.max_rounds) {
    ++executed;
    if (rounds.step().total() > 0) {
      out.last_fault_round = engine.rounds();
      legal = false;
      confirmed = 0;
    }
    v = spec.check(engine);
    if (!v) {
      if (!legal) {
        legal = true;
        out.first_legal_round = engine.rounds();
        confirmed = 0;
      }
      ++confirmed;
      if (confirmed >= spec.confirm_rounds) out.recovered = true;
    } else {
      legal = false;
      confirmed = 0;
      // Watchdog: the adversary has been quiet for recovery_budget rounds
      // and the configuration is still illegal — report what we see and
      // stop burning rounds.
      if (engine.rounds() - out.last_fault_round > spec.recovery_budget) {
        out.violation = v;
        break;
      }
    }
  }

  if (out.recovered) {
    out.recovery_rounds = static_cast<std::size_t>(out.first_legal_round -
                                                   out.last_fault_round);
    const std::vector<std::uint64_t> after = spec.outputs(engine);
    const std::size_t common = std::min(baseline.size(), after.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (after[i] != baseline[i]) {
        out.adjusted.push_back(static_cast<graph::Vertex>(i));
      }
    }
    for (std::size_t i = common; i < after.size(); ++i) {
      out.adjusted.push_back(static_cast<graph::Vertex>(i));
    }
  } else if (!out.violation) {
    // opts.max_rounds ran out before the watchdog or the confirm window.
    out.violation = v ? v : Violation{ViolationKind::InvalidState,
                                      engine.rounds(), 0, 0, 0};
  }

  rounds.finish(out);
  out.rounds = executed;
  out.converged = out.recovered;
}

}  // namespace

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::None: return "none";
    case ViolationKind::MonochromaticEdge: return "monochromatic_edge";
    case ViolationKind::OutOfPalette: return "out_of_palette";
    case ViolationKind::InvalidState: return "invalid_state";
    case ViolationKind::NeverSettled: return "never_settled";
  }
  return "?";
}

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
  return [&cfg](Engine& engine) -> Violation {
    const graph::GraphView g = engine.graph();
    for (graph::Vertex u = 0; u < g.n(); ++u) {
      const auto ram = engine.ram(u);
      const std::uint64_t cu = ram.empty() ? 0 : cfg.truncate(ram[0]);
      if (!cfg.is_final(cu)) {
        return {ViolationKind::OutOfPalette, engine.rounds(), u, u, cu};
      }
      for (const graph::Vertex w : g.neighbors(u)) {
        if (w <= u) continue;
        const auto wram = engine.ram(w);
        const std::uint64_t cw = wram.empty() ? 0 : cfg.truncate(wram[0]);
        if (cu == cw) {
          return {ViolationKind::MonochromaticEdge, engine.rounds(), u, w, cu};
        }
      }
    }
    return {};
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
