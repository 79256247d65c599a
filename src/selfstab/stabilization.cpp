#include "agc/selfstab/stabilization.hpp"

#include <cstdio>
#include <functional>
#include <stdexcept>

#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/shards.hpp"
#include "agc/selfstab/detail/repair_loop.hpp"

namespace agc::selfstab {

namespace {

using graph::Vertex;

/// coloring_violation() over the vertices [begin, end) only.
Violation first_violation(graph::GraphView g, const SsConfig& cfg,
                          std::span<const std::uint64_t> ram, Vertex begin,
                          Vertex end, std::uint64_t round) {
  for (Vertex u = begin; u < end; ++u) {
    const std::uint64_t cu = cfg.truncate(ram[u]);
    if (!cfg.is_final(cu)) return {ViolationKind::OutOfPalette, round, u, u, cu};
    for (const Vertex w : g.neighbors(u)) {
      if (w > u && cfg.truncate(ram[w]) == cu) {
        return {ViolationKind::MonochromaticEdge, round, u, w, cu};
      }
    }
  }
  return {};
}

/// Shard s writes only its Shard and the next colors of its own vertices;
/// the driving thread reads the results after the executor's barrier.
struct Shard {
  std::vector<std::uint64_t> nbrs;  ///< neighbor-multiset scratch, the step's to reorder
  Violation first;                  ///< the shard's first violation at the last check
};

}  // namespace

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::None: return "none";
    case ViolationKind::MonochromaticEdge: return "monochromatic_edge";
    case ViolationKind::OutOfPalette: return "out_of_palette";
    case ViolationKind::InvalidState: return "invalid_state";
    case ViolationKind::NeverSettled: return "never_settled";
    case ViolationKind::RoundCap: return "round_cap";
  }
  return "?";
}

std::string to_string(const Violation& v) {
  char buf[160];
  if (v.kind == ViolationKind::RoundCap) {
    std::snprintf(buf, sizeof buf, "%s at round %llu", to_string(v.kind),
                  static_cast<unsigned long long>(v.round));
  } else {
    std::snprintf(buf, sizeof buf, "%s at round %llu (u=%u v=%u value=%llu)",
                  to_string(v.kind), static_cast<unsigned long long>(v.round), v.u,
                  v.v, static_cast<unsigned long long>(v.value));
  }
  return buf;
}

Violation coloring_violation(graph::GraphView g, const SsConfig& cfg,
                             std::span<const std::uint64_t> ram,
                             std::uint64_t round) {
  return first_violation(g, cfg, ram, 0, static_cast<Vertex>(g.n()), round);
}

StabilizationOutcome flat_resettle(graph::GraphView g, std::vector<std::uint64_t>& ram,
                                   const SsConfig& cfg,
                                   const runtime::RunOptions& opts,
                                   const RecoverySpec& spec, std::uint64_t round,
                                   std::span<const std::uint64_t> baseline) {
  if (opts.adversary != nullptr || opts.channel != nullptr) {
    throw std::invalid_argument(
        "flat_resettle: fault hooks need the engine (selfstab::resettle)");
  }
  if (ram.size() != g.n()) {
    throw std::invalid_argument("flat_resettle: one RAM word per vertex");
  }
  const std::uint64_t t0 = obs::monotonic_ns();
  StabilizationOutcome out;
  obs::PhaseProfile profile;
  const runtime::VertexShards pass(g, opts.executor.get(),
                                   opts.collect_phase_times ? &profile : nullptr, 64);
  std::vector<Shard> shards(pass.size());
  for (Shard& sh : shards) sh.nbrs.reserve(g.max_degree());
  std::vector<std::uint64_t> next(ram.size());

  // One round: every vertex steps on its neighbors' broadcast words.  `ram`
  // is read-only until the barrier; shard s writes next[v] for its own v.
  const std::function<void(std::size_t)> step_shard = [&](std::size_t s) {
    obs::ScopedPhaseTimer timer(pass.timers(s), obs::Phase::Receive);
    std::vector<std::uint64_t>& nbrs = shards[s].nbrs;
    for (Vertex v = pass.begin(s); v < pass.end(s); ++v) {
      nbrs.clear();
      for (const Vertex u : g.neighbors(v)) nbrs.push_back(cfg.truncate(ram[u]));
      next[v] = cfg.step(v, cfg.truncate(ram[v]), nbrs);
    }
  };
  // Legality; the lowest shard's first violation is the whole graph's.
  const std::function<void(std::size_t)> check_shard = [&](std::size_t s) {
    obs::ScopedPhaseTimer timer(pass.timers(s), obs::Phase::Check);
    shards[s].first = first_violation(g, cfg, ram, pass.begin(s), pass.end(s), round);
  };
  const auto check = [&] {
    pass.run(check_shard, obs::Phase::Check);
    for (const Shard& sh : shards) {
      if (sh.first) return sh.first;
    }
    return Violation{};
  };
  const std::uint64_t messages_per_round = 2 * static_cast<std::uint64_t>(g.m());
  const auto step = [&] {
    const std::uint64_t r0 = opts.sink != nullptr ? obs::monotonic_ns() : 0;
    pass.run(step_shard, obs::Phase::Receive);
    ram.swap(next);
    ++round;
    if (opts.sink != nullptr) {
      opts.sink->emit(obs::Event{obs::EventKind::RoundEnd, round, nullptr,
                                 messages_per_round, obs::monotonic_ns() - r0});
    }
    return false;  // no fault lands inside a flat round
  };

  std::size_t executed = 0;
  detail::repair_loop(spec, opts.max_rounds, !check(), executed,
                      [&] { return round; }, step, check, out);
  if (out.recovered) out.adjusted = detail::adjusted(ram, baseline);

  out.rounds = executed;
  out.converged = out.recovered;
  out.metrics.rounds = executed;
  out.metrics.messages = executed * messages_per_round;
  out.metrics.total_bits = out.metrics.messages * cfg.color_bits();
  out.metrics.max_edge_bits = g.m() > 0 ? executed * cfg.color_bits() : 0;
  if (opts.collect_phase_times) out.phases = profile.folded();
  out.wall_ns = obs::monotonic_ns() - t0;
  return out;
}

}  // namespace agc::selfstab
