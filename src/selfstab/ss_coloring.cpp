#include "agc/selfstab/ss_coloring.hpp"

#include <algorithm>

#include "agc/graph/checks.hpp"
#include "agc/selfstab/detail/run_loop.hpp"

namespace agc::selfstab {

runtime::ProgramFactory ss_coloring_factory(const SsConfig& cfg) {
  return [&cfg](const runtime::VertexEnv&) {
    return std::make_unique<SsColoringProgram>(cfg);
  };
}

std::vector<Color> current_colors(runtime::Engine& engine) {
  std::vector<Color> colors(engine.graph().n());
  for (graph::Vertex v = 0; v < colors.size(); ++v) {
    const auto ram = engine.ram(v);
    colors[v] = ram.empty() ? 0 : ram[0];
  }
  return colors;
}

StabilizationReport run_until_stable(runtime::Engine& engine, const SsConfig& cfg,
                                     const runtime::RunOptions& opts,
                                     std::size_t confirm_rounds) {
  StabilizationReport rep;
  auto stable = [&] {
    const auto colors = current_colors(engine);
    return std::all_of(colors.begin(), colors.end(),
                       [&](Color c) { return cfg.is_final(c); }) &&
           graph::is_proper_coloring(engine.graph(), colors);
  };
  detail::run_until(engine, opts, confirm_rounds, stable,
                    [&] { return current_colors(engine); }, rep);
  if (rep.stabilized) rep.colors = current_colors(engine);
  return rep;
}

StabilizationReport run_until_stable(runtime::Engine& engine, const SsConfig& cfg,
                                     std::size_t max_rounds,
                                     std::size_t confirm_rounds) {
  runtime::RunOptions opts;
  opts.max_rounds = max_rounds;
  return run_until_stable(engine, cfg, opts, confirm_rounds);
}

}  // namespace agc::selfstab
