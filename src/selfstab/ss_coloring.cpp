#include "agc/selfstab/ss_coloring.hpp"

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

}  // namespace agc::selfstab
