#include "agc/coloring/symmetry.hpp"

#include "agc/graph/checks.hpp"

namespace agc::coloring {

namespace {

enum Status : std::uint64_t { kUndecided = 0, kIn = 1, kOut = 2 };

/// The MIS wave over the word (color << 2) | status: a vertex decides once
/// every smaller-colored neighbor has, joining iff no neighbor is in.
class MisWaveRule final : public runtime::IterativeRule {
 public:
  explicit MisWaveRule(std::uint32_t color_bits) : bits_(color_bits + 2) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override {
    if (is_final(own)) return own;
    const Color color = own >> 2;
    bool smaller_undecided = false;
    for (const Color word : neighbors) {
      if ((word & 3) == kIn) return (color << 2) | kOut;
      if ((word & 3) == kUndecided && (word >> 2) < color) smaller_undecided = true;
    }
    return smaller_undecided ? own : (color << 2) | kIn;
  }

  [[nodiscard]] bool is_final(Color word) const override {
    return (word & 3) != kUndecided;
  }
  [[nodiscard]] std::uint32_t color_bits() const override { return bits_; }

 private:
  std::uint32_t bits_;
};

}  // namespace

MisReport mis_from_coloring(graph::GraphView g, const std::vector<Color>& colors,
                            const runtime::IterativeOptions& opts) {
  const Color palette = graph::max_color(colors) + 1;
  const MisWaveRule rule(runtime::width_of(palette - 1));
  std::vector<Color> words(colors.size());
  for (std::size_t v = 0; v < colors.size(); ++v) words[v] = colors[v] << 2;

  runtime::IterativeOptions wave = opts;
  // On a proper input a color-c vertex decides by round c + 1, so palette + 2
  // rounds always suffice.
  wave.max_rounds = static_cast<std::size_t>(palette) + 2;
  if (wave.tag == nullptr) wave.tag = "mis-wave";
  // The words are proper iff the input coloring is; is_mis judges the output.
  wave.check_proper_each_round = false;
  runtime::IterativeResult r =
      runtime::run_locally_iterative(g, std::move(words), rule, wave);

  MisReport rep;
  static_cast<runtime::RunReport&>(rep) = r;
  rep.in_mis.resize(r.colors.size());
  for (std::size_t v = 0; v < r.colors.size(); ++v) {
    rep.in_mis[v] = (r.colors[v] & 3) == kIn;
  }
  rep.rounds_mis = r.rounds;
  rep.valid = r.converged && graph::is_mis(g, rep.in_mis);
  rep.converged = rep.valid;
  return rep;
}

MisReport maximal_independent_set(graph::GraphView g,
                                  const PipelineOptions& opts) {
  const auto colored = color_delta_plus_one(g, opts);
  auto rep = mis_from_coloring(g, colored.colors, opts.iter);
  rep.rounds_coloring = colored.rounds;
  rep.valid = rep.valid && colored.converged && colored.proper;
  // Fold the coloring stage's report core into the reduction's.
  rep.absorb(colored);
  rep.converged = rep.valid;
  return rep;
}

MatchingReport maximal_matching(graph::GraphView g, const PipelineOptions& opts) {
  MatchingReport rep;
  const auto lg = graph::line_graph(g);
  const auto mis = maximal_independent_set(lg.graph, opts);
  static_cast<runtime::RunReport&>(rep) = mis;
  for (graph::Vertex i = 0; i < lg.graph.n(); ++i) {
    if (mis.in_mis[i]) rep.matching.push_back(lg.edge_of[i]);
  }
  rep.valid = mis.valid && graph::is_maximal_matching(g, rep.matching);
  rep.converged = rep.valid;
  return rep;
}

LineEdgeColoringReport edge_coloring_via_line_graph(graph::GraphView g,
                                                    const PipelineOptions& opts) {
  LineEdgeColoringReport rep;
  const auto lg = graph::line_graph(g);
  const auto colored = color_delta_plus_one(lg.graph, opts);
  static_cast<runtime::RunReport&>(rep) = colored;
  rep.colors = colored.colors;
  rep.palette = colored.palette;
  rep.proper = colored.converged && graph::is_proper_edge_coloring(g, rep.colors);
  rep.converged = rep.proper;
  return rep;
}

}  // namespace agc::coloring
