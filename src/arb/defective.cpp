#include "agc/arb/defective.hpp"

#include <algorithm>

#include "agc/coloring/linial.hpp"
#include "agc/math/iterated_log.hpp"
#include "agc/math/polynomial.hpp"

namespace agc::arb {

namespace {

/// One defective-Linial stage: every vertex picks the evaluation point with
/// the fewest collisions.  Colors are palette-local (no interval offsets —
/// the host loop runs stages in lockstep).  Each polynomial is built where it
/// is evaluated, at all q points at once: a stored polynomial per vertex
/// would cost ~0.5 KB.
std::vector<Color> defective_stage(graph::GraphView g,
                                   const std::vector<Color>& colors,
                                   const coloring::LinialStage& st) {
  const math::GF field(st.q);
  const int d = static_cast<int>(st.d);
  std::vector<Color> next(g.n());
  // Evaluation tables are small (q entries); per vertex we scan its
  // neighbors' values at each point and take the argmin.
  std::vector<std::uint64_t> own_vals(st.q);
  std::vector<std::size_t> hits(st.q);
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    const auto g_own = math::Polynomial::from_digits(field, colors[v], d);
    for (std::uint64_t e = 0; e < st.q; ++e) own_vals[e] = g_own.eval(e);
    std::fill(hits.begin(), hits.end(), 0);
    for (graph::Vertex u : g.neighbors(v)) {
      const auto g_u = math::Polynomial::from_digits(field, colors[u], d);
      for (std::uint64_t e = 0; e < st.q; ++e) {
        if (g_u.eval(e) == own_vals[e]) ++hits[e];
      }
    }
    const std::uint64_t best = static_cast<std::uint64_t>(
        std::min_element(hits.begin(), hits.end()) - hits.begin());
    next[v] = best * st.q + own_vals[best];
  }
  return next;
}

}  // namespace

DefectiveResult defective_color(graph::GraphView g, std::size_t p,
                                std::uint64_t id_space) {
  DefectiveResult result;
  const std::size_t delta = std::max<std::size_t>(g.max_degree(), 1);
  id_space = std::max<std::uint64_t>(id_space, g.n());
  id_space = std::max<std::uint64_t>(id_space, 2);

  // Every stage may spend the full slack budget p (the coverage constraint
  // dominates on wide palettes, so only the last stage or two actually uses
  // it).  Per stage the NEW collisions are <= p by pigeonhole; already-merged
  // neighbors carry identical polynomials and usually split again, so the
  // accumulated defect is O(p) — p per slack-using stage — matching the
  // "O(p)-defective" requirement of Section 6 line 1 ([9] proves the sharper
  // constant with heavier machinery).  Tests measure the defect explicitly.
  std::vector<Color> colors(g.n());
  for (graph::Vertex v = 0; v < g.n(); ++v) colors[v] = v;

  auto stages = coloring::linial_stages(id_space, delta, p);
  const auto max_stages =
      static_cast<std::size_t>(math::log_star(id_space)) + 10;
  if (stages.size() > max_stages) stages.resize(max_stages);
  for (const coloring::LinialStage& st : stages) {
    colors = defective_stage(g, colors, st);
  }

  result.rounds = stages.size();
  result.palette_bound = stages.empty() ? id_space : stages.back().to_palette;
  result.colors = std::move(colors);
  const auto defects = graph::defect_vector(g, result.colors);
  result.max_defect =
      defects.empty() ? 0 : *std::max_element(defects.begin(), defects.end());
  result.converged = result.max_defect <= std::max<std::size_t>(p, 1);
  return result;
}

}  // namespace agc::arb
