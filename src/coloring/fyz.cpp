#include "agc/coloring/fyz.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "agc/coloring/linial.hpp"
#include "agc/obs/event_sink.hpp"
#include "fyz_stages.hpp"
#include "stage.hpp"

namespace agc::coloring {

using detail::finish;
using detail::fresh_report;
using detail::FyzStages;
using detail::PartitionSchedule;
using detail::run_stage;

std::uint64_t fyz_budget(std::size_t delta) {
  const auto p = static_cast<std::uint64_t>(
      std::ceil(std::pow(static_cast<double>(std::max<std::size_t>(delta, 1)),
                         0.25)));
  return std::max<std::uint64_t>(p, 1);
}

PipelineReport color_fyz(graph::GraphView g, const PipelineOptions& opts) {
  if (g.max_degree() == 0) {
    // Edgeless: the Delta+1 palette is the single color 0; no rounds needed.
    PipelineReport rep = fresh_report();
    rep.colors.assign(g.n(), 0);
    finish(rep, g);
    return rep;
  }
  const std::size_t delta = std::max<std::size_t>(g.max_degree(), 1);
  const std::uint64_t id_space =
      std::max<std::uint64_t>(g.n(), 1) *
      std::max<std::uint64_t>(1, opts.id_space_factor);
  const FyzStages st(id_space, delta);
  const PartitionSchedule& psched = st.psched;
  const std::uint64_t classes_in = psched.classes();
  const std::uint64_t q = st.q;
  const std::uint64_t d1 = st.d1;
  PipelineReport rep = fresh_report();

  // Stage 1: the shared log* n preamble.  L is the Linial fixed point the
  // carrier colors live in.
  auto lin = run_stage(rep, opts, "linial", 0, [&](const auto& iter) {
    return linial_color(g, identity_coloring(g.n()), id_space, delta, iter);
  });
  rep.rounds_linial = lin.rounds;

  // Stage 2: defective partition L -> K = O((Delta/p)^2).
  if (psched.stages.empty()) {
    // Already at the class-space fixed point (tiny Delta): psi = lin, but
    // stage 3 expects the carrier-packed form.
    for (graph::Vertex v = 0; v < g.n(); ++v) {
      lin.colors[v] = lin.colors[v] * psched.span + lin.colors[v];
    }
    rep.rounds_core = 0;
  } else {
    auto partition =
        run_stage(rep, opts, "fyz-partition", 1, [&](const auto& iter) {
          std::vector<Color> init(g.n());
          for (graph::Vertex v = 0; v < g.n(); ++v) {
            init[v] = lin.colors[v] * psched.span + lin.colors[v];
          }
          return runtime::run_locally_iterative(g, std::move(init), st.partition, iter);
        });
    lin.colors = std::move(partition.colors);
    rep.rounds_core = partition.rounds;
  }

  // Stage 3: repack with psi from the partition's final interval, carrier
  // unchanged.  psi < K <= q^2 splits into the AG pair <a, b>.
  auto arb = run_stage(rep, opts, "fyz-arb", 2, [&](const auto& iter) {
    std::vector<Color> init(g.n());
    for (graph::Vertex v = 0; v < g.n(); ++v) {
      const std::uint64_t lin_c = lin.colors[v] / psched.span;
      const std::uint64_t psi =
          lin.colors[v] % psched.span - psched.off.back();
      init[v] = ((lin_c * classes_in + psi) * q + psi / q) * q + psi % q;
    }
    return runtime::run_locally_iterative(g, std::move(init), st.arb, iter);
  });
  rep.rounds_core += arb.rounds;

  // Stage 4: repack with priority = (arb class b) * L + lin, proposal
  // spread by class.
  auto wave = run_stage(rep, opts, "fyz-list", 3, [&](const auto& iter) {
    std::vector<Color> init(g.n());
    for (graph::Vertex v = 0; v < g.n(); ++v) {
      const std::uint64_t m = arb.colors[v] % (classes_in * q * q);
      const std::uint64_t b = m % q;
      const std::uint64_t lin_c = arb.colors[v] / (classes_in * q * q);
      init[v] = d1 + (b * st.big_l + lin_c) * d1 + b % d1;
    }
    return runtime::run_locally_iterative(g, std::move(init), st.list, iter);
  });
  rep.rounds_finish = wave.rounds;

  finish(rep, g, opts, wave);
  return rep;
}

}  // namespace agc::coloring
