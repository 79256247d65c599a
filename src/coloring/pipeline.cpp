#include "agc/coloring/pipeline.hpp"

#include <algorithm>

#include "agc/coloring/ag.hpp"
#include "agc/coloring/ag3.hpp"
#include "agc/coloring/kuhn_wattenhofer.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/obs/event_sink.hpp"
#include "stage.hpp"

namespace agc::coloring {

using detail::finish;
using detail::fresh_report;
using detail::run_stage;

namespace {

/// Shared preamble: identity coloring -> Linial fixed point.
runtime::IterativeResult run_linial(graph::GraphView g,
                                    const PipelineOptions& opts,
                                    const runtime::IterativeOptions& iter,
                                    std::size_t delta) {
  const std::uint64_t id_space =
      std::max<std::uint64_t>(g.n(), 1) * std::max<std::uint64_t>(1, opts.id_space_factor);
  return linial_color(g, identity_coloring(g.n()), id_space, delta, iter);
}

}  // namespace

PipelineReport color_delta_plus_one(graph::GraphView g,
                                    const PipelineOptions& opts) {
  const std::size_t delta = g.max_degree();
  PipelineReport rep = fresh_report();

  auto lin = run_stage(rep, opts, "linial", 0, [&](const auto& iter) {
    return run_linial(g, opts, iter, delta);
  });
  rep.rounds_linial = lin.rounds;

  auto ag = run_stage(rep, opts, "ag", 1, [&](const auto& iter) {
    return additive_group_color(g, std::move(lin.colors), delta, iter);
  });
  rep.rounds_core = ag.rounds;

  auto red = run_stage(rep, opts, "reduce", 2, [&](const auto& iter) {
    return reduce_colors(g, std::move(ag.colors), delta + 1, iter);
  });
  rep.rounds_finish = red.rounds;

  finish(rep, g, opts, red);
  return rep;
}

PipelineReport color_delta_plus_one_exact(graph::GraphView g,
                                          const PipelineOptions& opts) {
  const std::size_t delta = g.max_degree();
  PipelineReport rep = fresh_report();

  auto lin = run_stage(rep, opts, "linial", 0, [&](const auto& iter) {
    return run_linial(g, opts, iter, delta);
  });
  rep.rounds_linial = lin.rounds;

  auto mixed = run_stage(rep, opts, "mixed", 1, [&](const auto& iter) {
    return exact_delta_plus_one(g, std::move(lin.colors), delta, iter);
  });
  rep.rounds_core = mixed.rounds;

  finish(rep, g, opts, mixed);
  return rep;
}

PipelineReport color_kuhn_wattenhofer(graph::GraphView g,
                                      const PipelineOptions& opts) {
  const std::size_t delta = g.max_degree();
  PipelineReport rep = fresh_report();

  auto lin = run_stage(rep, opts, "linial", 0, [&](const auto& iter) {
    return run_linial(g, opts, iter, delta);
  });
  rep.rounds_linial = lin.rounds;

  auto kw = run_stage(rep, opts, "kw", 1, [&](const auto& iter) {
    return kuhn_wattenhofer_reduce(g, std::move(lin.colors), delta, iter);
  });
  rep.rounds_core = kw.rounds;

  finish(rep, g, opts, kw);
  return rep;
}

PipelineReport color_linial_greedy(graph::GraphView g,
                                   const PipelineOptions& opts) {
  const std::size_t delta = g.max_degree();
  PipelineReport rep = fresh_report();

  auto lin = run_stage(rep, opts, "linial", 0, [&](const auto& iter) {
    return run_linial(g, opts, iter, delta);
  });
  rep.rounds_linial = lin.rounds;

  auto red = run_stage(rep, opts, "reduce", 1, [&](const auto& iter) {
    return reduce_colors(g, std::move(lin.colors), delta + 1, iter);
  });
  rep.rounds_core = red.rounds;

  finish(rep, g, opts, red);
  return rep;
}

PipelineReport color_o_delta(graph::GraphView g, const PipelineOptions& opts) {
  const std::size_t delta = g.max_degree();
  PipelineReport rep = fresh_report();

  auto lin = run_stage(rep, opts, "linial", 0, [&](const auto& iter) {
    return run_linial(g, opts, iter, delta);
  });
  rep.rounds_linial = lin.rounds;

  auto ag = run_stage(rep, opts, "ag", 1, [&](const auto& iter) {
    return additive_group_color(g, std::move(lin.colors), delta, iter);
  });
  rep.rounds_core = ag.rounds;

  finish(rep, g, opts, ag);
  return rep;
}

}  // namespace agc::coloring
