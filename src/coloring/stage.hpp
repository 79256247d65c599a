#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "agc/coloring/pipeline.hpp"
#include "agc/graph/checks.hpp"
#include "agc/obs/event_sink.hpp"

/// \file stage.hpp (internal)
/// The stage-composition helpers shared by the pipeline front doors
/// (pipeline.cpp, fyz.cpp): per-stage option tagging, StageStart/StageEnd
/// bracketing, report folding and the finishing palette/properness stamp.
/// Internal to src/coloring — the public surface is pipeline.hpp / fyz.hpp.

namespace agc::coloring::detail {

/// Per-stage options: the pipeline's iterative options with the stage's
/// static tag attached, so emitted events and traces name the stage.
inline runtime::IterativeOptions stage_opts(const PipelineOptions& opts,
                                            const char* tag) {
  runtime::IterativeOptions o = opts.iter;
  o.tag = tag;
  return o;
}

inline void stage_event(const PipelineOptions& opts, obs::EventKind kind,
                        const char* tag, std::size_t rounds_so_far,
                        std::size_t value, std::uint64_t ns = 0) {
  if (opts.iter.sink == nullptr) return;
  obs::Event ev;
  ev.kind = kind;
  ev.round = rounds_so_far;
  ev.label = tag;
  ev.value = value;
  ev.ns = ns;
  opts.iter.sink->emit(ev);
}

/// Fold one iterative stage into the report: rounds/metrics/wall add,
/// convergence ANDs (RunReport::absorb), and the locally-iterative invariant
/// ANDs.  Stages run fresh engines with independent per-edge ledgers, so
/// max_edge_bits is a max over stages — Metrics::merge already does that.
inline void fold_stage(PipelineReport& rep, const runtime::IterativeResult& r) {
  rep.absorb(r);
  rep.proper_each_round = rep.proper_each_round && r.proper_each_round;
}

/// Run one stage bracketed by StageStart/StageEnd events and fold it.
/// `runner` is the stage body; it receives the stage-tagged options.
template <typename Runner>
runtime::IterativeResult run_stage(PipelineReport& rep,
                                   const PipelineOptions& opts, const char* tag,
                                   std::size_t index, Runner&& runner) {
  stage_event(opts, obs::EventKind::StageStart, tag, rep.rounds, index);
  runtime::IterativeResult r = runner(stage_opts(opts, tag));
  stage_event(opts, obs::EventKind::StageEnd, tag, rep.rounds + r.rounds,
              r.rounds, r.wall_ns);
  fold_stage(rep, r);
  return r;
}

/// Stamp the palette and properness of rep.colors on `g`, checking every
/// edge.
inline void finish(PipelineReport& rep, graph::GraphView g) {
  rep.palette = graph::palette_size(rep.colors);
  rep.proper = graph::is_proper_coloring(g, rep.colors);
}

/// Take the last stage's colors, unchanged, as the report's and stamp them.
/// When the stages checked every round and the invariant held, that verdict
/// already judged these colors on `g` — unless an adversary ran, since the
/// engine then judges the graph it churned — so only then does `proper`
/// skip the O(m) pass.
inline void finish(PipelineReport& rep, graph::GraphView g,
                   const PipelineOptions& opts, runtime::IterativeResult& last) {
  rep.colors = std::move(last.colors);
  rep.palette = graph::palette_size(rep.colors);
  const bool judged = opts.iter.check_proper_each_round && rep.proper_each_round &&
                      opts.iter.adversary == nullptr;
  rep.proper = judged || graph::is_proper_coloring(g, rep.colors);
}

inline PipelineReport fresh_report() {
  PipelineReport rep;
  rep.converged = true;          // absorb() ANDs per-stage convergence in
  rep.proper_each_round = true;  // likewise for the iterative invariant
  return rep;
}

}  // namespace agc::coloring::detail
