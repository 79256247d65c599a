#include "agc/scale/flat.hpp"

#include <utility>

#include "agc/coloring/pipeline.hpp"
#include "agc/exec/executor.hpp"

namespace agc::scale {

FlatResult color_delta_plus_one_flat(graph::GraphView g,
                                     const FlatOptions& opts) {
  coloring::PipelineOptions po;
  po.run().executor = exec::make_executor(opts.threads);
  coloring::PipelineReport rep = coloring::color_delta_plus_one(g, po);

  FlatResult res;
  res.colors = std::move(rep.colors);
  res.rounds = rep.rounds;
  res.rounds_linial = rep.rounds_linial;
  res.rounds_core = rep.rounds_core;
  res.rounds_finish = rep.rounds_finish;
  res.converged = rep.converged;
  res.proper = rep.proper;
  res.palette = rep.palette;
  res.state_bytes = rep.state_bytes;
  return res;
}

}  // namespace agc::scale
