#include "agc/runtime/run_report.hpp"

#include <algorithm>

namespace agc::runtime {

obs::Telemetry RunReport::telemetry() const {
  obs::Telemetry t;
  t.phases = phases;
  t.wall_ns = wall_ns;
  t.set("rounds", rounds);
  t.set("converged", converged ? 1 : 0);
  t.set("messages", metrics.messages);
  t.set("total_bits", metrics.total_bits);
  t.set("max_edge_bits", metrics.max_edge_bits);
  t.set("fault_events", fault_events);
  return t;
}

void RunReport::absorb(const RunReport& stage) {
  rounds += stage.rounds;
  converged = converged && stage.converged;
  metrics.merge(stage.metrics);
  phases.merge(stage.phases);
  wall_ns += stage.wall_ns;
  fault_events += stage.fault_events;
  state_bytes = std::max(state_bytes, stage.state_bytes);
}

}  // namespace agc::runtime
