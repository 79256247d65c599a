#include "agc/runtime/engine.hpp"

#include <stdexcept>

#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/round.hpp"

namespace agc::runtime {

Engine::Engine(graph::Graph g, Transport transport, EngineOptions opts)
    : owned_(std::make_unique<graph::Graph>(std::move(g))),
      view_(*owned_),
      transport_(transport),
      opts_(opts) {
  envs_.resize(view_.n());
  for (graph::Vertex v = 0; v < view_.n(); ++v) refresh_env(v);
}

Engine::Engine(graph::GraphView g, Transport transport, EngineOptions opts)
    : view_(g), transport_(transport), opts_(opts) {
  envs_.resize(view_.n());
  for (graph::Vertex v = 0; v < view_.n(); ++v) refresh_env(v);
}

void Engine::refresh_env(graph::Vertex v) {
  refresh_vertex_env(view_, opts_, metrics_.rounds, v, envs_[v]);
}

graph::Graph& Engine::mutable_graph() {
  if (owned_ == nullptr) {
    owned_ = std::make_unique<graph::Graph>(graph::materialize(view_));
    view_ = graph::GraphView(*owned_);
    // Every env's neighbor span still points into the old backend; re-point
    // them all at the private copy before it diverges.
    for (graph::Vertex v = 0; v < view_.n(); ++v) refresh_env(v);
  }
  return *owned_;
}

void Engine::install(const ProgramFactory& factory) {
  factory_ = factory;
  programs_.clear();
  programs_.reserve(view_.n());
  for (graph::Vertex v = 0; v < view_.n(); ++v) {
    refresh_env(v);
    programs_.push_back(factory(envs_[v]));
    programs_.back()->on_start(envs_[v]);
  }
}

void Engine::step() {
  if (programs_.size() != view_.n()) {
    throw std::logic_error("Engine::step before install()");
  }
  edge_bits_.ensure(view_.n());
  arena_.ensure(view_);  // O(1) unless the adversary churned topology
  if (channel_ != nullptr) {
    channel_->begin_round(arena_, view_, metrics_.rounds);
  }
  const std::uint64_t t0 = sink_ != nullptr ? obs::monotonic_ns() : 0;
  const std::uint64_t messages_before = metrics_.messages;
  RoundContext ctx(view_, transport_, opts_, programs_, envs_, edge_bits_,
                   arena_, metrics_.rounds, profile_, channel_);
  if (executor_) {
    executor_->round(ctx, metrics_);
  } else {
    SequentialExecutor{}.round(ctx, metrics_);
  }
  ++metrics_.rounds;
  if (sink_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::RoundEnd;
    ev.round = metrics_.rounds;
    ev.value = metrics_.messages - messages_before;
    ev.ns = obs::monotonic_ns() - t0;
    sink_->emit(ev);
  }
}

bool Engine::all_halted() const {
  for (graph::Vertex v = 0; v < view_.n(); ++v) {
    if (!programs_[v]->halted(envs_[v])) return false;
  }
  return true;
}

void Engine::corrupt_ram(graph::Vertex v, std::size_t word, std::uint64_t value) {
  auto ram = programs_[v]->ram();
  if (word < ram.size()) {
    ram[word] = value;
    if (fault_recorder_ != nullptr) {
      fault_recorder_->record({metrics_.rounds, FaultKind::Ram, 0, v,
                               static_cast<std::uint32_t>(word), value});
    }
  }
}

bool Engine::add_edge(graph::Vertex u, graph::Vertex v) {
  const bool ok = mutable_graph().add_edge(u, v);
  if (ok) {
    refresh_env(u);
    refresh_env(v);
    if (fault_recorder_ != nullptr) {
      fault_recorder_->record({metrics_.rounds, FaultKind::AddEdge, u, v, 0, 0});
    }
  }
  return ok;
}

bool Engine::remove_edge(graph::Vertex u, graph::Vertex v) {
  const bool ok = mutable_graph().remove_edge(u, v);
  if (ok) {
    refresh_env(u);
    refresh_env(v);
    if (fault_recorder_ != nullptr) {
      fault_recorder_->record({metrics_.rounds, FaultKind::RemoveEdge, u, v, 0, 0});
    }
  }
  return ok;
}

graph::Vertex Engine::add_vertex() {
  const graph::Vertex v = mutable_graph().add_vertex();
  envs_.emplace_back();
  refresh_env(v);
  programs_.push_back(factory_(envs_[v]));
  programs_.back()->on_start(envs_[v]);
  if (fault_recorder_ != nullptr) {
    fault_recorder_->record({metrics_.rounds, FaultKind::AddVertex, 0, v, 0, 0});
  }
  return v;
}

void Engine::reset_vertex(graph::Vertex v) {
  mutable_graph().isolate(v);
  refresh_env(v);
  programs_[v] = factory_(envs_[v]);
  programs_[v]->on_start(envs_[v]);
  if (fault_recorder_ != nullptr) {
    fault_recorder_->record({metrics_.rounds, FaultKind::ResetVertex, 0, v, 0, 0});
  }
}

}  // namespace agc::runtime
