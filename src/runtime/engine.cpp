#include "agc/runtime/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "agc/obs/event_sink.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/runtime/faults.hpp"

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
  VertexEnv& env = envs_[v];
  env.id = v;
  env.padded_id = v;
  env.degree = view_.degree(v);
  env.n_bound = opts_.n_bound != 0 ? opts_.n_bound : view_.n();
  env.id_space = env.n_bound * std::max<std::uint64_t>(1, opts_.id_space_factor);
  env.delta_bound = opts_.delta_bound != 0 ? opts_.delta_bound : view_.max_degree();
  env.neighbors = view_.neighbors(v);
  env.round = metrics_.rounds;
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
  // O(1) unless the adversary churned topology; the cut is rebuilt with the
  // arena, and after set_executor or set_profile changed either.
  if (arena_.ensure(view_) || !shards_) {
    shards_.emplace(view_, executor_.get(), profile_, 1);
    arena_.ensure_shards(shards_->size());
  }
  if (channel_ != nullptr) {
    channel_->begin_round(arena_, view_, metrics_.rounds);
  }
  const std::uint64_t t0 = sink_ != nullptr ? obs::monotonic_ns() : 0;
  const std::uint64_t messages_before = metrics_.messages;
  // Capture-`this` tasks fit std::function's inline buffer: no allocation.
  shards_->run([this](std::size_t s) { send_shard(s); }, obs::Phase::Send);
  shard_metrics_.assign(shards_->size(), Metrics{});  // capacity reused
  shards_->run([this](std::size_t s) { deliver_shard(s); }, obs::Phase::Deliver);
  for (const Metrics& m : shard_metrics_) metrics_.merge(m);  // shard order
  shards_->run([this](std::size_t s) { receive_shard(s); }, obs::Phase::Receive);
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

void Engine::send_shard(std::size_t s) {
  obs::ScopedPhaseTimer timer(shards_->timers(s), obs::Phase::Send);
  const graph::Vertex begin = shards_->begin(s);
  const graph::Vertex end = shards_->end(s);
  arena_.begin_shard(s);
  if (channel_ != nullptr) {
    // Worst case a hook adds one word per port (duplicate, or a delayed word
    // prepended to a full inline slot), relocating the port into a cap-2 lane
    // run.  Pre-sizing the lane to 2 words per owned port keeps the hook's
    // in-phase pushes allocation-free for bounded models.
    arena_.reserve_lane(s, 2 * std::size_t{arena_.base(end) - arena_.base(begin)});
  }
  for (graph::Vertex v = begin; v < end; ++v) {
    arena_.reset_ports(v);
    refresh_env(v);
    OutboxRef out = arena_.outbox(v, s);
    programs_[v]->on_send(envs_[v], out);
    transport_.validate(out);
    if (channel_ != nullptr) {
      channel_->apply(arena_, view_, v, metrics_.rounds, s);
    }
  }
}

void Engine::deliver_shard(std::size_t s) {
  obs::ScopedPhaseTimer timer(shards_->timers(s), obs::Phase::Deliver);
  Metrics& metrics = shard_metrics_[s];
  for (graph::Vertex v = shards_->begin(s); v < shards_->end(s); ++v) {
    const auto nbrs = view_.neighbors(v);
    const std::uint32_t* peers = arena_.peer_ports(v);
    for (std::size_t port = 0; port < nbrs.size(); ++port) {
      // v's p-th inbound message sits at v's port in its neighbor's table,
      // precomputed in the arena's reverse-port map.
      const auto words = arena_.words(peers[port]);
      if (words.empty()) continue;
      std::uint64_t msg_bits = 0;
      for (const Word& w : words) msg_bits += w.bits;
      ++metrics.messages;
      metrics.total_bits += msg_bits;
      const std::uint64_t acc = edge_bits_.add(nbrs[port], v, msg_bits);
      metrics.max_edge_bits = std::max(metrics.max_edge_bits, acc);
    }
  }
}

void Engine::receive_shard(std::size_t s) {
  obs::ScopedPhaseTimer timer(shards_->timers(s), obs::Phase::Receive);
  for (graph::Vertex v = shards_->begin(s); v < shards_->end(s); ++v) {
    const InboxRef in = arena_.inbox(v, s);
    programs_[v]->on_receive(envs_[v], in);
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
