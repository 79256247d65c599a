#include "agc/runtime/round.hpp"

#include <algorithm>

namespace agc::runtime {

void refresh_vertex_env(graph::GraphView g, const EngineOptions& opts,
                        std::uint64_t round, graph::Vertex v, VertexEnv& env) {
  env.id = v;
  env.padded_id = v;
  env.degree = g.degree(v);
  env.n_bound = opts.n_bound != 0 ? opts.n_bound : g.n();
  env.id_space = env.n_bound * std::max<std::uint64_t>(1, opts.id_space_factor);
  env.delta_bound = opts.delta_bound != 0 ? opts.delta_bound : g.max_degree();
  env.neighbors = g.neighbors(v);
  env.round = round;
}

RoundContext::RoundContext(graph::GraphView graph, const Transport& transport,
                           const EngineOptions& opts,
                           std::vector<std::unique_ptr<VertexProgram>>& programs,
                           std::vector<VertexEnv>& envs, EdgeBitLedger& ledger,
                           MailboxArena& arena, std::uint64_t round,
                           obs::PhaseProfile* profile, ChannelHook* channel)
    : graph_(graph),
      transport_(transport),
      opts_(opts),
      programs_(programs),
      envs_(envs),
      ledger_(ledger),
      arena_(arena),
      round_(round),
      profile_(profile),
      channel_(channel) {}

void RoundContext::send(graph::Vertex begin, graph::Vertex end,
                        std::size_t shard) {
  obs::ScopedPhaseTimer timer(
      profile_ != nullptr ? profile_->shard(shard) : nullptr, obs::Phase::Send);
  arena_.begin_shard(shard);
  if (channel_ != nullptr) {
    // Worst case a hook adds one word per port (duplicate, or a delayed word
    // prepended to a full inline slot), relocating the port into a cap-2 lane
    // run.  Pre-sizing the lane to 2 words per owned port keeps the hook's
    // in-phase pushes allocation-free for bounded models.
    arena_.reserve_lane(shard, 2 * std::size_t{arena_.base(end) - arena_.base(begin)});
  }
  for (graph::Vertex v = begin; v < end; ++v) {
    arena_.reset_ports(v);
    refresh_vertex_env(graph_, opts_, round_, v, envs_[v]);
    OutboxRef out = arena_.outbox(v, shard);
    programs_[v]->on_send(envs_[v], out);
    transport_.validate(out);
    if (channel_ != nullptr) {
      channel_->apply(arena_, graph_, v, round_, shard);
    }
  }
}

void RoundContext::deliver(graph::Vertex begin, graph::Vertex end,
                           Metrics& metrics, std::size_t shard) {
  obs::ScopedPhaseTimer timer(
      profile_ != nullptr ? profile_->shard(shard) : nullptr,
      obs::Phase::Deliver);
  for (graph::Vertex v = begin; v < end; ++v) {
    const auto nbrs = graph_.neighbors(v);
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
      const std::uint64_t acc = ledger_.add(nbrs[port], v, msg_bits);
      metrics.max_edge_bits = std::max(metrics.max_edge_bits, acc);
    }
  }
}

void RoundContext::reduce(std::span<const Metrics> shards, Metrics& total) {
  for (const Metrics& s : shards) total.merge(s);
}

void RoundContext::receive(graph::Vertex begin, graph::Vertex end,
                           std::size_t shard) {
  obs::ScopedPhaseTimer timer(
      profile_ != nullptr ? profile_->shard(shard) : nullptr,
      obs::Phase::Receive);
  for (graph::Vertex v = begin; v < end; ++v) {
    const InboxRef in = arena_.inbox(v, shard);
    programs_[v]->on_receive(envs_[v], in);
  }
}

void RoundExecutor::run_shards(std::size_t shards,
                               const std::function<void(std::size_t)>& task) {
  for (std::size_t s = 0; s < shards; ++s) task(s);
}

void SequentialExecutor::round(RoundContext& ctx, Metrics& total) {
  const auto n = static_cast<graph::Vertex>(ctx.n());
  ctx.prepare(1);
  ctx.send(0, n, 0);
  Metrics shard;
  ctx.deliver(0, n, shard, 0);
  RoundContext::reduce({&shard, 1}, total);
  ctx.receive(0, n, 0);
}

}  // namespace agc::runtime
