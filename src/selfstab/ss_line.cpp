#include "agc/selfstab/ss_line.hpp"

#include <algorithm>
#include <cassert>

#include "agc/graph/checks.hpp"

namespace agc::selfstab {

void SsLineProgram::sync_keys(const runtime::VertexEnv& env) {
  // Merge the replica table with the current neighbor list (both sorted):
  // new edges get the deterministic reset state (same at both endpoints),
  // removed edges drop their replicas.  An unchanged neighborhood, the
  // steady state, keeps the table as it is.
  if (std::equal(keys_.begin(), keys_.end(), env.neighbors.begin(),
                 env.neighbors.end())) {
    return;
  }
  std::vector<graph::Vertex> keys;
  std::vector<std::uint64_t> vals;
  keys.reserve(env.neighbors.size());
  vals.reserve(env.neighbors.size());
  std::size_t old = 0;
  for (graph::Vertex w : env.neighbors) {
    while (old < keys_.size() && keys_[old] < w) ++old;
    keys.push_back(w);
    if (old < keys_.size() && keys_[old] == w) {
      vals.push_back(vals_[old]);
    } else {
      const std::uint64_t eid = cfg_.edge_id(env.id, w);
      vals.push_back(pack_cs(cfg_.coloring().reset_color(eid), kUndecided));
    }
  }
  keys_ = std::move(keys);
  vals_ = std::move(vals);
}

void SsLineProgram::on_start(const runtime::VertexEnv& env) {
  keys_.clear();
  vals_.clear();
  sync_keys(env);
}

void SsLineProgram::on_send(const runtime::VertexEnv& env,
                            runtime::OutboxRef& out) {
  sync_keys(env);
  const std::uint32_t bits = cfg_.coloring().color_bits() + 2;
  for (auto& v : vals_) {
    v = pack_cs(cfg_.coloring().truncate(packed_color(v)), v & 3);
  }
  const bool phase_b = (env.round % 2) == 1;
  for (std::size_t p = 0; p < keys_.size(); ++p) {
    out.send(p, runtime::Word{vals_[p], bits});  // replica of the shared edge
    if (phase_b) {
      for (std::size_t q = 0; q < keys_.size(); ++q) {
        if (q != p) out.send(p, runtime::Word{vals_[q], bits});
      }
    }
  }
}

void SsLineProgram::on_receive(const runtime::VertexEnv& env,
                               const runtime::InboxRef& in) {
  assert(keys_.size() == in.ports());
  const bool phase_b = (env.round % 2) == 1;

  if (!phase_b) {
    // Phase A: reconcile the shared-edge replicas; the smaller-ID endpoint's
    // value wins.
    for (std::size_t p = 0; p < keys_.size(); ++p) {
      const auto words = in.from_port(p);
      if (words.empty()) continue;
      const std::uint64_t theirs = words.front().value;
      if (theirs != vals_[p] && keys_[p] < env.id) vals_[p] = theirs;
    }
    return;
  }

  // Phase B: run the virtual-vertex step for every incident edge, from the
  // pre-update snapshot (all virtual vertices move simultaneously).  The
  // snapshot, the neighborhood and its colors live in the program's scratch,
  // which stops growing once it has seen the largest neighborhood.
  next_.assign(vals_.begin(), vals_.end());
  for (std::size_t p = 0; p < keys_.size(); ++p) {
    const auto words = in.from_port(p);
    if (words.empty()) continue;

    // The line-graph neighborhood of edge (me, w): my other incident edges
    // plus w's other incident edges (words[1..] of w's message), in no
    // particular order — the step and mis_update are order-free.
    packed_.clear();
    for (std::size_t q = 0; q < keys_.size(); ++q) {
      if (q != p) packed_.push_back(vals_[q]);
    }
    for (std::size_t i = 1; i < words.size(); ++i) packed_.push_back(words[i].value);

    colors_.clear();
    for (std::uint64_t w : packed_) colors_.push_back(packed_color(w));

    const std::uint64_t state = vals_[p];
    const std::uint64_t eid = cfg_.edge_id(env.id, keys_[p]);
    const std::uint64_t new_color =
        cfg_.coloring().step(eid, packed_color(state), colors_);
    std::uint64_t new_status = 0;
    if (cfg_.task() == LineTask::MaximalMatching) {
      new_status = mis_update(new_color, packed_status(state), packed_);
    }
    next_[p] = pack_cs(new_color, new_status);
  }
  vals_.swap(next_);
}

std::optional<std::uint64_t> SsLineProgram::replica(graph::Vertex w) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), w);
  if (it == keys_.end() || *it != w) return std::nullopt;
  return vals_[static_cast<std::size_t>(it - keys_.begin())];
}

runtime::ProgramFactory ss_line_factory(const SsLineConfig& cfg) {
  return [&cfg](const runtime::VertexEnv&) {
    return std::make_unique<SsLineProgram>(cfg);
  };
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> edge_replicas(
    runtime::Engine& engine, graph::Edge e) {
  auto* pu = dynamic_cast<SsLineProgram*>(&engine.program(e.first));
  auto* pv = dynamic_cast<SsLineProgram*>(&engine.program(e.second));
  if (pu == nullptr || pv == nullptr) return std::nullopt;
  const auto ru = pu->replica(e.second);
  const auto rv = pv->replica(e.first);
  if (!ru || !rv) return std::nullopt;
  return std::pair{*ru, *rv};
}

std::vector<Color> current_edge_colors(runtime::Engine& engine) {
  std::vector<Color> colors;
  for (const auto& e : graph::edge_list(engine.graph())) {
    const auto r = edge_replicas(engine, e);
    colors.push_back(r ? packed_color(r->first) : 0);
  }
  return colors;
}

std::vector<graph::Edge> current_matching(runtime::Engine& engine) {
  std::vector<graph::Edge> matched;
  for (const auto& e : graph::edge_list(engine.graph())) {
    const auto r = edge_replicas(engine, e);
    if (r && packed_status(r->first) == kMis) matched.push_back(e);
  }
  return matched;
}

}  // namespace agc::selfstab
