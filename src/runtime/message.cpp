#include "agc/runtime/message.hpp"

namespace agc::runtime {

void MailboxArena::rebuild(graph::GraphView g) {
  const std::size_t n = g.n();
  base_.assign(n + 1, 0);
  for (graph::Vertex v = 0; v < n; ++v) {
    base_[v + 1] = base_[v] + static_cast<std::uint32_t>(g.degree(v));
  }
  const std::size_t total = base_[n];
  headers_.assign(total, Port{});
  inline_.assign(total * kInline, Word{});
  peer_port_.resize(total);

  // Reverse-port map in O(m): scanning senders in ascending order means v
  // appears in each neighbor u's *sorted* list at the next unclaimed slot.
  std::vector<std::uint32_t> cursor(n, 0);
  for (graph::Vertex v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      const graph::Vertex u = nbrs[p];
      peer_port_[base_[u] + cursor[u]++] = base_[v] + static_cast<std::uint32_t>(p);
    }
  }

  version_ = g.topology_version();
  built_ = true;
}

void MailboxArena::spill(std::uint32_t gp, std::size_t shard) {
  Port& h = headers_[gp];
  Lane& lane = lanes_[shard];
  const std::uint32_t cap = 2 * kInline;
  if (lane.used + cap > lane.buf.size()) {
    lane.buf.resize(std::max(lane.buf.size() * 2, lane.used + cap));
  }
  for (std::uint32_t i = 0; i < h.count; ++i) {
    lane.buf[lane.used + i] = inline_[gp * kInline + i];
  }
  h.lane = static_cast<std::uint32_t>(shard);
  h.begin = static_cast<std::uint32_t>(lane.used);
  h.cap = cap;
  lane.used += cap;
}

void MailboxArena::grow(std::uint32_t gp, std::size_t shard) {
  Port& h = headers_[gp];
  // A shard only writes ports of its own vertices, so the run to grow is
  // always in this shard's lane.
  assert(h.lane == shard);
  Lane& lane = lanes_[shard];
  const std::uint32_t ncap = h.cap * 2;
  if (h.begin + h.cap == lane.used) {
    // The run is the lane tail: extend it in place, no copy.
    if (h.begin + ncap > lane.buf.size()) {
      lane.buf.resize(std::max<std::size_t>(lane.buf.size() * 2, h.begin + ncap));
    }
    lane.used = h.begin + ncap;
    h.cap = ncap;
    return;
  }
  if (lane.used + ncap > lane.buf.size()) {
    lane.buf.resize(std::max(lane.buf.size() * 2, lane.used + ncap));
  }
  std::copy_n(lane.buf.begin() + h.begin, h.count, lane.buf.begin() + lane.used);
  h.begin = static_cast<std::uint32_t>(lane.used);
  h.cap = ncap;
  lane.used += ncap;
}

}  // namespace agc::runtime
