#include "agc/graph/graph.hpp"

#include <algorithm>
#include <cassert>

#include "agc/graph/view.hpp"

namespace agc::graph {

Graph Graph::from_edges(std::size_t n, std::span<const Edge> edges) {
  // In bulk: size every list once, fill it in edge order, then sort (unless
  // the order already was) and drop duplicates.  The result, m() and
  // topology_version() are what add_edge over `edges` would leave.
  const auto valid = [n](Vertex u, Vertex v) { return u != v && u < n && v < n; };
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [u, v] : edges) {
    assert(valid(u, v));
    if (!valid(u, v)) continue;
    ++degree[u];
    ++degree[v];
  }
  Graph g(n);
  for (Vertex v = 0; v < n; ++v) g.adj_[v].reserve(degree[v]);
  for (const auto& [u, v] : edges) {
    if (!valid(u, v)) continue;
    g.adj_[u].push_back(v);
    g.adj_[v].push_back(u);
  }
  for (auto& a : g.adj_) {
    if (!std::is_sorted(a.begin(), a.end())) std::sort(a.begin(), a.end());
    assert(std::adjacent_find(a.begin(), a.end()) == a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    g.m_ += a.size();
  }
  g.m_ /= 2;
  g.version_ = g.m_;
  return g;
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= n() || v >= n() || u == v) return false;
  const auto& a = adj_[u];
  return std::binary_search(a.begin(), a.end(), v);
}

bool Graph::add_edge(Vertex u, Vertex v) {
  if (u == v || u >= n() || v >= n()) return false;
  auto& au = adj_[u];
  auto it = std::lower_bound(au.begin(), au.end(), v);
  if (it != au.end() && *it == v) return false;
  au.insert(it, v);
  auto& av = adj_[v];
  av.insert(std::lower_bound(av.begin(), av.end(), u), u);
  ++m_;
  ++version_;
  return true;
}

bool Graph::remove_edge(Vertex u, Vertex v) {
  if (u >= n() || v >= n()) return false;
  auto& au = adj_[u];
  auto it = std::lower_bound(au.begin(), au.end(), v);
  if (it == au.end() || *it != v) return false;
  au.erase(it);
  auto& av = adj_[v];
  av.erase(std::lower_bound(av.begin(), av.end(), u));
  --m_;
  ++version_;
  return true;
}

Vertex Graph::add_vertex() {
  adj_.emplace_back();
  ++version_;
  return static_cast<Vertex>(adj_.size() - 1);
}

void Graph::isolate(Vertex v) {
  assert(v < n());
  // Copy: remove_edge mutates adj_[v].
  std::vector<Vertex> nbrs = adj_[v];
  for (Vertex u : nbrs) remove_edge(v, u);
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t d = 0;
  for (const auto& a : adj_) d = std::max(d, a.size());
  return d;
}

Graph materialize(GraphView g) {
  Graph out(g.n());
  // Canonical order means every insertion appends at the tail of both
  // endpoint lists, so the copy is O(m log dmax) with no mid-vector moves.
  g.for_each_edge([&](Vertex u, Vertex v) {
    [[maybe_unused]] const bool inserted = out.add_edge(u, v);
    assert(inserted);
  });
  return out;
}

}  // namespace agc::graph
