#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

/// \file graph.hpp
/// The undirected simple graph all algorithms run on.
///
/// Vertices are dense integers 0..n-1.  Adjacency lists are kept sorted, so
/// iteration order (and therefore every simulated execution) is
/// deterministic.  The graph is mutable — edge and vertex churn is a
/// first-class event in the fully-dynamic self-stabilizing setting — but
/// algorithms only ever observe it through the round engine.

namespace agc::graph {

using Vertex = std::uint32_t;
using Edge = std::pair<Vertex, Vertex>;  // canonical: first < second

/// Canonicalize an edge so that e.first < e.second.
[[nodiscard]] constexpr Edge make_edge(Vertex u, Vertex v) noexcept {
  return u < v ? Edge{u, v} : Edge{v, u};
}

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t n) : adj_(n) {}

  /// Build a graph on n vertices from an edge list (duplicates and self-loops
  /// are rejected with an assertion in debug builds, ignored in release).
  /// Equal to add_edge over the list, m() and topology_version() included,
  /// but in bulk: each list is allocated once, and sorted only if the edge
  /// order left it unsorted.
  static Graph from_edges(std::size_t n, std::span<const Edge> edges);

  [[nodiscard]] std::size_t n() const noexcept { return adj_.size(); }
  [[nodiscard]] std::size_t m() const noexcept { return m_; }

  [[nodiscard]] std::size_t degree(Vertex v) const noexcept { return adj_[v].size(); }

  /// Sorted neighbor list of v.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return adj_[v];
  }

  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept;

  /// Inserts (u,v); returns false if it already existed or u == v.
  bool add_edge(Vertex u, Vertex v);

  /// Room for `degree` neighbors of v, so a builder that can predict v's
  /// degree spares add_edge the regrowth.  Changes nothing observable.
  void reserve(Vertex v, std::size_t degree) { adj_[v].reserve(degree); }

  /// Removes (u,v); returns false if it was not present.
  bool remove_edge(Vertex u, Vertex v);

  /// Appends an isolated vertex and returns its id.
  Vertex add_vertex();

  /// Removes all edges incident to v (v stays as an isolated vertex so that
  /// vertex ids remain stable across dynamic updates).
  void isolate(Vertex v);

  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Monotone counter bumped by every successful topology mutation
  /// (add_edge / remove_edge / add_vertex).  Consumers that cache structure
  /// derived from the adjacency lists — e.g. the round engine's mailbox
  /// arena — compare it to decide in O(1) whether to rebuild.
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return version_;
  }

 private:
  std::vector<std::vector<Vertex>> adj_;
  std::size_t m_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace agc::graph
