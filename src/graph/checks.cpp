#include "agc/graph/checks.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

namespace agc::graph {

bool is_proper_coloring(GraphView g, std::span<const Color> colors) {
  assert(colors.size() == g.n());
  for (Vertex u = 0; u < g.n(); ++u) {
    for (Vertex v : g.neighbors(u)) {
      if (v > u && colors[u] == colors[v]) return false;
    }
  }
  return true;
}

std::size_t palette_size(std::span<const Color> colors) {
  // A bitmap over [0, max] when it is at most one word per colour, else a
  // sorted copy: both cost no more memory than the colours themselves.
  const Color top = max_color(colors);
  if (top / 64 < colors.size()) {
    std::vector<std::uint64_t> seen(top / 64 + 1, 0);
    std::size_t count = 0;
    for (const Color c : colors) {
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      count += (seen[c / 64] & bit) == 0;
      seen[c / 64] |= bit;
    }
    return count;
  }
  std::vector<Color> sorted(colors.begin(), colors.end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(std::unique(sorted.begin(), sorted.end()) -
                                  sorted.begin());
}

Color max_color(std::span<const Color> colors) {
  Color m = 0;
  for (Color c : colors) m = std::max(m, c);
  return m;
}

std::vector<std::size_t> defect_vector(GraphView g, std::span<const Color> colors) {
  assert(colors.size() == g.n());
  std::vector<std::size_t> defect(g.n(), 0);
  for (Vertex u = 0; u < g.n(); ++u) {
    for (Vertex v : g.neighbors(u)) {
      if (colors[u] == colors[v]) ++defect[u];
    }
  }
  return defect;
}

bool is_defective_coloring(GraphView g, std::span<const Color> colors,
                           std::size_t d) {
  const auto defect = defect_vector(g, colors);
  return std::all_of(defect.begin(), defect.end(),
                     [d](std::size_t x) { return x <= d; });
}

std::size_t degeneracy(GraphView g) {
  // Smallest-last ordering with bucket queues: O(n + m).
  const std::size_t n = g.n();
  if (n == 0) return 0;
  std::vector<std::size_t> deg(n);
  std::size_t maxdeg = 0;
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    maxdeg = std::max(maxdeg, deg[v]);
  }
  std::vector<std::vector<Vertex>> buckets(maxdeg + 1);
  for (Vertex v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<bool> removed(n, false);
  std::size_t degeneracy_val = 0;
  std::size_t cursor = 0;
  for (std::size_t iter = 0; iter < n; ++iter) {
    // Find the non-empty bucket with the smallest degree.  `cursor` can only
    // decrease by one per removal, so we rewind it by one each iteration.
    if (cursor > 0) --cursor;
    while (cursor <= maxdeg) {
      auto& b = buckets[cursor];
      while (!b.empty() && (removed[b.back()] || deg[b.back()] != cursor)) b.pop_back();
      if (!b.empty()) break;
      ++cursor;
    }
    assert(cursor <= maxdeg);
    const Vertex v = buckets[cursor].back();
    buckets[cursor].pop_back();
    removed[v] = true;
    degeneracy_val = std::max(degeneracy_val, cursor);
    for (Vertex u : g.neighbors(v)) {
      if (!removed[u]) {
        --deg[u];
        buckets[deg[u]].push_back(u);
      }
    }
  }
  return degeneracy_val;
}

std::size_t max_class_degeneracy(GraphView g, std::span<const Color> colors) {
  assert(colors.size() == g.n());
  // Partition vertices by color, build each induced subgraph, take degeneracy.
  std::map<Color, std::vector<Vertex>> classes;
  for (Vertex v = 0; v < g.n(); ++v) classes[colors[v]].push_back(v);

  std::size_t worst = 0;
  std::vector<Vertex> local_id(g.n());
  for (const auto& [color, members] : classes) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      local_id[members[i]] = static_cast<Vertex>(i);
    }
    Graph sub(members.size());
    for (Vertex u : members) {
      for (Vertex v : g.neighbors(u)) {
        if (v > u && colors[v] == color) sub.add_edge(local_id[u], local_id[v]);
      }
    }
    worst = std::max(worst, degeneracy(sub));
  }
  return worst;
}

bool is_arbdefective_coloring(GraphView g, std::span<const Color> colors,
                              std::size_t b) {
  return max_class_degeneracy(g, colors) <= (b == 0 ? 0 : 2 * b - 1);
}

bool is_mis(GraphView g, const std::vector<bool>& in_set) {
  assert(in_set.size() == g.n());
  for (Vertex u = 0; u < g.n(); ++u) {
    bool has_set_neighbor = false;
    for (Vertex v : g.neighbors(u)) {
      if (in_set[v]) {
        has_set_neighbor = true;
        if (in_set[u]) return false;  // independence violated
      }
    }
    if (!in_set[u] && !has_set_neighbor) return false;  // maximality violated
  }
  return true;
}

bool is_maximal_matching(GraphView g, std::span<const Edge> matching) {
  std::vector<bool> covered(g.n(), false);
  for (const auto& [u, v] : matching) {
    if (!g.has_edge(u, v)) return false;
    if (covered[u] || covered[v]) return false;  // not a matching
    covered[u] = covered[v] = true;
  }
  // Maximality: every edge has a covered endpoint.
  bool maximal = true;
  g.for_each_edge([&](Vertex u, Vertex v) {
    if (!covered[u] && !covered[v]) maximal = false;
  });
  return maximal;
}

bool is_proper_edge_coloring(GraphView g, std::span<const Color> edge_colors) {
  assert(edge_colors.size() == g.m());
  // For each vertex, the colors of incident edges must be pairwise distinct.
  // Edge i is the i-th edge in canonical (u < v) lexicographic order — the
  // order for_each_edge streams in.
  std::vector<std::vector<Color>> incident(g.n());
  std::size_t i = 0;
  g.for_each_edge([&](Vertex u, Vertex v) {
    incident[u].push_back(edge_colors[i]);
    incident[v].push_back(edge_colors[i]);
    ++i;
  });
  for (auto& cols : incident) {
    std::sort(cols.begin(), cols.end());
    if (std::adjacent_find(cols.begin(), cols.end()) != cols.end()) return false;
  }
  return true;
}

}  // namespace agc::graph
