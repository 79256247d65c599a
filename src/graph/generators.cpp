#include "agc/graph/generators.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <span>

#include "agc/graph/view.hpp"

namespace agc::graph {

// ---------------------------------------------------------------------------
// Rng: splitmix64 seeding + xorshift128+ stream.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  s_[0] = splitmix64(seed);
  s_[1] = splitmix64(seed);
  if (s_[0] == 0 && s_[1] == 0) s_[1] = 1;
}

std::uint64_t Rng::next() noexcept {
  std::uint64_t x = s_[0];
  const std::uint64_t y = s_[1];
  s_[0] = y;
  x ^= x << 23;
  s_[1] = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s_[1] + y;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias: reject r >= limit = 2^64 - 1 -
  // (2^64 - 1) % bound.  Since limit >= 2^64 - bound, a draw below that
  // (-bound in u64) is accepted without the divide that computes limit.
  std::uint64_t r = next();
  if (r >= -bound) {
    const std::uint64_t limit = ~0ULL - (~0ULL % bound);
    while (r >= limit) r = next();
  }
  return r % bound;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------------
// Structured generators.
// ---------------------------------------------------------------------------

Graph path(std::size_t n) {
  Graph g(n);
  for (Vertex v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

Graph cycle(std::size_t n) {
  assert(n >= 3);
  Graph g = path(n);
  g.add_edge(static_cast<Vertex>(n - 1), 0);
  return g;
}

Graph star(std::size_t n) {
  Graph g(n);
  for (Vertex v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph complete(std::size_t n) {
  Graph g(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

Graph complete_bipartite(std::size_t a, std::size_t b) {
  Graph g(a + b);
  for (Vertex u = 0; u < a; ++u) {
    for (Vertex v = 0; v < b; ++v) g.add_edge(u, static_cast<Vertex>(a + v));
  }
  return g;
}

Graph grid(std::size_t rows, std::size_t cols) {
  Graph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<Vertex>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph binary_tree(std::size_t n) {
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (2 * i + 1 < n) g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(2 * i + 1));
    if (2 * i + 2 < n) g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(2 * i + 2));
  }
  return g;
}

// ---------------------------------------------------------------------------
// Random generators.
// ---------------------------------------------------------------------------

namespace {

/// The G(n, p) edge stream (geometric skipping, Batagelj-Brandes), factored
/// out so the frozen CSR builder can replay the identical stream twice
/// (count pass, fill pass).  Emits (v, w) with w < v, v ascending, w
/// ascending within each v — which keeps CSR neighbor lists sorted with no
/// post-pass (see stream_to_csr).  Callers handle p >= 1 and n < 2.
template <typename Emit>
void gnp_stream(std::size_t n, double p, std::uint64_t seed, Emit&& emit) {
  if (p <= 0.0 || n < 2) return;
  Rng rng(seed);
  const double logq = std::log(1.0 - p);
  std::int64_t v = 1;
  std::int64_t w = -1;
  const auto nn = static_cast<std::int64_t>(n);
  while (v < nn) {
    const double r = rng.uniform();
    w += 1 + static_cast<std::int64_t>(std::floor(std::log(1.0 - r) / logq));
    while (w >= v && v < nn) {
      w -= v;
      ++v;
    }
    if (v < nn) emit(static_cast<Vertex>(v), static_cast<Vertex>(w));
  }
}

/// The Chung-Lu power-law edge stream (Miller-Hagberg skip sampling over the
/// monotone-decreasing weight sequence w_v ∝ (v+1)^(-1/(gamma-1)), scaled to
/// mean avg_deg).  The RNG is re-seeded per 4096-source chunk, so each chunk
/// of the stream depends only on (seed, chunk index) — replayable piecewise.
/// Emits (u, v) with u < v, u ascending, v ascending within each u.
constexpr std::size_t kPowerlawChunk = std::size_t{1} << 12;

template <typename Emit>
void chung_lu_stream(std::size_t n, double gamma, double avg_deg,
                     std::uint64_t seed, Emit&& emit) {
  if (n < 2 || avg_deg <= 0.0 || gamma <= 1.0) return;
  const double alpha = 1.0 / (gamma - 1.0);
  std::vector<double> weight(n);
  double sum = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    weight[v] = std::pow(static_cast<double>(v + 1), -alpha);
    sum += weight[v];
  }
  const double scale = avg_deg * static_cast<double>(n) / sum;
  for (double& x : weight) x *= scale;
  const double total = avg_deg * static_cast<double>(n);  // = sum of weights

  Rng rng(seed);
  for (std::size_t u = 0; u + 1 < n; ++u) {
    if (u % kPowerlawChunk == 0) {
      rng = Rng(seed ^ (0x9E3779B97F4A7C15ULL * (u / kPowerlawChunk + 1)));
    }
    std::size_t v = u + 1;
    double p = std::min(1.0, weight[u] * weight[v] / total);
    while (v < n && p > 0.0) {
      if (p < 1.0) {
        const double r = rng.uniform();
        v += static_cast<std::size_t>(
            std::floor(std::log(1.0 - r) / std::log(1.0 - p)));
      }
      if (v >= n) break;
      // Weights decrease with v, so p bounds the true probability q from
      // above; accept the skipped-to candidate with probability q / p.
      const double q = std::min(1.0, weight[u] * weight[v] / total);
      if (rng.uniform() < q / p) {
        emit(static_cast<Vertex>(u), static_cast<Vertex>(v));
      }
      p = q;
      ++v;
    }
  }
}

/// How many emissions a scattered CSR write trails its edge by.
constexpr std::size_t kDefer = 32;

/// One replay of stream_to_csr.  claim(v) takes row v's next slot and put()
/// fills it; row(v) is what a claim of v reads first.  Counting claims a
/// slot by bumping v's degree and puts nothing.
struct CountPass {
  std::vector<std::uint64_t>& offsets;
  [[nodiscard]] const void* row(Vertex v) const { return &offsets[v + 1]; }
  std::uint64_t* claim(Vertex v) { return &++offsets[v + 1]; }
  static void put(std::uint64_t*, Vertex) {}
};

struct FillPass {
  std::vector<std::uint64_t>& cursor;
  std::vector<Vertex>& targets;
  [[nodiscard]] const void* row(Vertex v) const { return &cursor[v]; }
  Vertex* claim(Vertex v) { return &targets[cursor[v]++]; }
  static void put(Vertex* slot, Vertex value) { *slot = value; }
};

/// Replay `stream` through `pass`: each emitted edge (a, b) claims and fills
/// its slot in row a at once, and its slot in row b in two deferred steps —
/// the claim kDefer/2 emissions later and the put kDefer emissions later,
/// each after a prefetch of what it touches.  The source a runs in
/// ascending blocks, so row a is walked in order, while row b lands anywhere
/// in arrays far larger than the cache; the deferral lets those misses
/// overlap the next emissions.
///
/// Deferred claims keep their emission order, so every row's slots are
/// claimed in emission order and its neighbors stay sorted: gnp emits
/// b < a, so every deferred claim on row b follows b's own block; the
/// power-law stream emits b > a, so deferred claims on row b precede b's own
/// block, and the queue is drained before a block's claims could overtake
/// one (once a reaches the smallest queued b above its source).
template <typename Stream, typename Pass>
void replay_deferred(Stream&& stream, Pass& pass) {
  using Slot = decltype(pass.claim(0));
  struct Pending {
    Vertex row;
    Vertex value;
    Slot slot;
  };
  std::array<Pending, kDefer> queue;  // a ring
  std::size_t pushed = 0;
  std::size_t claimed = 0;
  std::size_t put = 0;
  Vertex ahead = ~Vertex{0};  // <= every queued row whose block is to come
  const auto claim_next = [&] {
    Pending& p = queue[claimed++ % kDefer];
    p.slot = pass.claim(p.row);
    __builtin_prefetch(p.slot, 1);
  };
  const auto put_next = [&] {
    const Pending& p = queue[put++ % kDefer];
    pass.put(p.slot, p.value);
  };
  const auto drain = [&] {
    while (claimed < pushed) claim_next();
    while (put < pushed) put_next();
  };
  stream([&](Vertex a, Vertex b) {
    if (a >= ahead) {
      drain();
      ahead = ~Vertex{0};
    }
    pass.put(pass.claim(a), b);
    __builtin_prefetch(pass.row(b), 1);
    if (pushed - claimed == kDefer / 2) claim_next();
    if (pushed - put == kDefer) put_next();
    queue[pushed++ % kDefer] = {b, a, Slot{}};
    if (b > a) ahead = std::min(ahead, b);
  });
  drain();
}

/// Replay `stream` twice — once to count degrees, once to fill — writing the
/// emitted undirected edges straight into a frozen CSR.  Both generators
/// above emit each vertex's neighbors in ascending order (smaller endpoints
/// during its own source block, larger ones as later blocks reach it), and
/// replay_deferred keeps each row's order, so the filled target ranges are
/// already sorted.
template <typename Stream>
FrozenGraph stream_to_csr(std::size_t n, Stream&& stream) {
  std::vector<std::uint64_t> offsets(n + 1, 0);
  CountPass count{offsets};
  replay_deferred(stream, count);
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<Vertex> targets(offsets[n]);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  FillPass fill{cursor, targets};
  replay_deferred(stream, fill);
  return FrozenGraph::from_csr(std::move(offsets), std::move(targets));
}

/// The simple graph a pairing builds so far, as one flat n x d block: row v
/// holds v's partners in pairing order.  Every vertex owns exactly d stubs,
/// so no row outgrows d and a duplicate check scans at most d entries.
class Pairing {
 public:
  Pairing(std::size_t n, std::size_t d) : d_(d), partners_(n * d), size_(n) {}

  /// Forget every pair, touching only the rows that hold one.
  void clear() {
    for (const auto& [u, v] : edges_) size_[u] = size_[v] = 0;
    edges_.clear();
  }

  /// Pairs u with v; false (and nothing recorded) for a loop or a duplicate,
  /// exactly when Graph::add_edge would refuse the edge.
  bool add(Vertex u, Vertex v) {
    if (u == v) return false;
    Vertex* const row_u = partners_.data() + u * d_;
    if (std::find(row_u, row_u + size_[u], v) != row_u + size_[u]) return false;
    row_u[size_[u]++] = v;
    partners_[v * d_ + size_[v]++] = u;
    edges_.push_back({u, v});
    return true;
  }

  /// Every pair added since the last clear(), in insertion order.
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

 private:
  std::size_t d_;
  std::vector<Vertex> partners_;
  std::vector<std::uint32_t> size_;
  std::vector<Edge> edges_;
};

}  // namespace

Graph random_gnp(std::size_t n, double p, std::uint64_t seed) {
  if (p >= 1.0 && n >= 2) return complete(n);
  Graph g(n);
  // Every row starts with room for the expected degree, so most rows never
  // regrow, and the stream emits each row in ascending order, so every
  // add_edge appends.  Exact sizes would cost more: a counting replay costs
  // time, and an O(m) edge buffer or slack-free rows raise a churning
  // service's peak memory (EXPERIMENTS.md M1i).
  if (p > 0.0 && n >= 2) {  // then p < 1, so room <= n - 1
    const auto room = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n - 1)));
    for (Vertex v = 0; v < n; ++v) g.reserve(v, room);
  }
  gnp_stream(n, p, seed, [&](Vertex v, Vertex w) { g.add_edge(v, w); });
  return g;
}

Graph random_powerlaw(std::size_t n, double gamma, double avg_deg,
                      std::uint64_t seed) {
  Graph g(n);
  chung_lu_stream(n, gamma, avg_deg, seed,
                  [&](Vertex u, Vertex v) { g.add_edge(u, v); });
  return g;
}

FrozenGraph stream_gnp_frozen(std::size_t n, double p, std::uint64_t seed) {
  if (p >= 1.0 && n >= 2) return FrozenGraph::from_graph(complete(n));
  return stream_to_csr(n, [&](auto&& emit) { gnp_stream(n, p, seed, emit); });
}

FrozenGraph stream_powerlaw_frozen(std::size_t n, double gamma, double avg_deg,
                                   std::uint64_t seed) {
  return stream_to_csr(
      n, [&](auto&& emit) { chung_lu_stream(n, gamma, avg_deg, seed, emit); });
}

Graph random_regular(std::size_t n, std::size_t d, std::uint64_t seed) {
  assert(d < n);
  assert((n * d) % 2 == 0);
  Rng rng(seed);
  // Pairing model: d stubs per vertex, shuffle, pair consecutive stubs.
  // Bad pairs (loops / duplicates) are retried a bounded number of times.
  std::vector<Vertex> stubs;
  stubs.reserve(n * d);
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t k = 0; k < d; ++k) stubs.push_back(v);
  }
  const auto shuffle = [&] {  // Fisher-Yates
    for (std::size_t i = stubs.size(); i > 1; --i) {
      std::swap(stubs[i - 1], stubs[rng.below(i)]);
    }
  };
  Pairing pairing(n, d);
  for (int attempt = 0; attempt < 64; ++attempt) {
    shuffle();
    pairing.clear();
    bool clean = true;
    for (std::size_t i = 0; i + 1 < stubs.size() && clean; i += 2) {
      clean = pairing.add(stubs[i], stubs[i + 1]);
    }
    if (clean) return Graph::from_edges(n, pairing.edges());
  }
  // Repair fallback: greedy matching of remaining stubs, skipping bad pairs.
  shuffle();
  pairing.clear();
  std::vector<Vertex> pending;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    if (!pairing.add(stubs[i], stubs[i + 1])) {
      pending.push_back(stubs[i]);
      pending.push_back(stubs[i + 1]);
    }
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    for (std::size_t j = i + 1; j < pending.size(); ++j) {
      if (pairing.add(pending[i], pending[j])) {
        std::swap(pending[j], pending[i + 1]);
        ++i;
        break;
      }
    }
  }
  return Graph::from_edges(n, pairing.edges());
}

Graph random_bounded_degree(std::size_t n, std::size_t dmax, std::size_t target_m,
                            std::uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  if (n < 2) return g;
  std::size_t attempts = 0;
  const std::size_t max_attempts = target_m * 20 + 100;
  while (g.m() < target_m && attempts < max_attempts) {
    ++attempts;
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto v = static_cast<Vertex>(rng.below(n));
    if (u == v) continue;
    if (g.degree(u) >= dmax || g.degree(v) >= dmax) continue;
    g.add_edge(u, v);
  }
  return g;
}

Graph random_geometric(std::size_t n, double radius, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<double, double>> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform()};
  Graph g(n);
  const double r2 = radius * radius;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const double dx = pts[u].first - pts[v].first;
      const double dy = pts[u].second - pts[v].second;
      if (dx * dx + dy * dy <= r2) g.add_edge(u, v);
    }
  }
  return g;
}

Graph barabasi_albert(std::size_t n, std::size_t attach, std::uint64_t seed) {
  assert(attach >= 1 && n > attach);
  Rng rng(seed);
  Graph g(n);
  // Seed clique on attach+1 vertices.
  for (Vertex u = 0; u <= attach; ++u) {
    for (Vertex v = u + 1; v <= attach; ++v) g.add_edge(u, v);
  }
  // Degree-proportional sampling via the repeated-endpoints list.
  std::vector<Vertex> endpoints;
  GraphView(g).for_each_edge([&](Vertex u, Vertex v) {
    endpoints.push_back(u);
    endpoints.push_back(v);
  });
  for (Vertex v = static_cast<Vertex>(attach + 1); v < n; ++v) {
    std::size_t added = 0;
    std::size_t guard = 0;
    while (added < attach && guard < 50 * attach + 100) {
      ++guard;
      const Vertex target = endpoints[rng.below(endpoints.size())];
      if (g.add_edge(v, target)) {
        endpoints.push_back(v);
        endpoints.push_back(target);
        ++added;
      }
    }
  }
  return g;
}

Graph hypercube(std::size_t d) {
  const std::size_t n = std::size_t{1} << d;
  Graph g(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t bit = 0; bit < d; ++bit) {
      const std::size_t u = v ^ (std::size_t{1} << bit);
      if (u > v) g.add_edge(static_cast<Vertex>(v), static_cast<Vertex>(u));
    }
  }
  return g;
}

Graph complete_multipartite(std::size_t k, std::size_t part) {
  Graph g(k * part);
  for (std::size_t pa = 0; pa < k; ++pa) {
    for (std::size_t pb = pa + 1; pb < k; ++pb) {
      for (std::size_t i = 0; i < part; ++i) {
        for (std::size_t j = 0; j < part; ++j) {
          g.add_edge(static_cast<Vertex>(pa * part + i),
                     static_cast<Vertex>(pb * part + j));
        }
      }
    }
  }
  return g;
}

Graph caterpillar(std::size_t spine, std::size_t legs) {
  Graph g(spine * (legs + 1));
  for (std::size_t i = 0; i + 1 < spine; ++i) {
    g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(i + 1));
  }
  for (std::size_t i = 0; i < spine; ++i) {
    for (std::size_t l = 0; l < legs; ++l) {
      g.add_edge(static_cast<Vertex>(i),
                 static_cast<Vertex>(spine + i * legs + l));
    }
  }
  return g;
}

Graph cycle_blowup(std::size_t len, std::size_t blow) {
  assert(len >= 3);
  Graph g(len * blow);
  for (std::size_t pos = 0; pos < len; ++pos) {
    const std::size_t next = (pos + 1) % len;
    for (std::size_t i = 0; i < blow; ++i) {
      for (std::size_t j = 0; j < blow; ++j) {
        g.add_edge(static_cast<Vertex>(pos * blow + i),
                   static_cast<Vertex>(next * blow + j));
      }
    }
  }
  return g;
}

}  // namespace agc::graph
