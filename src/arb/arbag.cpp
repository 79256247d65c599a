#include "agc/arb/arbag.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "agc/math/primes.hpp"

namespace agc::arb {

Color ArbAgRule::step(runtime::StepContext, Color own,
                      std::span<Color> neighbors) const {
  const std::uint64_t qq = q_ * q_;
  const std::uint64_t psi = own / qq;
  const std::uint64_t a = (own % qq) / q_;
  const std::uint64_t b = own % q_;
  if (a == 0) return own;  // frozen (<0,b> is the final form)
  // Tolerant finalize rule: freeze unless MORE than p neighbors of a
  // different seed color share the second coordinate.
  std::size_t conflicts = 0;
  for (Color nc : neighbors) {
    if (nc / qq != psi && nc % q_ == b) ++conflicts;
  }
  if (conflicts <= p_) return pack(psi, 0, b, q_);
  return pack(psi, a, (b + a) % q_, q_);
}

ArbdefectiveResult arbdefective_color(graph::GraphView g, std::size_t p,
                                      std::uint64_t id_space,
                                      const runtime::RunOptions& opts) {
  ArbdefectiveResult result;
  const std::size_t n = g.n();
  const std::size_t delta = std::max<std::size_t>(g.max_degree(), 1);
  p = std::max<std::size_t>(p, 1);

  // Seed: p-defective O((Delta/p)^2)-coloring psi.
  const DefectiveResult seed = defective_color(g, p, id_space);
  result.seed_rounds = seed.rounds;
  result.seed_defect = seed.max_defect;

  // q = Theta(Delta/p): prime exceeding both the round window 2*ceil(D/p)+1
  // and sqrt(seed palette) so every psi-color splits into a pair <a,b>.
  const std::uint64_t window = 2 * ((delta + p - 1) / p) + 1;
  result.window = window;
  const auto sqrt_pal = static_cast<std::uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(seed.palette_bound))));
  const std::uint64_t q =
      math::next_prime(std::max<std::uint64_t>(window + 1, sqrt_pal));
  result.num_classes = q;

  // Pack the seed into ArbAG states; vertices born with a == 0 are frozen
  // from the start.  (Two different psi-colors with a == 0 differ in b, so a
  // born-frozen vertex's monochromatic out-degree is bounded by the seed
  // defect alone.)
  const ArbAgRule rule(q, p);
  std::vector<Color> init(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    const std::uint64_t a = seed.colors[v] / q;
    const std::uint64_t b = seed.colors[v] % q;
    init[v] = ArbAgRule::pack(seed.colors[v], a, b, q);
  }

  // Run on the engine (SET-LOCAL: the rule reads only the color multiset),
  // recording each vertex's freeze round for the Lemma 6.2 orientation.
  result.finalize_round.assign(n, 0);
  runtime::IterativeOptions io(opts);
  io.check_proper_each_round = false;  // ArbAG maintains arbdefective colorings
  io.max_rounds = window;              // the Lemma 6.1 bound, not a user cap
  io.on_round = [&](std::size_t round, std::span<const Color> colors) {
    if (round == 0) return;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (result.finalize_round[v] == 0 && rule.is_final(colors[v])) {
        result.finalize_round[v] = round;
      }
    }
  };
  auto run = runtime::run_locally_iterative(g, std::move(init), rule, io);
  static_cast<runtime::RunReport&>(result) = run;
  result.rounds = run.rounds + result.seed_rounds;
  result.classes.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    result.classes[v] = rule.class_of(run.colors[v]);
  }
  return result;
}

graph::Orientation arb_orientation(graph::GraphView g,
                                   const ArbdefectiveResult& arb) {
  graph::Orientation o;
  o.edges = graph::edge_list(g);
  o.toward_second.resize(o.edges.size());
  auto key = [&](graph::Vertex v) {
    return std::pair{arb.finalize_round[v], v};
  };
  for (std::size_t i = 0; i < o.edges.size(); ++i) {
    const auto& [u, v] = o.edges[i];
    // Tail = later freezer; head = earlier freezer (Lemma 6.2).
    o.toward_second[i] = key(v) < key(u);
  }
  return o;
}

std::size_t measured_arbdefect(graph::GraphView g,
                               const ArbdefectiveResult& arb) {
  const auto o = arb_orientation(g, arb);
  std::vector<std::size_t> out(g.n(), 0);
  for (std::size_t i = 0; i < o.edges.size(); ++i) {
    const auto& [u, v] = o.edges[i];
    if (arb.classes[u] != arb.classes[v]) continue;  // only class edges count
    ++out[o.toward_second[i] ? u : v];
  }
  return out.empty() ? 0 : *std::max_element(out.begin(), out.end());
}

}  // namespace agc::arb
