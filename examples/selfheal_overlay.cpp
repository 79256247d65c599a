// A self-healing peer-to-peer overlay (Section 4): peers crash, reconnect,
// and suffer memory corruption, yet the network continuously re-converges to
// a proper (Delta+1)-coloring and an MIS of cluster heads — with
// stabilization time independent of n and no coordination after deployment.
//
// Timeline:  epoch = (adversary event burst) -> (rounds until quiescent).
//
//   $ ./selfheal_overlay [n] [dmax] [epochs] [seed]

#include <cstdio>
#include <cstdlib>

#include "agc/graph/checks.hpp"
#include "agc/graph/generators.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/selfstab/ss_mis.hpp"
#include "agc/selfstab/stabilization.hpp"

int main(int argc, char** argv) {
  using namespace agc;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300;
  const std::size_t dmax = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 12;
  const int epochs = argc > 3 ? std::atoi(argv[3]) : 6;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 11;

  graph::Graph overlay = graph::random_bounded_degree(n, dmax, 3 * n, seed);
  std::printf("overlay: %zu peers, %zu links, degree cap %zu\n", overlay.n(),
              overlay.m(), dmax);

  // ROM: every peer knows only n, the degree cap, and its own ID.  RAM (one
  // color word + one MIS status word) is fair game for the adversary.
  selfstab::SsConfig cfg(n, dmax, selfstab::PaletteMode::ExactDeltaPlusOne);
  runtime::EngineOptions eo;
  eo.delta_bound = dmax;
  runtime::Engine engine(std::move(overlay),
                         runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_mis_factory(cfg));

  selfstab::StabilizationSpec spec = selfstab::mis_spec(cfg);
  spec.recovery_budget = 100000;
  runtime::Adversary adversary(seed * 31);
  std::printf("\n%-6s %-34s %-12s %-14s\n", "epoch", "adversary burst",
              "stab rounds", "cluster heads");

  for (int epoch = 0; epoch <= epochs; ++epoch) {
    if (epoch > 0) {
      switch (epoch % 3) {
        case 1:  // memory corruption storm
          adversary.corrupt_random(engine, n / 5, cfg.span(), 0);
          adversary.corrupt_random(engine, n / 5, 4, 1);
          break;
        case 2:  // link churn
          adversary.churn_edges(engine, n / 8, n / 8, dmax);
          break;
        case 0:  // peer crash/rejoin
          adversary.churn_vertices(engine, n / 20, 4, dmax);
          break;
      }
    }
    const std::uint64_t start = engine.rounds();
    const auto rep = selfstab::run_stabilization(engine, {}, spec);
    if (!rep.recovered) {
      std::printf("epoch %d FAILED to stabilize\n", epoch);
      return 1;
    }
    std::size_t heads = 0;
    for (bool b : selfstab::current_mis(engine)) heads += b;
    const char* burst = epoch == 0            ? "(cold start)"
                        : epoch % 3 == 1      ? "RAM corruption: 40% of peers"
                        : epoch % 3 == 2      ? "link churn: add+drop n/8 links"
                                              : "crash/rejoin: n/20 peers";
    std::printf("%-6d %-34s %-12llu %-14zu\n", epoch, burst,
                static_cast<unsigned long long>(rep.first_legal_round - start), heads);
  }

  const auto colors = selfstab::current_colors(engine);
  std::printf("\nfinal state: proper=%s, palette <= Delta+1=%zu, "
              "MIS valid=%s\n",
              graph::is_proper_coloring(engine.graph(), colors) ? "yes" : "no",
              dmax + 1,
              graph::is_mis(engine.graph(), selfstab::current_mis(engine))
                  ? "yes"
                  : "no");
  return 0;
}
