// Experiments E2/E3/E4 — self-stabilization (Section 4):
//   Theorem 4.3: (Delta+1)-coloring stabilizes in O(Delta + log* n) rounds
//     after the last fault, with adjustment radius 1.
//   Theorem 4.5/4.6: MIS stabilizes in O(Delta + log* n), adjustment radius 2.
//   Theorem 4.7: maximal matching and (2Delta-1)-edge-coloring via the
//     line-graph simulation, same stabilization bound.
//
// The shape to check: stabilization time is flat in the number of
// simultaneous faults (worst-case over batches), linear-ish in Delta, and
// recoloring stays inside the 1-hop neighborhood of faults.

#include <cstdio>
#include <optional>

#include "agc/graph/checks.hpp"
#include "agc/graph/generators.hpp"
#include "agc/graph/spec.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/sched/campaign.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/ss_mis.hpp"
#include "agc/selfstab/stabilization.hpp"
#include "bench_util.hpp"

using namespace agc;
using selfstab::PaletteMode;
using selfstab::SsConfig;

namespace {

/// Execution backend from --threads/AGC_THREADS (null = sequential engine).
std::shared_ptr<runtime::RoundExecutor> g_exec;

runtime::Engine make_engine(graph::GraphView g, std::size_t delta_bound) {
  runtime::EngineOptions opts;
  opts.delta_bound = delta_bound;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), opts);
  engine.set_executor(g_exec);
  return engine;
}

/// Settle `engine` fault-free from its current state through the one
/// stabilization runner, giving up after `cap` rounds without a legal one:
/// the rounds to its first legal round, or nullopt when it never stabilized.
std::optional<std::uint64_t> settle(runtime::Engine& engine,
                                    selfstab::StabilizationSpec spec, std::size_t cap) {
  spec.recovery_budget = cap;
  const std::uint64_t start = engine.rounds();
  const auto out = selfstab::run_stabilization(engine, {}, spec);
  if (!out.recovered) return std::nullopt;
  return out.first_legal_round - start;
}

void fault_batch_sweep() {
  std::printf("-- E2a: coloring stabilization vs simultaneous fault count "
              "(Delta=10, n=600) --\n\n");
  benchutil::Table t({"faults", "stab rounds (ODelta)", "stab rounds (exact)",
                      "stabilized"});
  const std::size_t dmax = 10;
  const auto g = graph::random_bounded_degree(600, dmax, 2200, 42);
  for (std::size_t k : {1, 4, 16, 64, 256}) {
    std::size_t rounds[2] = {0, 0};
    bool ok = true;
    int idx = 0;
    for (PaletteMode mode : {PaletteMode::ODelta, PaletteMode::ExactDeltaPlusOne}) {
      SsConfig cfg(g.n(), dmax, mode);
      const auto spec = selfstab::coloring_spec(cfg);
      auto engine = make_engine(g, dmax);
      engine.install(selfstab::ss_coloring_factory(cfg));
      const bool settled = settle(engine, spec, 20000).has_value();
      runtime::Adversary adv(1000 + k);
      adv.corrupt_random(engine, k, cfg.span());
      adv.clone_neighbor(engine, k / 2 + 1);
      const auto rep = settle(engine, spec, 20000);
      ok = ok && settled && rep.has_value();
      rounds[idx++] = rep.value_or(0);
    }
    t.add_row({benchutil::num(std::uint64_t{k}), benchutil::num(std::uint64_t{rounds[0]}),
               benchutil::num(std::uint64_t{rounds[1]}), ok ? "yes" : "NO"});
  }
  t.print();
}

void delta_sweep() {
  std::printf("-- E2b: stabilization vs Delta (64 faults, n=600) --\n\n");
  benchutil::Table t({"Delta", "coloring", "MIS", "stabilized"});
  for (std::size_t delta : {4, 8, 16, 32}) {
    const auto rg = benchutil::resolve_graph(benchutil::regular_spec(600, delta, 7 * delta));
    const graph::GraphView g = rg.view();
    bool ok = true;

    SsConfig cfg(g.n(), delta, PaletteMode::ODelta);
    auto engine = make_engine(g, delta);
    engine.install(selfstab::ss_coloring_factory(cfg));
    const auto color_spec = selfstab::coloring_spec(cfg);
    ok &= settle(engine, color_spec, 40000).has_value();
    runtime::Adversary adv(delta);
    adv.corrupt_random(engine, 64, cfg.span());
    const auto col = settle(engine, color_spec, 40000);
    ok &= col.has_value();

    auto engine2 = make_engine(g, delta);
    engine2.install(selfstab::ss_mis_factory(cfg));
    const auto mis_spec = selfstab::mis_spec(cfg);
    ok &= settle(engine2, mis_spec, 40000).has_value();
    runtime::Adversary adv2(delta + 1);
    adv2.corrupt_random(engine2, 64, cfg.span(), 0);
    adv2.corrupt_random(engine2, 64, 4, 1);
    const auto mis = settle(engine2, mis_spec, 40000);
    ok &= mis.has_value();

    t.add_row({benchutil::num(std::uint64_t{delta}), benchutil::num(col.value_or(0)),
               benchutil::num(mis.value_or(0)), ok ? "yes" : "NO"});
  }
  t.print();
}

void adjustment_radius() {
  std::printf("-- E2c/E3: adjustment radius — recolored vertices by distance "
              "from the single fault --\n\n");
  benchutil::Table t({"trial", "changed d=0", "d=1", "d=2", "d>2 (must be 0)"});
  const auto rg = benchutil::resolve_graph(benchutil::regular_spec(400, 8, 9));
  const graph::GraphView g = rg.view();
  SsConfig cfg(g.n(), 8, PaletteMode::ODelta);
  const auto spec = selfstab::coloring_spec(cfg);
  for (int trial = 0; trial < 4; ++trial) {
    auto engine = make_engine(g, 8);
    engine.install(selfstab::ss_coloring_factory(cfg));
    (void)settle(engine, spec, 20000);
    const auto before = selfstab::current_colors(engine);
    const auto victim = static_cast<graph::Vertex>(37 * (trial + 1));
    engine.corrupt_ram(victim, 0, before[g.neighbors(victim)[0]]);
    (void)settle(engine, spec, 20000);
    const auto after = selfstab::current_colors(engine);

    // BFS distances from the victim.
    std::vector<int> dist(g.n(), -1);
    std::vector<graph::Vertex> queue{victim};
    dist[victim] = 0;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      for (graph::Vertex u : g.neighbors(queue[h])) {
        if (dist[u] < 0) {
          dist[u] = dist[queue[h]] + 1;
          queue.push_back(u);
        }
      }
    }
    std::size_t byd[4] = {0, 0, 0, 0};
    for (graph::Vertex v = 0; v < g.n(); ++v) {
      if (after[v] != before[v]) {
        ++byd[dist[v] <= 2 ? dist[v] : 3];
      }
    }
    t.add_row({benchutil::num(std::uint64_t(trial)), benchutil::num(std::uint64_t{byd[0]}),
               benchutil::num(std::uint64_t{byd[1]}), benchutil::num(std::uint64_t{byd[2]}),
               benchutil::num(std::uint64_t{byd[3]})});
  }
  t.print();
}

void line_graph_tasks() {
  std::printf("-- E4: line-graph simulation — MM and (2Delta-1)-edge-coloring "
              "stabilization (engine rounds; 2 per algorithm round) --\n\n");
  benchutil::Table t({"Delta", "edge-coloring", "palette", "matching",
                      "stabilized"});
  for (std::size_t delta : {3, 5, 8}) {
    const auto rg = benchutil::resolve_graph(benchutil::regular_spec(200, delta, 3 * delta));
    const graph::GraphView g = rg.view();
    bool ok = true;

    selfstab::SsLineConfig ec(g.n(), delta, selfstab::LineTask::EdgeColoring);
    auto e1 = make_engine(g, delta);
    e1.install(selfstab::ss_line_factory(ec));
    const auto r1 = settle(e1, selfstab::line_spec(ec), 60000);
    ok &= r1.has_value();
    const auto palette = graph::palette_size(selfstab::current_edge_colors(e1));

    selfstab::SsLineConfig mm(g.n(), delta, selfstab::LineTask::MaximalMatching);
    auto e2 = make_engine(g, delta);
    e2.install(selfstab::ss_line_factory(mm));
    const auto r2 = settle(e2, selfstab::line_spec(mm), 60000);
    ok &= r2.has_value();

    t.add_row({benchutil::num(std::uint64_t{delta}), benchutil::num(r1.value_or(0)),
               benchutil::num(std::uint64_t{palette}), benchutil::num(r2.value_or(0)),
               ok ? "yes" : "NO"});
  }
  t.print();
}

double value_of(const sched::JobResult& r, const std::string& key) {
  for (const auto& [k, v] : r.values) {
    if (k == key) return v;
  }
  return 0.0;
}

/// The EXPERIMENTS.md stabilization sweep as a scheduler campaign: one
/// ss-color job per (Delta, n) cell under a seeded lossy channel plus the
/// periodic RAM/clone adversary, executed by run_campaign with watchdog
/// retries.  The aggregate is scheduling-independent (bit-identical JSONL
/// for any worker count), so the table below is reproducible byte for byte.
void stabilization_campaign(std::size_t threads) {
  std::printf("-- E2d: Delta x n stabilization sweep as a campaign "
              "(ss-color, 2%% channel drop + periodic RAM faults, "
              "%zu workers) --\n\n", threads);
  sched::Campaign c;
  for (const std::size_t n : {300, 600}) {
    for (const std::size_t delta : {4, 8, 16}) {
      sched::JobSpec job;
      job.algorithm = "ss-color";
      job.graph = graph::GraphSpec::parse(
          "regular:n=" + std::to_string(n) + ",d=" + std::to_string(delta) +
          ",seed=" + std::to_string(7 * delta + n));
      job.seed = delta + n;
      job.faults.channel.drop_per_million = 20'000;
      job.faults.channel.first_round = 1;
      job.faults.channel.last_round = 24;
      job.faults.periodic = {.period = 6,
                             .last_round = 24,
                             .corrupt = 2,
                             .clones = 1,
                             .dmax = delta + 2};
      job.faults.recovery_budget = 20'000;
      c.add(std::move(job));
    }
  }

  sched::ScheduleOptions so;
  so.threads = threads;
  so.max_attempts = 2;  // one watchdog retry with a re-rolled fault seed
  const auto report = sched::run_campaign(c, so);

  benchutil::Table t({"n", "Delta", "recovery rounds", "adjusted", "faults",
                      "attempts", "stabilized"});
  for (const auto& job : report.jobs) {
    const auto spec = graph::GraphSpec::parse(job.graph);
    t.add_row({benchutil::num(std::uint64_t{spec.num("n")}),
               benchutil::num(std::uint64_t{spec.num("d")}),
               benchutil::num(std::uint64_t(value_of(job, "recovery_rounds"))),
               benchutil::num(std::uint64_t(value_of(job, "adjusted"))),
               benchutil::num(std::uint64_t{job.fault_events}),
               benchutil::num(std::uint64_t{job.attempts}),
               job.ok ? "yes" : "NO"});
  }
  t.print();
  std::printf("E2d campaign: %zu jobs, %zu graph builds, %zu cache hits, "
              "%zu retries, all ok: %s\n\n",
              report.jobs.size(), report.cache_misses, report.cache_hits,
              report.retries, report.all_ok() ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = benchutil::parse_options(argc, argv);
  g_exec = opts.executor();
  if (!opts.json_path.empty()) {
    std::fprintf(stderr, "note: --json is emitted by bench_table1 only\n");
  }
  std::printf("== E2/E3/E4: fully-dynamic self-stabilization (Section 4, "
              "threads=%zu) ==\n\n", opts.threads);
  fault_batch_sweep();
  delta_sweep();
  adjustment_radius();
  line_graph_tasks();
  stabilization_campaign(opts.threads);
  return 0;
}
