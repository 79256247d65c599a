// agc-faultplan: the fault-plan toolbox the fault-fuzz CI jobs drive.
//
//   agc-faultplan dump   plan.jsonl
//       Print the plan as a table plus per-kind counts.
//   agc-faultplan diff   a.jsonl b.jsonl
//       Compare two plans event-by-event; exit 1 on the first divergence.
//   agc-faultplan shrink plan.jsonl out.jsonl --graph <spec> [--predicate
//       breaks|unstable] [--budget N] [--max-probes N]
//       ddmin the plan down to a 1-minimal reproducer of the chosen failure
//       predicate (replayed on the self-stabilizing coloring over --graph).
//   agc-faultplan fuzz --graph <spec> --seed S [--rounds N] [--budget N]
//       [--drop P] [--corrupt P] [--dup P] [--delay P] [--period K]
//       [--last-round R] [--ram-corrupt C] [--clones C] [--out plan.jsonl]
//       [--shrink]
//       plus the adversary-zoo knobs (docs/FAULTS.md):
//       [--out-lo V --out-hi V] [--flap-down P [--flap-up P]]
//       [--byz-liars P [--byz-rate P]]
//       [--adapt-count K [--adapt-period N] [--adapt-target degree|recent]]
//       [--churn-events N [--churn-grow N] [--churn-resets P]]
//       One seeded campaign run of ss_coloring under the channel adversary +
//       periodic RAM/topology adversary + any enabled zoo adversaries,
//       recording every injected fault.  Exit 0 when the run restabilizes;
//       exit 1 (after writing --out, shrunk when --shrink is given) when it
//       does not — CI uploads the plan.
//
// Probabilities P are per-edge-per-round, finite decimals in [0,1] stored as
// the nearest value on the adversaries' per-million grid.  Zoo windows
// default to [1, --last-round] like the channel adversary's.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "agc/exec/executor.hpp"
#include "agc/faultlab/channel.hpp"
#include "agc/faultlab/harness.hpp"
#include "agc/faultlab/plan.hpp"
#include "agc/faultlab/shrink.hpp"
#include "agc/faultlab/zoo.hpp"
#include "agc/graph/spec.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/hooked_rounds.hpp"
#include "agc/selfstab/ss_coloring.hpp"

namespace {

using namespace agc;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: agc-faultplan <dump|diff|shrink|fuzz> [args] "
               "[--options]\nsee the header of tools/agc_faultplan.cpp for "
               "details\n");
  std::exit(2);
}

/// Fault plans inject topology churn into the replay engines, so this tool
/// is one of the two legitimate Mutable consumers of the spec helper
/// (docs/SCALE.md); everything read-only resolves to the frozen CSR instead.
graph::Graph make_graph(const std::string& spec) {
  try {
    auto rg = graph::GraphSpec::parse(spec).resolve(graph::Mutability::Mutable);
    return std::move(rg.graph());
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string get(const std::string& k, const std::string& dflt = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  /// A numeric flag, read strictly (graph::parse_u64); anything else is a
  /// usage error.
  std::uint64_t num(const std::string& k, std::uint64_t dflt) const {
    const auto it = kv.find(k);
    if (it == kv.end()) return dflt;
    const auto v = graph::parse_u64(it->second);
    if (!v) {
      usage(("--" + k + " needs an unsigned integer, got '" + it->second + "'").c_str());
    }
    return *v;
  }
  /// A probability flag in [0,1] on the per-million grid
  /// (faultlab::parse_per_million); anything else is a usage error.
  std::uint32_t ppm(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) return 0;
    const auto ppm = faultlab::parse_per_million(it->second);
    if (!ppm) {
      usage(("--" + k + " needs a probability in [0,1], got '" + it->second + "'")
                .c_str());
    }
    return *ppm;
  }
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      a.positional.push_back(key);
      continue;
    }
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key] = "1";
    }
  }
  return a;
}

int cmd_dump(const Args& a) {
  if (a.positional.size() != 1) usage("dump takes one plan file");
  const auto plan = faultlab::FaultPlan::load(a.positional[0]);
  std::map<std::string, std::size_t> counts;
  std::printf("%8s  %-12s %6s %6s %5s  %s\n", "round", "kind", "u", "v",
              "word", "value");
  for (const auto& ev : plan.events) {
    std::printf("%8llu  %-12s %6u %6u %5u  %llu\n",
                static_cast<unsigned long long>(ev.round),
                runtime::to_string(ev.kind), ev.u, ev.v, ev.word,
                static_cast<unsigned long long>(ev.value));
    ++counts[runtime::to_string(ev.kind)];
  }
  std::printf("-- %zu events", plan.size());
  for (const auto& [k, c] : counts) std::printf("  %s=%zu", k.c_str(), c);
  std::printf("\n");
  return 0;
}

int cmd_diff(const Args& a) {
  if (a.positional.size() != 2) usage("diff takes two plan files");
  const auto lhs = faultlab::FaultPlan::load(a.positional[0]);
  const auto rhs = faultlab::FaultPlan::load(a.positional[1]);
  const std::size_t common = std::min(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!(lhs.events[i] == rhs.events[i])) {
      std::printf("plans diverge at event %zu:\n  a: round=%llu kind=%s u=%u "
                  "v=%u word=%u value=%llu\n  b: round=%llu kind=%s u=%u v=%u "
                  "word=%u value=%llu\n",
                  i, static_cast<unsigned long long>(lhs.events[i].round),
                  runtime::to_string(lhs.events[i].kind), lhs.events[i].u,
                  lhs.events[i].v, lhs.events[i].word,
                  static_cast<unsigned long long>(lhs.events[i].value),
                  static_cast<unsigned long long>(rhs.events[i].round),
                  runtime::to_string(rhs.events[i].kind), rhs.events[i].u,
                  rhs.events[i].v, rhs.events[i].word,
                  static_cast<unsigned long long>(rhs.events[i].value));
      return 1;
    }
  }
  if (lhs.size() != rhs.size()) {
    std::printf("plans differ in length: %zu vs %zu events\n", lhs.size(),
                rhs.size());
    return 1;
  }
  std::printf("plans identical (%zu events)\n", lhs.size());
  return 0;
}

/// Replay `plan` on a fresh ss_coloring engine over `g`.
/// predicate "breaks":   true iff the coloring becomes illegal at any round.
/// predicate "unstable": true iff the run does not restabilize in `budget`.
bool replay_fails(const graph::Graph& g, const selfstab::SsConfig& cfg,
                  const faultlab::FaultPlan& plan, const std::string& predicate,
                  std::size_t budget) {
  runtime::EngineOptions eo;
  eo.delta_bound = g.max_degree() + 2;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.install(selfstab::ss_coloring_factory(cfg));
  runtime::RunOptions settle;
  settle.max_rounds = budget;
  if (!selfstab::run_until_stable(engine, cfg, settle).stabilized) return false;

  faultlab::PlanAdversary adv(plan);
  faultlab::ChannelPlayback chan(plan.events);
  runtime::RunOptions opts;
  opts.adversary = &adv;
  opts.channel = &chan;
  opts.max_rounds = budget;
  if (predicate == "unstable") {
    return !selfstab::run_until_stable(engine, cfg, opts).stabilized;
  }
  runtime::HookedRounds rounds(engine, opts);
  const auto check = faultlab::coloring_check(cfg);
  const std::size_t horizon =
      static_cast<std::size_t>(adv.last_event_round()) + 4;
  while (rounds.steps() < horizon) {
    rounds.step();
    if (check(engine)) return true;
  }
  return false;
}

int cmd_shrink(const Args& a) {
  if (a.positional.size() != 2) usage("shrink takes <in.jsonl> <out.jsonl>");
  if (!a.has("graph")) usage("shrink needs --graph (the replay substrate)");
  const auto plan = faultlab::FaultPlan::load(a.positional[0]);
  const auto g = make_graph(a.get("graph"));
  const selfstab::SsConfig cfg(g.n(), g.max_degree(),
                               selfstab::PaletteMode::ODelta);
  const std::string predicate = a.get("predicate", "breaks");
  const std::size_t budget = a.num("budget", 5000);
  auto reproduces = [&](const faultlab::FaultPlan& candidate) {
    return replay_fails(g, cfg, candidate, predicate, budget);
  };
  if (!reproduces(plan)) {
    std::fprintf(stderr, "input plan does not reproduce predicate '%s'\n",
                 predicate.c_str());
    return 1;
  }
  faultlab::ShrinkStats stats;
  const auto small = faultlab::shrink_plan(plan, reproduces, &stats,
                                           a.num("max-probes", 0));
  small.save(a.positional[1]);
  std::printf("shrunk %zu -> %zu events in %zu probes\n", stats.initial_events,
              stats.final_events, stats.probes);
  return 0;
}

faultlab::ZooSpec parse_zoo(const Args& a, const graph::Graph& g,
                            std::size_t dmax_bound) {
  const std::uint64_t zoo_last = a.num("last-round", 24);
  faultlab::ZooSpec zoo;
  zoo.outage.lo = static_cast<graph::Vertex>(a.num("out-lo", 1));
  zoo.outage.hi = static_cast<graph::Vertex>(a.num("out-hi", 0));
  zoo.outage.first_round = a.num("out-first", 1);
  zoo.outage.last_round = a.num("out-last", zoo_last);
  zoo.flap.down_per_million = a.ppm("flap-down");
  if (a.has("flap-up")) zoo.flap.up_per_million = a.ppm("flap-up");
  zoo.flap.first_round = a.num("flap-first", 1);
  zoo.flap.last_round = a.num("flap-last", zoo_last);
  zoo.byz.liars_per_million = a.ppm("byz-liars");
  if (a.has("byz-rate")) zoo.byz.lie_per_million = a.ppm("byz-rate");
  zoo.byz.first_round = a.num("byz-first", 1);
  zoo.byz.last_round = a.num("byz-last", zoo_last);
  zoo.adapt.count = a.num("adapt-count", 0);
  zoo.adapt.period = a.num("adapt-period", 1);
  zoo.adapt.last_round = a.num("adapt-last", zoo_last);
  const std::string target = a.get("adapt-target", "degree");
  if (target == "recent") {
    zoo.adapt.target = faultlab::AdaptiveConfig::Target::RecentlyRecolored;
  } else if (target != "degree") {
    usage("--adapt-target must be degree or recent");
  }
  zoo.churn.events = a.num("churn-events", 0);
  zoo.churn.attach = a.num("churn-attach", 2);
  if (a.has("churn-resets")) zoo.churn.resets_per_million = a.ppm("churn-resets");
  zoo.churn.last_round = a.num("churn-last", zoo_last);
  zoo.churn.dmax = std::min<std::size_t>(a.num("churn-dmax", dmax_bound),
                                         dmax_bound);
  zoo.churn.max_vertices = g.n() + a.num("churn-grow", 0);
  return zoo;
}

int cmd_fuzz(const Args& a) {
  if (!a.has("graph")) usage("fuzz needs --graph");
  const auto g = make_graph(a.get("graph"));
  const std::uint64_t seed = a.num("seed", 1);
  const std::size_t dmax_bound = g.max_degree() + 2;
  const faultlab::ZooSpec zoo = parse_zoo(a, g, dmax_bound);
  const std::size_t grow = a.num("churn-grow", 0);
  const selfstab::SsConfig cfg(g.n() + grow, g.max_degree(),
                               selfstab::PaletteMode::ODelta);
  runtime::EngineOptions eo;
  eo.delta_bound = dmax_bound;
  if (grow > 0) eo.n_bound = g.n() + grow;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  if (a.has("threads")) {
    engine.set_executor(exec::make_executor(a.num("threads", 1)));
  }
  engine.install(selfstab::ss_coloring_factory(cfg));

  faultlab::FaultPlanRecorder rec;
  engine.set_fault_recorder(&rec);
  faultlab::ChannelFaultConfig ccfg;
  ccfg.seed = seed;
  ccfg.drop_per_million = a.ppm("drop");
  ccfg.corrupt_per_million = a.ppm("corrupt");
  ccfg.duplicate_per_million = a.ppm("dup");
  ccfg.delay_per_million = a.ppm("delay");
  ccfg.first_round = 1;
  ccfg.last_round = a.num("last-round", 24);
  if (ccfg.total_per_million() > 1'000'000) {
    usage("fault probabilities sum above 1");
  }
  faultlab::ChannelAdversary chan(ccfg, &rec);
  runtime::PeriodicAdversary adv(
      seed * 2 + 1,
      {.period = a.num("period", 4),
       .last_round = a.num("last-round", 24),
       .corrupt = a.num("ram-corrupt", 2),
       .clones = a.num("clones", 1),
       .edge_adds = a.num("edge-adds", 0),
       .edge_removes = a.num("edge-removes", 0),
       .dmax = g.max_degree() + 2});

  faultlab::ChannelHookChain hooks;
  if (zoo.any_channel()) {
    hooks.add(chan);
    faultlab::append_channel_hooks(hooks, zoo, seed, &rec);
  }
  faultlab::FaultAdversaryChain advs;
  if (zoo.any_state()) {
    advs.add(adv);
    faultlab::append_state_adversaries(advs, zoo, seed);
  }

  runtime::RunOptions opts;
  opts.adversary = zoo.any_state()
                       ? static_cast<runtime::FaultAdversary*>(&advs)
                       : &adv;
  opts.channel =
      zoo.any_channel() ? static_cast<runtime::ChannelHook*>(&hooks) : &chan;
  opts.max_rounds = a.num("rounds", 8000);
  const auto rep = selfstab::run_until_stable(engine, cfg, opts);
  engine.set_fault_recorder(nullptr);
  faultlab::FaultPlan plan = rec.take();

  std::printf("seed=%llu events=%zu rounds=%zu stabilized=%d "
              "rounds_to_stable=%zu\n",
              static_cast<unsigned long long>(seed), plan.size(), rep.rounds,
              rep.stabilized ? 1 : 0, rep.rounds_to_stable);
  if (rep.stabilized) {
    if (a.has("out")) plan.save(a.get("out"));
    return 0;
  }

  // Failing campaign run: shrink (optionally) and persist the reproducer.
  if (a.has("shrink") && !plan.empty()) {
    const std::size_t budget = a.num("rounds", 8000);
    auto reproduces = [&](const faultlab::FaultPlan& candidate) {
      return replay_fails(g, cfg, candidate, "unstable", budget);
    };
    if (reproduces(plan)) {
      faultlab::ShrinkStats stats;
      plan = faultlab::shrink_plan(plan, reproduces, &stats,
                                   a.num("max-probes", 2000));
      std::printf("shrunk %zu -> %zu events in %zu probes\n",
                  stats.initial_events, stats.final_events, stats.probes);
    }
  }
  if (a.has("out")) plan.save(a.get("out"));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Args a = parse(argc, argv);
  try {
    if (cmd == "dump") return cmd_dump(a);
    if (cmd == "diff") return cmd_diff(a);
    if (cmd == "shrink") return cmd_shrink(a);
    if (cmd == "fuzz") return cmd_fuzz(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage("unknown command");
}
