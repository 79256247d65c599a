// agc-faultplan: the fault-plan workbench.
//
//   agc-faultplan dump   plan.jsonl
//       Print the plan as a table plus per-kind counts.
//   agc-faultplan diff   a.jsonl b.jsonl
//       Compare two plans event-by-event; exit 1 on the first divergence.
//   agc-faultplan shrink in.jsonl out.jsonl --graph <spec>
//       [--predicate breaks|unstable] [--max-probes N] [--KEY VALUE ...]
//       ddmin the plan down to a 1-minimal reproducer of the predicate.  Each
//       candidate replays as the ss-color campaign job over --graph with the
//       campaign keys given as flags (docs/SCHED.md), through
//       sched::run_stabilization_job, so pass the keys of the job that
//       recorded the plan.  `unstable`: the job does not recover; `breaks`
//       (the default): some repair round fails the legality check.  Exit 1
//       when the input plan does not reproduce.
//
// Plans come from `agccli selfstab --fault-plan` and from campaign jobs with
// `plan-out` (docs/FAULTS.md).  A flag a subcommand does not take is a usage
// error (exit 2).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "agc/faultlab/plan.hpp"
#include "agc/faultlab/shrink.hpp"
#include "agc/graph/spec.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/sched/campaign.hpp"

namespace {

using namespace agc;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: agc-faultplan <dump|diff|shrink> [args] "
               "[--options]\nsee the header of tools/agc_faultplan.cpp for "
               "details\n");
  std::exit(2);
}

/// Every fault run mutates topology inside its engine (copy-on-churn), so
/// the graph itself resolves read-only, as in agccli and the campaigns.
graph::ResolvedGraph resolve_graph(const std::string& spec) {
  try {
    return graph::GraphSpec::parse(spec).resolve(graph::Mutability::ReadOnly);
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

/// dump and diff take plan files only.
void no_flags(const Args& a) {
  if (!a.kv.empty()) usage(("unknown flag --" + a.kv.begin()->first).c_str());
}

int cmd_dump(const Args& a) {
  no_flags(a);
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
  no_flags(a);
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

int cmd_shrink(const Args& a) {
  if (a.positional.size() != 2) usage("shrink takes <in.jsonl> <out.jsonl>");
  if (!a.has("graph")) usage("shrink needs --graph (the replay substrate)");
  const std::string predicate = a.get("predicate", "breaks");
  if (predicate != "breaks" && predicate != "unstable") {
    usage("--predicate must be breaks or unstable");
  }
  sched::JobSpec job;
  job.algorithm = "ss-color";
  for (const auto& [key, value] : a.kv) {
    if (key == "graph" || key == "predicate" || key == "max-probes") continue;
    try {
      sched::set_job_key(job, key, value);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  if (!job.faults.plan_path.empty() || !job.faults.plan_out.empty()) {
    usage("shrink replays its input plan, not --plan or --plan-out");
  }
  const std::size_t max_probes = a.num("max-probes", 0);
  const auto rg = resolve_graph(a.get("graph"));
  const sched::RunnerContext ctx{rg.view(), job, job.opts};
  const auto plan = faultlab::FaultPlan::load(a.positional[0]);
  auto reproduces = [&](const faultlab::FaultPlan& candidate) {
    const auto out = sched::run_stabilization_job(ctx, &candidate).outcome;
    return predicate == "unstable" ? !out.recovered : out.illegal_rounds > 0;
  };
  if (!reproduces(plan)) {
    std::fprintf(stderr, "input plan does not reproduce predicate '%s'\n",
                 predicate.c_str());
    return 1;
  }
  faultlab::ShrinkStats stats;
  const auto small = faultlab::shrink_plan(plan, reproduces, &stats, max_probes);
  small.save(a.positional[1]);
  std::printf("shrunk %zu -> %zu events in %zu probes\n", stats.initial_events,
              stats.final_events, stats.probes);
  return 0;
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
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage("unknown command");
}
