// agccli — command-line front end for the agcolor library.
//
//   agccli color    --graph <spec> [--algo <name>]  (names: coloring registry,
//                   `agccli campaign ls --runners`; default ag)
//                   [--model setlocal|local|congest] [--eps <x>] [--seed <s>]
//                   [--threads <n>] [--csv <file>] [--dot <file>]
//   agccli edges    --graph <spec> [--bit-round] [--no-exact] [--csv <file>]
//   agccli mis      --graph <spec>
//   agccli match    --graph <spec>
//   agccli selfstab --graph <spec> [--exact] [--faults <k>] [--epochs <e>]
//                   [--KEY VALUE ...] [--fault-plan <file> [--replay]]
//
// With no flags beyond --graph, --exact, --faults, --epochs and the
// --threads/--jsonl/--phases flags below, selfstab runs the epoch loop:
// corrupt --faults vertices (default 16) and restabilize, --epochs times
// (default 3).  Any other flag is a campaign key (docs/SCHED.md: --seed, the
// --chan-* and --adv-* faults, the zoo's --out-/--flap-/--byz-/--adapt-/
// --churn- keys, --budget, --max-rounds, ...) and runs the ss-color job
// (ss-color-exact with --exact) through the stabilization harness exactly as
// a campaign runs it (docs/FAULTS.md).  It prints recovery time and
// adjustment radius and exits 0 iff the job recovered.  It needs a fault key
// or --replay:
//   --fault-plan FILE   record every injected fault to FILE (JSONL), or, with
//   --replay            replay FILE instead of injecting fresh faults.  A plan
//                       replays as the job that recorded it given its keys.
//
// --threads N (or AGC_THREADS) runs the round engine on the exec subsystem's
// N-thread backend (N=0: all hardware threads); results are bit-identical to
// the sequential engine by the shard-determinism contract (docs/EXEC.md).
//
// Observability (every command above):
//   --jsonl FILE   stream structured run events (JSONL) to FILE; analyze with
//                  `agc-trace dump|summary FILE` (docs/OBSERVABILITY.md)
//   --phases       collect per-phase timings and print the telemetry summary
//   agccli gen      --graph <spec> --out <file>
//   agccli svc      --graph <spec> [--ops <n>] [--seed <s>] [--clients <c>]
//                   [--batch <b>] [--dmax <d>] [--max-vertices <m>] [--exact]
//                   [--threads <n>] [--json] [--timing]
//
// `svc` runs the coloring service in-process against a seeded YCSB-style
// client workload (mutations + queries batched into epochs, incremental
// recoloring per epoch; docs/SERVICE.md) and prints the latency/adjustment
// aggregate.  --json emits ServiceStats JSON (deterministic unless --timing);
// the socket daemon for real clients is `agcd`.
//
//   agccli campaign run --file <grid.campaign> [--threads <n>]
//                   [--job-threads <m>] [--budget-mb <mb>] [--retries <k>]
//                   [--out <report.jsonl>] [--timing]
//   agccli campaign ls  --file <grid.campaign> | --runners
//   agccli campaign grid --algos ag,kw,gps
//                   --graphs "regular:1500,8,1242 gnp:1000,0.01,7"
//                   --seeds 1,2,3 [--plan-out-dir DIR] [--out FILE]
//                   [--KEY VALUE ...]  campaign keys as flags: docs/SCHED.md
//
// Campaigns execute a declarative grid of jobs concurrently with a shared
// graph cache and deterministic job-id-order aggregation (docs/SCHED.md).
// Without --timing the report JSONL is bit-identical for any --threads
// value.  `grid` authors one: it expands the cross product algorithms x
// graphs x seeds into the campaign file format (one `key=value ...` job line
// per cell, graphs in canonical GraphSpec spelling).  With --plan-out-dir
// each fault job records its injected faults and saves a replayable plan
// there when it fails — the nightly fuzz artifact.  The out-/flap-/byz-/
// adapt-/churn- keys configure the adversary zoo (docs/FAULTS.md).
//
// Graph specs (graph::GraphSpec — positional or named args, canonical form
// is named, e.g. gnp:n=1000,p=0.01,seed=7):
//   file:PATH                DIMACS-flavored edge list (see graph/io.hpp)
//   gnp:N,P,SEED             Erdos-Renyi
//   regular:N,D,SEED         random D-regular
//   grid:R,C | cycle:N | path:N | complete:N | star:N | tree:N
//   geometric:N,RADIUS,SEED  random geometric (unit square)
//   ba:N,K,SEED              Barabasi-Albert preferential attachment
//   bipartite:A,B | hypercube:D | multipartite:K,PART
//   caterpillar:SPINE,LEGS | blowup:LEN,BLOW | bounded:N,DMAX,M,SEED
//   powerlaw:N,GAMMA,AVGDEG,SEED  Chung-Lu power-law (streamed CSR build)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agc/coloring/registry.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/coloring/symmetry.hpp"
#include "agc/edge/edge_coloring.hpp"
#include "agc/exec/executor.hpp"
#include "agc/faultlab/plan.hpp"
#include "agc/graph/generators.hpp"
#include "agc/graph/io.hpp"
#include "agc/graph/spec.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/trace.hpp"
#include "agc/sched/campaign.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/svc/service.hpp"
#include "agc/svc/workload.hpp"

namespace {

using namespace agc;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: agccli <color|edges|mis|match|selfstab|svc|gen> --graph "
               "<spec> [--threads <n>] [options]\n"
               "       agccli campaign <run|ls|grid> [options]\n"
               "see the header of tools/agccli.cpp for details\n");
  std::exit(2);
}

/// Resolve --graph through the one spec helper (docs/SCALE.md).  Every
/// agccli command reads through GraphView, so the frozen CSR backend is
/// always right here; commands that churn topology (selfstab faults) do so
/// through the engine, whose copy-on-churn materializes a mutable copy.
graph::ResolvedGraph resolve_graph(const std::string& spec) {
  try {
    return graph::GraphSpec::parse(spec).resolve(graph::Mutability::ReadOnly);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

struct Args {
  std::string command;
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

  /// --threads, else AGC_THREADS (exec::default_threads); 0 means
  /// hardware concurrency.
  std::size_t threads() const {
    if (has("threads")) return num("threads", 1);
    try {
      return exec::default_threads();
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }

  /// Execution backend for --threads/AGC_THREADS (null-free: sequential
  /// when 1).
  std::shared_ptr<runtime::RoundExecutor> executor() const {
    return exec::make_executor(threads());
  }
};

/// --jsonl/--phases wiring: owns the trace stream + sink for one command and
/// applies them to any RunOptions-derived options struct.
struct ObsFlags {
  std::ofstream out;
  std::unique_ptr<obs::JsonlSink> sink;
  bool phases = false;

  explicit ObsFlags(const Args& a) : phases(a.has("phases")) {
    if (a.has("jsonl")) {
      out.open(a.get("jsonl"));
      if (!out) usage("cannot open --jsonl file");
      sink = std::make_unique<obs::JsonlSink>(out);
    }
  }

  void apply(runtime::RunOptions& opts) {
    if (sink) opts.sink = sink.get();
    opts.collect_phase_times = phases;
  }

  void report(const runtime::RunReport& rep) const {
    if (phases) rep.telemetry().write_summary(std::cout);
  }
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.command = argv[1];
  int i = 2;
  if (a.command == "campaign") {
    if (argc < 3 || argv[2][0] == '-') {
      usage("campaign needs a subcommand (run|ls|grid)");
    }
    a.kv["sub"] = argv[2];
    i = 3;
  }
  for (; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("options start with --");
    key = key.substr(2);
    // Flags without values.
    if (key == "bit-round" || key == "no-exact" || key == "exact" ||
        key == "phases" || key == "replay" || key == "timing" ||
        key == "runners" || key == "json") {
      a.kv[key] = "1";
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for --" + key).c_str());
    a.kv[key] = argv[++i];
  }
  if (!a.has("graph") && a.command != "help" && a.command != "campaign") {
    usage("--graph is required");
  }
  return a;
}

/// --model setlocal|local|congest (default setlocal).
runtime::Model model_flag(const Args& a) {
  const std::string model = a.get("model", "setlocal");
  if (model == "local") return runtime::Model::LOCAL;
  if (model == "congest") return runtime::Model::CONGEST;
  if (model != "setlocal") usage("unknown --model");
  return runtime::Model::SET_LOCAL;
}

int cmd_color(const Args& a) {
  const auto rg = resolve_graph(a.get("graph"));
  const graph::GraphView g = rg.view();
  ObsFlags ob(a);
  coloring::PipelineOptions opts;
  opts.iter.executor = a.executor();
  ob.apply(opts.iter);
  runtime::TraceRecorder trace(g, nullptr);
  if (a.has("trace")) opts.iter.on_round = trace.observer();
  opts.iter.model = model_flag(a);
  const std::string model = a.get("model", "setlocal");

  const auto eps = graph::parse_f64(a.get("eps", "0.5"));
  if (!eps || *eps < 0.0) usage("--eps needs a number >= 0");
  opts.eps = *eps;
  opts.run().seed = a.num("seed", 1);

  const std::string algo = a.get("algo", "ag");
  const coloring::AlgoSpec* spec = coloring::find_algo(algo);
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "error: unknown --algo '%s'\navailable algorithms: %s\n",
                 algo.c_str(), coloring::algo_list().c_str());
    std::exit(2);
  }
  const coloring::PipelineReport rep = spec->run(g, opts);
  const bool ok = rep.converged && rep.proper;

  std::printf("n=%zu m=%zu Delta=%zu algo=%s model=%s\n", g.n(), g.m(),
              g.max_degree(), algo.c_str(), model.c_str());
  if (spec->requires_seed) {
    std::printf("rounds=%zu palette=%zu proper=%s seed=%llu\n", rep.rounds,
                rep.palette, ok ? "yes" : "NO",
                static_cast<unsigned long long>(opts.run().seed));
  } else {
    std::printf("rounds=%zu palette=%zu proper=%s\n", rep.rounds, rep.palette,
                ok ? "yes" : "NO");
  }
  ob.report(rep);
  if (a.has("csv")) {
    std::ofstream out(a.get("csv"));
    graph::write_coloring_csv(out, rep.colors);
  }
  if (a.has("dot")) {
    std::ofstream out(a.get("dot"));
    graph::write_dot(out, g, rep.colors);
  }
  if (a.has("trace")) {
    std::ofstream out(a.get("trace"));
    trace.write_csv(out);
  }
  return ok ? 0 : 1;
}

int cmd_edges(const Args& a) {
  const auto rg = resolve_graph(a.get("graph"));
  const graph::GraphView g = rg.view();
  ObsFlags ob(a);
  edge::EdgeColoringOptions opts;
  opts.executor = a.executor();
  ob.apply(opts);
  opts.bit_round = a.has("bit-round");
  opts.exact = !a.has("no-exact");
  const auto res = edge::color_edges_distributed(g, opts);
  std::printf("n=%zu m=%zu Delta=%zu model=%s\n", g.n(), g.m(), g.max_degree(),
              opts.bit_round ? "BIT" : "CONGEST");
  std::printf("rounds=%zu palette=%zu (2D-1=%zu) proper=%s bits/edge=%.1f\n",
              res.rounds, res.palette,
              g.max_degree() > 0 ? 2 * g.max_degree() - 1 : 1,
              res.proper ? "yes" : "NO", res.avg_bits_per_edge);
  if (a.has("csv")) {
    std::ofstream out(a.get("csv"));
    graph::write_coloring_csv(out, res.colors);
  }
  ob.report(res);
  return res.proper ? 0 : 1;
}

int cmd_mis(const Args& a) {
  const auto rg = resolve_graph(a.get("graph"));
  const graph::GraphView g = rg.view();
  ObsFlags ob(a);
  coloring::PipelineOptions opts;
  opts.iter.executor = a.executor();
  ob.apply(opts.iter);
  const auto rep = coloring::maximal_independent_set(g, opts);
  std::size_t size = 0;
  for (bool b : rep.in_mis) size += b;
  std::printf("n=%zu m=%zu Delta=%zu\n", g.n(), g.m(), g.max_degree());
  std::printf("rounds=%zu (coloring %zu + wave %zu) |MIS|=%zu valid=%s\n",
              rep.rounds_coloring + rep.rounds_mis, rep.rounds_coloring,
              rep.rounds_mis, size, rep.valid ? "yes" : "NO");
  ob.report(rep);
  return rep.valid ? 0 : 1;
}

int cmd_match(const Args& a) {
  const auto rg = resolve_graph(a.get("graph"));
  const graph::GraphView g = rg.view();
  ObsFlags ob(a);
  coloring::PipelineOptions opts;
  opts.iter.executor = a.executor();
  ob.apply(opts.iter);
  const auto rep = coloring::maximal_matching(g, opts);
  std::printf("n=%zu m=%zu Delta=%zu\n", g.n(), g.m(), g.max_degree());
  std::printf("line-graph rounds=%zu |M|=%zu valid=%s\n", rep.rounds,
              rep.matching.size(), rep.valid ? "yes" : "NO");
  ob.report(rep);
  return rep.valid ? 0 : 1;
}

/// The flags of `agccli selfstab`'s epoch loop; any other flag selects the
/// stabilization harness.
bool epoch_flag(const std::string& key) {
  return key == "graph" || key == "faults" || key == "epochs" || key == "exact" ||
         key == "threads" || key == "jsonl" || key == "phases";
}

/// The harness path of `agccli selfstab`: the ss-color job (ss-color-exact
/// with --exact) built from campaign keys, through
/// sched::run_stabilization_job, recording to --fault-plan or, with
/// --replay, replaying it.
int selfstab_job(const Args& a) {
  if (a.has("faults") || a.has("epochs")) {
    usage("--faults and --epochs drive the epoch loop; the harness takes "
          "campaign fault keys");
  }
  sched::JobSpec job;
  job.algorithm = a.has("exact") ? "ss-color-exact" : "ss-color";
  for (const auto& [key, value] : a.kv) {
    if (epoch_flag(key) || key == "fault-plan" || key == "replay") continue;
    try {
      sched::set_job_key(job, key, value);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  const bool replay = a.has("replay");
  const std::string path = a.get("fault-plan");
  if (!job.faults.plan_path.empty() || !job.faults.plan_out.empty()) {
    usage("selfstab records and replays through --fault-plan, not --plan or "
          "--plan-out");
  }
  if (replay && path.empty()) usage("--replay needs --fault-plan FILE");
  if (!replay && !job.faults.any()) {
    usage("the harness needs a fault key (docs/SCHED.md) or --replay");
  }
  if (job.faults.channel.total_per_million() > 1'000'000) {
    usage("channel fault probabilities sum above 1");
  }

  const auto rg = resolve_graph(a.get("graph"));
  ObsFlags ob(a);
  sched::RunnerContext ctx{rg.view(), job, job.opts};
  ctx.opts.executor = a.executor();
  ob.apply(ctx.opts);
  faultlab::FaultPlan plan;
  if (replay) {
    plan = faultlab::FaultPlan::load(path);
    std::printf("replaying %zu recorded fault events from %s\n", plan.size(),
                path.c_str());
  }
  faultlab::FaultPlanRecorder recorder;
  const bool record = !replay && !path.empty();
  const auto rep = sched::run_stabilization_job(ctx, replay ? &plan : nullptr,
                                                record ? &recorder : nullptr)
                       .outcome;
  if (record) {
    plan = recorder.take();
    plan.save(path);
    std::printf("recorded %zu fault events to %s\n", plan.size(), path.c_str());
  }

  std::printf("faults=%llu last_fault_round=%llu\n",
              static_cast<unsigned long long>(rep.fault_events),
              static_cast<unsigned long long>(rep.last_fault_round));
  if (rep.recovered) {
    std::printf("recovered in %zu rounds (first legal round %llu); "
                "adjustment radius: %zu vertex(es) changed output\n",
                rep.recovery_rounds,
                static_cast<unsigned long long>(rep.first_legal_round),
                rep.adjusted.size());
  } else {
    std::printf("NOT RECOVERED: %s at round %llu (u=%u v=%u value=%llu)\n",
                selfstab::to_string(rep.violation.kind),
                static_cast<unsigned long long>(rep.violation.round),
                rep.violation.u, rep.violation.v,
                static_cast<unsigned long long>(rep.violation.value));
  }
  ob.report(rep);
  return rep.recovered ? 0 : 1;
}

int cmd_selfstab(const Args& a) {
  for (const auto& flag : a.kv) {
    if (!epoch_flag(flag.first)) return selfstab_job(a);
  }
  const auto rg = resolve_graph(a.get("graph"));
  const graph::GraphView g = rg.view();
  const std::size_t delta = std::max<std::size_t>(g.max_degree(), 1);
  const auto mode = a.has("exact") ? selfstab::PaletteMode::ExactDeltaPlusOne
                                   : selfstab::PaletteMode::ODelta;
  selfstab::SsConfig cfg(g.n(), delta, mode);
  runtime::EngineOptions eo;
  eo.delta_bound = delta;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.set_executor(a.executor());
  engine.install(selfstab::ss_coloring_factory(cfg));

  const auto faults = a.num("faults", 16);
  const auto epochs = a.num("epochs", 3);
  ObsFlags ob(a);
  runtime::RunOptions ro;
  ro.max_rounds = 1000000;
  ob.apply(ro);
  runtime::Adversary adv(1);
  for (std::uint64_t e = 0; e <= epochs; ++e) {
    if (e > 0) {
      adv.corrupt_random(engine, faults, cfg.span());
      adv.clone_neighbor(engine, faults / 2 + 1);
    }
    const auto rep = selfstab::run_until_stable(engine, cfg, ro);
    std::printf("epoch %llu: %s after %zu rounds (palette<=%llu)\n",
                static_cast<unsigned long long>(e),
                rep.stabilized ? "stable" : "NOT STABLE", rep.rounds_to_stable,
                static_cast<unsigned long long>(cfg.final_palette()));
    ob.report(rep);
    if (!rep.stabilized) return 1;
  }
  return 0;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, sep)) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

/// `agccli campaign grid`: author a campaign file from the cross product
/// algorithms x graphs x seeds, with one shared fault configuration.
int cmd_grid(const Args& a) {
  if (!a.has("algos") || !a.has("graphs")) {
    usage("grid needs --algos and --graphs");
  }
  const auto algos = split(a.get("algos"), ',');
  const auto seed_strs = split(a.get("seeds", "1"), ',');
  std::vector<graph::GraphSpec> graphs;
  for (const auto& spec : split(a.get("graphs"), ' ')) {
    try {
      graphs.push_back(graph::GraphSpec::parse(spec));
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }

  sched::JobSpec base;
  for (const std::string_view key : sched::grid_keys()) {
    const std::string flag(key);
    if (!a.has(flag)) continue;
    try {
      sched::set_job_key(base, key, a.get(flag));
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }

  sched::Campaign c;
  for (const auto& algo : algos) {
    const sched::Runner* runner = sched::find_runner(algo);
    if (runner == nullptr) usage(("unknown algorithm '" + algo + "'").c_str());
    if (base.faults.any() && !runner->faults) {
      usage(("algorithm '" + algo + "' does not run fault specs").c_str());
    }
    for (const auto& spec : graphs) {
      for (const auto& seed_str : seed_strs) {
        sched::JobSpec job = base;
        job.algorithm = algo;
        job.graph = spec;
        const auto seed = graph::parse_u64(seed_str);
        if (!seed) usage(("bad seed '" + seed_str + "'").c_str());
        job.seed = *seed;
        if (a.has("plan-out-dir") && job.faults.any()) {
          char h[24];
          std::snprintf(h, sizeof h, "%016llx",
                        static_cast<unsigned long long>(spec.content_hash()));
          job.faults.plan_out = a.get("plan-out-dir") + "/" + algo + "-" + h +
                                "-s" + seed_str + ".jsonl";
        }
        c.add(std::move(job));
      }
    }
  }

  const std::string text = c.format();
  if (a.has("out")) {
    std::ofstream out(a.get("out"));
    if (!out) usage("cannot open --out file");
    out << text;
    std::printf("wrote %zu jobs to %s\n", c.size(), a.get("out").c_str());
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}

/// `agccli campaign run|ls|grid`: execute, inspect or author a declarative job grid
/// (docs/SCHED.md).  The report JSONL goes to --out (or stdout) in job-id
/// order; without --timing it is bit-identical for any --threads value.
int cmd_campaign(const Args& a) {
  const std::string sub = a.get("sub");
  if (sub == "grid") return cmd_grid(a);
  if (sub == "ls" && a.has("runners")) {
    for (const auto& r : sched::runners()) {
      std::printf("%-16s %s%s\n", r.name, r.summary,
                  r.faults ? "  [faults]" : "");
    }
    return 0;
  }
  if (!a.has("file")) usage("campaign needs --file FILE (or ls --runners)");
  const auto campaign = sched::Campaign::parse_file(a.get("file"));
  if (sub == "ls") {
    std::printf("# %zu jobs\n", campaign.size());
    std::fputs(campaign.format().c_str(), stdout);
    return 0;
  }
  if (sub != "run") usage("campaign subcommand must be run, ls or grid");

  ObsFlags ob(a);
  sched::ScheduleOptions so;
  std::size_t threads = a.threads();
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  so.threads = threads;
  so.threads_per_job =
      a.num("job-threads", 1);
  so.memory_budget_bytes =
      a.num("budget-mb", 0) * 1'000'000;
  so.max_attempts =
      1 + a.num("retries", 0);
  so.include_timing = a.has("timing");
  so.sink = ob.sink.get();

  const auto rep = sched::run_campaign(campaign, so);
  const std::string jsonl = rep.to_jsonl(so.include_timing);
  if (a.has("out")) {
    std::ofstream out(a.get("out"));
    if (!out) usage("cannot open --out file");
    out << jsonl;
    std::printf("jobs=%zu ok=%zu cache_hits=%zu cache_misses=%zu retries=%zu "
                "wall_s=%.3f -> %s\n",
                rep.jobs.size(), rep.ok_count, rep.cache_hits, rep.cache_misses,
                rep.retries, rep.wall_ns * 1e-9, a.get("out").c_str());
  } else {
    std::fputs(jsonl.c_str(), stdout);
  }
  return rep.all_ok() ? 0 : 1;
}

/// `agccli svc`: the in-process service demo — build the service, drive it
/// with a seeded closed-loop workload, print the aggregate.  Exit 0 only if
/// every op was accepted (eager-mirror contract) and every epoch recolored
/// to a legal configuration.
int cmd_svc(const Args& a) {
  ObsFlags ob(a);
  svc::ServiceConfig cfg;
  try {
    cfg.spec = graph::GraphSpec::parse(a.get("graph"));
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  cfg.delta_bound = a.num("dmax", 0);
  cfg.max_vertices =
      a.num("max-vertices", 0);
  cfg.mode = a.has("exact") ? selfstab::PaletteMode::ExactDeltaPlusOne
                            : selfstab::PaletteMode::ODelta;
  cfg.epoch_batch = a.num("batch", 64);
  cfg.run.executor = a.executor();
  ob.apply(cfg.run);
  svc::Service service(cfg);

  svc::WorkloadSpec ws;
  ws.seed = a.num("seed", 1);
  ws.ops = a.num("ops", 20000);
  ws.clients = a.num("clients", 64);
  const auto rep = svc::run_workload(service, ws);
  const auto& st = service.stats();

  std::printf("graph=%s dmax=%zu max_vertices=%llu batch=%zu\n",
              cfg.spec.to_string().c_str(), service.config().delta_bound,
              static_cast<unsigned long long>(service.config().max_vertices),
              service.config().epoch_batch);
  std::printf("ops=%llu mutations=%llu queries=%llu rejected=%llu "
              "epochs=%llu\n",
              static_cast<unsigned long long>(st.ops),
              static_cast<unsigned long long>(st.mutations),
              static_cast<unsigned long long>(st.queries),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.epochs));
  std::printf("latency_rounds p50=%llu p99=%llu max=%llu  adjusted "
              "mean=%.2f max=%llu  violations=%llu\n",
              static_cast<unsigned long long>(st.latency_rounds.quantile(0.5)),
              static_cast<unsigned long long>(st.latency_rounds.quantile(0.99)),
              static_cast<unsigned long long>(st.latency_rounds.max()),
              st.mean_adjusted(),
              static_cast<unsigned long long>(st.max_adjusted),
              static_cast<unsigned long long>(st.legality_violations));
  if (a.has("json")) std::puts(st.to_json(a.has("timing")).c_str());
  ob.report(service.report());
  return rep.rejected == 0 && st.legality_violations == 0 ? 0 : 1;
}

int cmd_gen(const Args& a) {
  const auto rg = resolve_graph(a.get("graph"));
  const graph::GraphView g = rg.view();
  if (!a.has("out")) usage("gen needs --out");
  std::ofstream out(a.get("out"));
  graph::write_edge_list(out, g);
  std::printf("wrote n=%zu m=%zu to %s\n", g.n(), g.m(), a.get("out").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "color") return cmd_color(a);
    if (a.command == "edges") return cmd_edges(a);
    if (a.command == "mis") return cmd_mis(a);
    if (a.command == "match") return cmd_match(a);
    if (a.command == "selfstab") return cmd_selfstab(a);
    if (a.command == "campaign") return cmd_campaign(a);
    if (a.command == "svc") return cmd_svc(a);
    if (a.command == "gen") return cmd_gen(a);
    usage("unknown command");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
