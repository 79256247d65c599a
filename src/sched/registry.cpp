#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "agc/coloring/registry.hpp"
#include "agc/coloring/symmetry.hpp"
#include "agc/faultlab/channel.hpp"
#include "agc/faultlab/harness.hpp"
#include "agc/faultlab/plan.hpp"
#include "agc/faultlab/zoo.hpp"
#include "agc/graph/checks.hpp"
#include "agc/runtime/engine.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/sched/campaign.hpp"
#include "agc/selfstab/ss_coloring.hpp"
#include "agc/selfstab/ss_line.hpp"
#include "agc/selfstab/ss_mis.hpp"

/// \file registry.cpp
/// The built-in campaign runners: every algorithm entry point the CLI can
/// drive, adapted to the scheduler's RunnerContext -> JobResult shape.  Each
/// runner is a pure function of (graph, JobSpec, attempt) — nothing here may
/// read clocks, global state, or scheduling context, or the campaign
/// determinism contract breaks.

namespace agc::sched {

namespace {

/// Stream separator so the wire and RAM/topology adversaries never share a
/// seed even though both derive from JobSpec::seed.
constexpr std::uint64_t kChannelStream = 0x9e3779b97f4a7c15ULL;

double d(std::uint64_t v) { return static_cast<double>(v); }

JobResult from_pipeline(const coloring::PipelineReport& rep) {
  JobResult r;
  static_cast<runtime::RunReport&>(r) = rep;
  r.ok = rep.converged && rep.proper;
  r.palette = rep.palette;
  r.values = {{"rounds_linial", d(rep.rounds_linial)},
              {"rounds_core", d(rep.rounds_core)},
              {"rounds_finish", d(rep.rounds_finish)},
              {"proper_each_round", rep.proper_each_round ? 1.0 : 0.0}};
  return r;
}

coloring::PipelineOptions pipeline_options(const RunnerContext& ctx) {
  coloring::PipelineOptions po(ctx.opts);
  po.id_space_factor = ctx.spec.id_space_factor;
  return po;
}

/// The one coloring runner: every algorithm in coloring::algos() dispatches
/// through here by its own registry name — no per-algorithm switch.  The job
/// seed flows into RunOptions::seed (rotated per retry attempt), which is
/// how randomized entries like luby get their trajectory.
JobResult run_registered(const RunnerContext& ctx) {
  const coloring::AlgoSpec* algo = coloring::find_algo(ctx.spec.algorithm);
  if (algo == nullptr) {
    JobResult r;
    r.error = "unknown algorithm '" + ctx.spec.algorithm +
              "' (available: " + coloring::algo_list() + ")";
    return r;
  }
  coloring::PipelineOptions po = pipeline_options(ctx);
  po.run().seed = attempt_seed(ctx.spec.seed, ctx.attempt);
  return from_pipeline(algo->run(ctx.g, po));
}

JobResult run_mis(const RunnerContext& ctx) {
  const auto rep = coloring::maximal_independent_set(ctx.g, pipeline_options(ctx));
  JobResult r;
  static_cast<runtime::RunReport&>(r) = rep;
  r.ok = rep.valid;
  std::size_t size = 0;
  for (const bool b : rep.in_mis) size += b;
  r.values = {{"mis_size", d(size)},
              {"rounds_coloring", d(rep.rounds_coloring)},
              {"rounds_mis", d(rep.rounds_mis)}};
  return r;
}

JobResult run_matching(const RunnerContext& ctx) {
  const auto rep = coloring::maximal_matching(ctx.g, pipeline_options(ctx));
  JobResult r;
  static_cast<runtime::RunReport&>(r) = rep;
  r.ok = rep.valid;
  r.values = {{"matching_size", d(rep.matching.size())}};
  return r;
}

/// Which self-stabilizing program a ss-* job drives.  The fault plumbing
/// (recording, replay, zoo adversaries, watchdog) is identical across tasks;
/// only the installed program, legality check, and output metrics differ.
enum class SsTask { ColorODelta, ColorExact, Mis, Line };

SsTask ss_task(const std::string& algorithm) {
  if (algorithm == "ss-color") return SsTask::ColorODelta;
  if (algorithm == "ss-color-exact") return SsTask::ColorExact;
  if (algorithm == "ss-mis") return SsTask::Mis;
  if (algorithm == "ss-line") return SsTask::Line;
  throw std::invalid_argument("'" + algorithm + "' is not a self-stabilizing runner");
}

}  // namespace

StabilizationRun run_stabilization_job(const RunnerContext& ctx,
                                       const faultlab::FaultPlan* replay,
                                       runtime::FaultEventSink* recorder) {
  const SsTask task = ss_task(ctx.spec.algorithm);
  const auto& g = ctx.g;
  const auto& fs = ctx.spec.faults;
  std::size_t delta = std::max<std::size_t>(g.max_degree(), 1);
  // The periodic adversary grows the topology up to its declared degree cap;
  // a palette sized from the seed graph alone becomes infeasible after an
  // adversarial edge add (ss-line's edge palette most of all), so the bound
  // must absorb the cap up front.
  if (fs.periodic.edge_adds + fs.periodic.clones > 0) {
    delta = std::max(delta, fs.periodic.dmax);
  }

  // Resolve the declarative churn knobs before sizing anything: arrivals need
  // headroom in both the ID space and the engine's n bound, and attachment
  // must respect the ROM degree bound the programs were configured with.
  faultlab::ZooSpec zoo = fs.zoo;
  std::size_t grow = 0;
  if (zoo.churn.enabled()) {
    zoo.churn.dmax = std::min(zoo.churn.dmax, delta);
    if (zoo.churn.grow > 0 && zoo.churn.max_vertices == 0) {
      grow = zoo.churn.grow;
      zoo.churn.max_vertices = g.n() + grow;
    } else if (zoo.churn.max_vertices > g.n()) {
      grow = zoo.churn.max_vertices - g.n();
    }
  }
  const std::uint64_t n_cap = std::max<std::uint64_t>(g.n() + grow, 1);

  const selfstab::PaletteMode mode = task == SsTask::ColorODelta
                                         ? selfstab::PaletteMode::ODelta
                                         : selfstab::PaletteMode::ExactDeltaPlusOne;
  const selfstab::SsConfig cfg(n_cap * ctx.spec.id_space_factor, delta, mode);
  const selfstab::SsLineConfig lcfg(n_cap, delta, selfstab::LineTask::EdgeColoring);

  runtime::EngineOptions eo;
  eo.id_space_factor = ctx.spec.id_space_factor;
  eo.delta_bound = delta;
  if (grow > 0) eo.n_bound = n_cap;
  runtime::Engine engine(g, runtime::Transport(runtime::Model::LOCAL), eo);
  engine.set_executor(ctx.opts.executor);
  switch (task) {
    case SsTask::Mis:
      engine.install(selfstab::ss_mis_factory(cfg));
      break;
    case SsTask::Line:
      engine.install(selfstab::ss_line_factory(lcfg));
      break;
    default:
      engine.install(selfstab::ss_coloring_factory(cfg));
      break;
  }

  StabilizationRun run;
  JobResult& r = run.result;
  if (replay == nullptr && !fs.any()) {
    switch (task) {
      case SsTask::Mis: {
        const auto rep = selfstab::run_until_mis_stable(engine, cfg, ctx.opts,
                                                        fs.confirm_rounds);
        static_cast<runtime::RunReport&>(r) = rep;
        r.ok = rep.stabilized;
        r.palette = graph::palette_size(selfstab::current_colors(engine));
        std::size_t size = 0;
        for (const bool b : rep.in_mis) size += b;
        r.values = {{"rounds_to_stable", d(rep.rounds_to_stable)},
                    {"mis_size", d(size)}};
        break;
      }
      case SsTask::Line: {
        const auto rep = selfstab::run_until_line_stable(engine, lcfg, ctx.opts,
                                                         fs.confirm_rounds);
        static_cast<runtime::RunReport&>(r) = rep;
        r.ok = rep.stabilized;
        r.palette = graph::palette_size(selfstab::current_edge_colors(engine));
        r.values = {{"rounds_to_stable", d(rep.rounds_to_stable)}};
        break;
      }
      default: {
        const auto rep = selfstab::run_until_stable(engine, cfg, ctx.opts,
                                                    fs.confirm_rounds);
        static_cast<runtime::RunReport&>(r) = rep;
        r.ok = rep.stabilized;
        r.palette = graph::palette_size(rep.colors);
        r.values = {{"rounds_to_stable", d(rep.rounds_to_stable)}};
        break;
      }
    }
    return run;
  }

  runtime::RunOptions ro = ctx.opts;
  std::unique_ptr<faultlab::PlanAdversary> plan_adv;
  std::unique_ptr<faultlab::ChannelPlayback> playback;
  std::unique_ptr<runtime::PeriodicAdversary> periodic;
  std::unique_ptr<faultlab::ChannelAdversary> channel;
  faultlab::ChannelHookChain hook_chain;
  faultlab::FaultAdversaryChain adv_chain;
  if (replay != nullptr) {
    plan_adv = std::make_unique<faultlab::PlanAdversary>(*replay);
    playback = std::make_unique<faultlab::ChannelPlayback>(replay->events);
    ro.adversary = plan_adv.get();
    ro.channel = playback.get();
  } else {
    engine.set_fault_recorder(recorder);
    if (fs.channel.total_per_million() > 0) {
      auto ccfg = fs.channel;
      ccfg.seed = attempt_seed(ctx.spec.seed ^ kChannelStream, ctx.attempt);
      channel = std::make_unique<faultlab::ChannelAdversary>(ccfg, recorder);
      ro.channel = channel.get();
    }
    if (zoo.any_channel()) {
      // Classic channel noise stays first in the chain so its per-message
      // decisions match the standalone trajectory; zoo hooks stack after it.
      if (channel) hook_chain.add(*channel);
      faultlab::append_channel_hooks(
          hook_chain, zoo, attempt_seed(ctx.spec.seed, ctx.attempt), recorder);
      ro.channel = &hook_chain;
    }
    if (fs.periodic.corrupt + fs.periodic.clones + fs.periodic.edge_adds +
            fs.periodic.edge_removes >
        0) {
      periodic = std::make_unique<runtime::PeriodicAdversary>(
          attempt_seed(ctx.spec.seed, ctx.attempt), fs.periodic);
      ro.adversary = periodic.get();
    }
    if (zoo.any_state()) {
      if (periodic) adv_chain.add(*periodic);
      faultlab::append_state_adversaries(
          adv_chain, zoo, attempt_seed(ctx.spec.seed, ctx.attempt));
      ro.adversary = &adv_chain;
    }
  }

  faultlab::StabilizationSpec sspec;
  switch (task) {
    case SsTask::Mis:
      sspec.check = faultlab::mis_check(cfg);
      sspec.outputs = faultlab::mis_outputs();
      break;
    case SsTask::Line:
      sspec.check = faultlab::line_check(lcfg);
      sspec.outputs = faultlab::line_outputs();
      break;
    default:
      sspec.check = faultlab::coloring_check(cfg);
      sspec.outputs = faultlab::coloring_outputs();
      break;
  }
  sspec.recovery_budget = fs.recovery_budget;
  sspec.confirm_rounds = fs.confirm_rounds;
  run.outcome = faultlab::run_stabilization(engine, ro, sspec);
  engine.set_fault_recorder(nullptr);
  const auto& out = run.outcome;

  static_cast<runtime::RunReport&>(r) = out;
  r.ok = out.recovered;
  r.palette = task == SsTask::Line
                  ? graph::palette_size(selfstab::current_edge_colors(engine))
                  : graph::palette_size(selfstab::current_colors(engine));
  r.values = {{"recovery_rounds", d(out.recovery_rounds)},
              {"adjusted", d(out.adjusted.size())},
              {"last_fault_round", d(out.last_fault_round)}};
  if (task == SsTask::Mis) {
    std::size_t size = 0;
    for (const bool b : selfstab::current_mis(engine)) size += b;
    r.values.push_back({"mis_size", d(size)});
  }
  if (!out.recovered) {
    r.watchdog = true;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s at round %llu (u=%u v=%u value=%llu)",
                  faultlab::to_string(out.violation.kind),
                  static_cast<unsigned long long>(out.violation.round),
                  out.violation.u, out.violation.v,
                  static_cast<unsigned long long>(out.violation.value));
    r.error = buf;
  }
  return run;
}

namespace {

/// The ss-* runner: run_stabilization_job, replaying the `plan` key's file
/// when set and, with `plan-out`, saving the recorded faults when the job
/// fails.
JobResult run_ss(const RunnerContext& ctx) {
  const FaultSpec& fs = ctx.spec.faults;
  faultlab::FaultPlan plan;
  if (!fs.plan_path.empty()) plan = faultlab::FaultPlan::load(fs.plan_path);
  faultlab::FaultPlanRecorder recorder;
  const bool record = !fs.plan_out.empty() && fs.plan_path.empty() && fs.any();
  JobResult r = run_stabilization_job(ctx, fs.plan_path.empty() ? nullptr : &plan,
                                      record ? &recorder : nullptr)
                    .result;
  if (record) {
    if (!r.ok) {
      recorder.take().save(fs.plan_out);
    } else {
      // A retried job that recovered leaves no stale reproducer behind.
      std::remove(fs.plan_out.c_str());
    }
  }
  return r;
}

/// The non-coloring runners keep bespoke entries; everything in
/// coloring::algos() rides the shared run_registered dispatcher.
const Runner kExtraRunners[] = {
    {"mis", "AG coloring + MIS decision wave", &run_mis, false},
    {"matching", "maximal matching via line-graph MIS", &run_matching, false},
    {"ss-color", "self-stabilizing O(Delta)-coloring under faults", &run_ss, true},
    {"ss-color-exact", "self-stabilizing exact (Delta+1)-coloring under faults",
     &run_ss, true},
    {"ss-mis", "self-stabilizing MIS (coloring + decision wave) under faults",
     &run_ss, true},
    {"ss-line", "self-stabilizing (2Delta-1)-edge-coloring on L(G) under faults",
     &run_ss, true},
};

std::vector<Runner> build_runners() {
  std::vector<Runner> out;
  for (const coloring::AlgoSpec& a : coloring::algos()) {
    out.push_back({a.name, a.summary, &run_registered, false});
  }
  out.insert(out.end(), std::begin(kExtraRunners), std::end(kExtraRunners));
  return out;
}

}  // namespace

std::span<const Runner> runners() {
  static const std::vector<Runner> all = build_runners();
  return all;
}

const Runner* find_runner(std::string_view name) {
  for (const auto& r : runners()) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

}  // namespace agc::sched
