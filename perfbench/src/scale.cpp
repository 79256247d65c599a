// scale — the (Delta+1) pipeline at scale: G(n, p) with n = 10^6 streamed
// straight into CSR by GraphSpec::build_frozen and colored by
// scale::color_delta_plus_one_flat at 4 threads.  The engine does no work
// in the timed runs; the traced run adds the 1-thread flat baseline and the
// same graph through registry `ag` on the engine.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agc/coloring/registry.hpp"
#include "agc/graph/spec.hpp"
#include "agc/obs/phase_timer.hpp"
#include "agc/scale/flat.hpp"
#include "pinned.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace agc;

graph::GraphSpec scale_spec(const Args& args) {
  const std::string seed = std::to_string(derive_seed(1, args.seed));
  return graph::GraphSpec::parse(
      args.smoke ? "gnp:n=20000,p=0.0008,seed=" + seed
                 : "gnp:n=1000000,p=1.5999999999999999e-05,seed=" + seed);
}

/// Checks of one flat coloring; counts it as one operation.
void check_flat(const Args& args, const graph::FrozenGraph& g,
                scale::FlatResult& r, bool first, Checks& checks) {
  if (first && args.inject == "improper") inject_improper(g, r.colors);
  const std::string what = "flat coloring";
  bool ok = checks.expect(r.converged, what + ": did not converge");
  ok = checks.expect(r.colors.size() == g.n() && graph::is_proper_coloring(g, r.colors),
                     what + ": improper coloring") && ok;
  const std::size_t palette = palette_of(r.colors);
  ok = checks.expect(palette <= g.max_degree() + 1,
                     what + ": palette " + std::to_string(palette) + " above Delta+1") && ok;
  if (args.seed == 0 && !args.smoke) {
    const auto& p = pinned::kScale;
    ok = checks.expect(g.n() == p.n && g.m() == p.m && g.max_degree() == p.delta,
                       what + ": n/m/Delta differ from pinned") && ok;
    ok = checks.expect(r.rounds_linial == p.rounds_linial &&
                           r.rounds_core == p.rounds_core &&
                           r.rounds_finish == p.rounds_finish,
                       what + ": round split differs from pinned 2/7/21") && ok;
    ok = checks.expect(palette == p.palette, what + ": palette differs from pinned") && ok;
  }
  checks.op(ok);
}

struct FlatRun {
  double wall_s = 0;
  scale::FlatResult result;
};

FlatRun color_flat(const graph::FrozenGraph& g, std::size_t threads,
                   Tracer* tracer, const char* span) {
  FlatRun out;
  const std::uint64_t t0 = now_ns();
  {
    Scope s(tracer, span, threads);
    out.result = scale::color_delta_plus_one_flat(graph::GraphView(g),
                                                  scale::FlatOptions{threads});
  }
  out.wall_s = to_s(now_ns() - t0);
  return out;
}

void set_end_to_end(const Args& args, const graph::FrozenGraph& g,
                    Report& report, Checks& checks) {
  std::vector<double> samples;
  const std::uint64_t t0 = now_ns();
  // Repeat until the budget is spent; never start a run that would overrun
  // it by the median so far, but always run at least one.
  while (samples.empty() || to_s(now_ns() - t0) + median(samples) <= args.seconds) {
    FlatRun r = color_flat(g, kScaleThreads, nullptr, "scale.flat");
    check_flat(args, g, r.result, samples.empty(), checks);
    samples.push_back(r.wall_s);
  }
  report.set("color_s", median(samples), "s");
}

void set_per_layer(const Args& args, std::optional<graph::FrozenGraph>& setup_graph,
                   Report& report, Checks& checks) {
  // Untraced reference: the observables and wall the traced pass must match.
  FlatRun ref = color_flat(*setup_graph, kScaleThreads, nullptr, "scale.flat");
  check_flat(args, *setup_graph, ref.result, true, checks);
  const std::uint64_t ref_digest = digest(ref.result.colors);
  setup_graph.reset();  // the traced pass rebuilds it

  Tracer tracer;
  const std::uint64_t t0 = now_ns();
  std::optional<graph::FrozenGraph> built;
  double build_s = 0;
  {
    const std::uint64_t b0 = now_ns();
    Scope s(&tracer, "graph.build", 0);
    built = scale_spec(args).build_frozen();
    build_s = to_s(now_ns() - b0);
  }
  const graph::FrozenGraph& g = *built;

  FlatRun r4 = color_flat(g, kScaleThreads, &tracer, "scale.flat");
  check_flat(args, g, r4.result, false, checks);
  checks.require(digest(r4.result.colors) == ref_digest && r4.result.rounds == ref.result.rounds,
                 "scale: traced flat run differs from untraced");
  FlatRun r1 = color_flat(g, 1, &tracer, "scale.flat.1thread");
  checks.require(digest(r1.result.colors) == ref_digest,
                 "scale: 1-thread flat colors differ from 4-thread");

  // The same graph on the engine, through the registry: the changed-fraction
  // oracle, and the engine's cost on this graph.
  SpanSink sink(tracer);
  RoundDiff diff;
  std::map<std::string, ChangeCounter> changed;
  coloring::PipelineOptions opts;
  opts.run().sink = &sink;
  opts.run().collect_phase_times = true;
  opts.iter.on_round = [&](std::size_t round, std::span<const graph::Color> cur) {
    const std::uint64_t n = diff.observe(round, cur);
    if (round == 0) return;
    ChangeCounter& cc = changed[sink.stage()];
    cc.changed += n;
    cc.stepped += cur.size();
  };
  const coloring::AlgoSpec* ag = coloring::find_algo("ag");
  coloring::PipelineReport engine;
  const std::uint64_t e0 = now_ns();
  int engine_span = -1;
  if (checks.expect(ag != nullptr, "registry has no algorithm ag")) {
    engine_span = tracer.begin("coloring.ag", 0);
    engine = ag->run(graph::GraphView(g), opts);
    tracer.end(engine_span);
  }
  const double engine_s = to_s(now_ns() - e0);
  checks.require(engine.converged && digest(engine.colors) == ref_digest,
                 "scale: engine ag colors differ from the flat runner");
  const std::uint64_t t1 = now_ns();

  std::map<std::string, double> stage_s;
  const auto& spans = tracer.spans();
  for (const Span& s : spans) {
    if (engine_span >= 0 && s.parent == engine_span && s.name.rfind("stage.", 0) == 0) {
      stage_s[s.name.substr(6)] += to_s(s.end - s.start);
    }
  }

  const double n = static_cast<double>(g.n());
  const scale::FlatResult& fr = r4.result;
  report.set("graph.build_s", build_s, "s");
  report.set("graph.csr_bytes_per_v", static_cast<double>(g.memory_bytes()) / n, "B");
  report.set("scale.rounds_linial", static_cast<double>(fr.rounds_linial), "count");
  report.set("scale.rounds_core", static_cast<double>(fr.rounds_core), "count");
  report.set("scale.rounds_finish", static_cast<double>(fr.rounds_finish), "count");
  report.set("scale.edge_visits_per_s",
             static_cast<double>(fr.rounds) * 2.0 * static_cast<double>(g.m()) / r4.wall_s,
             "1/s");
  report.set("scale.state_bytes_per_v", static_cast<double>(fr.state_bytes) / n, "B");
  report.set("scale.engine_color_s", engine_s, "s");
  report.set("exec.speedup", r1.wall_s / r4.wall_s, "ratio");
  report.set("coloring.ag_s", engine_s, "s");
  for (const auto& [stage, s] : stage_s) report.set("coloring.ag." + stage + "_s", s, "s");
  for (const auto& [stage, cc] : changed) {
    report.set("coloring.changed_frac." + stage, cc.frac(), "ratio");
  }
  const auto phase_s = [&](obs::Phase p) { return to_s(engine.phases.phase_ns(p)); };
  report.set("runtime.send_s", phase_s(obs::Phase::Send), "s");
  report.set("runtime.deliver_s", phase_s(obs::Phase::Deliver), "s");
  report.set("runtime.receive_s", phase_s(obs::Phase::Receive), "s");
  report.set("runtime.check_s", phase_s(obs::Phase::Check), "s");
  report.set("runtime.deliver_ns_per_msg",
             engine.metrics.messages == 0
                 ? 0.0
                 : static_cast<double>(engine.phases.phase_ns(obs::Phase::Deliver)) /
                       static_cast<double>(engine.metrics.messages),
             "ns");
  report.set("runtime.messages", static_cast<double>(engine.metrics.messages), "count");
  report.set("runtime.total_bits", static_cast<double>(engine.metrics.total_bits), "bit");
  report.set("trace.overhead_frac", r4.wall_s / ref.wall_s - 1.0, "ratio");
  report.set("trace.coverage", tracer.coverage(t0, t1), "ratio");
  tracer.print_table("scale", t0, t1);
  tracer.write_jsonl(args.trace_out);
}

}  // namespace

void run_scale(const Args& args, Report& report, Checks& checks) {
  // Set-up, several times when it is reported: spec parse + streaming
  // build into CSR.
  std::vector<double> setup;
  std::optional<graph::FrozenGraph> g;
  for (int k = 0; k < (args.trace ? 1 : args.smoke ? 2 : 5); ++k) {
    g.reset();
    const std::uint64_t t0 = now_ns();
    g = scale_spec(args).build_frozen();
    setup.push_back(to_s(now_ns() - t0));
  }
  if (args.trace) {
    set_per_layer(args, g, report, checks);
  } else {
    report.set("setup_s", median(setup), "s");
    set_end_to_end(args, *g, report, checks);
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace perfbench
