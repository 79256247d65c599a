// table1 — the living Table 1: every registry algorithm of the paper's
// comparison (plus the Fu-Yin-Zheng successor and the Luby baseline) on
// random Delta-regular graphs, n = 1500, Delta in {4, 8, 16, 32}, each run
// dispatched through coloring::find_algo(name)->run on the sequential engine.
// The grid stops at Delta = 32: from Delta = 64 on, a run's working set
// spills into the shared L3, where co-tenant load makes wall time drift by
// up to 2x between runs (README.md, "Steadiness").

#include <map>
#include <string>
#include <vector>

#include "agc/coloring/registry.hpp"
#include "agc/graph/spec.hpp"
#include "agc/obs/phase_timer.hpp"
#include "pinned.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace agc;

constexpr const char* kAlgos[] = {"gps", "kw", "ag", "exact", "fyz", "luby"};
constexpr std::size_t kAlgoCount = std::size(kAlgos);

struct Instance {
  graph::GraphSpec spec;
  graph::FrozenGraph g;
  std::size_t delta = 0;
};

std::vector<std::size_t> deltas(const Args& args) {
  if (args.smoke) return {4, 32};
  std::vector<std::size_t> out;
  for (const auto& row : pinned::kTable1) out.push_back(row.delta);
  return out;
}

/// Parse and build every graph of the grid; each build in a `graph.build`
/// span when traced.
std::vector<Instance> build_instances(const Args& args, Tracer* tracer) {
  const std::size_t n = args.smoke ? 300 : 1500;
  std::vector<Instance> out;
  for (const std::size_t delta : deltas(args)) {
    Scope span(tracer, "graph.build", out.size());
    Instance inst;
    inst.spec = graph::GraphSpec::parse(
        "regular:n=" + std::to_string(n) + ",d=" + std::to_string(delta) +
        ",seed=" + std::to_string(derive_seed(1234 + delta, args.seed)));
    inst.g = inst.spec.build_frozen();
    inst.delta = delta;
    out.push_back(std::move(inst));
  }
  return out;
}

/// What a traced run must reproduce bit for bit.
struct Observables {
  std::uint64_t colors = 0;  ///< digest
  std::size_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;

  bool operator==(const Observables&) const = default;
};

struct RunOut {
  double wall_s = 0;
  Observables obs;
  obs::PhaseStats phases;  ///< filled when collect_phase_times is set
};

/// One registry run of config (instance i, algorithm a) and its checks.
RunOut run_config(const Args& args, const Instance& inst, std::size_t a,
                  const coloring::PipelineOptions& opts, bool first,
                  Checks& checks, Tracer* tracer, std::uint64_t id) {
  const coloring::AlgoSpec* spec = coloring::find_algo(kAlgos[a]);
  const std::string what = std::string(kAlgos[a]) + " on " + inst.spec.to_string();
  if (!checks.expect(spec != nullptr, "registry has no algorithm " + what)) {
    checks.op(false);
    return {};
  }
  coloring::PipelineReport rep;
  const std::uint64_t t0 = now_ns();
  {
    Scope span(tracer, std::string("coloring.") + kAlgos[a], id);
    rep = spec->run(graph::GraphView(inst.g), opts);
  }
  RunOut out;
  out.wall_s = to_s(now_ns() - t0);
  out.obs = {digest(rep.colors), rep.rounds, rep.metrics.messages,
             rep.metrics.total_bits};
  out.phases = rep.phases;

  std::vector<graph::Color>& colors = rep.colors;
  if (first && args.inject == "improper") inject_improper(inst.g, colors);
  const graph::GraphView g(inst.g);
  bool ok = checks.expect(rep.converged, what + ": did not converge");
  ok = checks.expect(colors.size() == g.n() && graph::is_proper_coloring(g, colors),
                     what + ": improper coloring") && ok;
  const std::uint64_t bound = spec->palette_bound(inst.delta, opts);
  ok = checks.expect(palette_of(colors) <= bound,
                     what + ": palette " + std::to_string(palette_of(colors)) +
                         " above bound " + std::to_string(bound)) && ok;
  if (!spec->requires_seed) {
    ok = checks.expect(rep.proper_each_round,
                       what + ": improper in some round") && ok;
  }
  if (args.seed == 0 && !args.smoke) {
    for (const auto& row : pinned::kTable1) {
      if (row.delta != inst.delta) continue;
      ok = checks.expect(rep.rounds == row.rounds[a],
                         what + ": rounds " + std::to_string(rep.rounds) +
                             " != pinned " + std::to_string(row.rounds[a])) && ok;
      if (std::string(kAlgos[a]) == "ag") {
        ok = checks.expect(rep.metrics.messages == row.ag_messages &&
                               rep.metrics.total_bits == row.ag_total_bits &&
                               rep.metrics.max_edge_bits == row.ag_max_edge_bits,
                           what + ": messages/bits differ from pinned") && ok;
      }
    }
  }
  checks.op(ok);
  return out;
}

coloring::PipelineOptions base_options(const Args& args) {
  coloring::PipelineOptions opts;
  opts.run().seed = derive_seed(1, args.seed);  // Luby's trajectory
  return opts;
}

void set_end_to_end(const Args& args, const std::vector<Instance>& insts,
                    Report& report, Checks& checks) {
  const coloring::PipelineOptions opts = base_options(args);
  const std::size_t configs = insts.size() * kAlgoCount;
  std::vector<std::vector<double>> samples(configs);
  const std::uint64_t t0 = now_ns();
  // Whole passes over the grid until the budget is spent; the first pass
  // always completes.  A later pass skips a config that would overrun.
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t c = 0; c < configs; ++c) {
      const double elapsed = to_s(now_ns() - t0);
      if (pass > 0 && elapsed + samples[c].front() > args.seconds) continue;
      const RunOut r = run_config(args, insts[c / kAlgoCount], c % kAlgoCount,
                                  opts, pass == 0 && c == 0, checks, nullptr, c);
      samples[c].push_back(r.wall_s);
    }
    if (to_s(now_ns() - t0) >= args.seconds) break;
  }
  double color_s = 0;
  for (const auto& s : samples) color_s += median(s);
  report.set("color_s", color_s, "s");
}

void set_per_layer(const Args& args, const std::vector<Instance>& insts,
                   Report& report, Checks& checks) {
  const std::size_t configs = insts.size() * kAlgoCount;

  // Untraced reference pass: the observables and wall the traced pass must
  // match.
  std::vector<Observables> ref(configs);
  double untraced_s = 0;
  {
    const coloring::PipelineOptions opts = base_options(args);
    for (std::size_t c = 0; c < configs; ++c) {
      const RunOut r = run_config(args, insts[c / kAlgoCount], c % kAlgoCount,
                                  opts, c == 0, checks, nullptr, c);
      ref[c] = r.obs;
      untraced_s += r.wall_s;
    }
  }

  Tracer tracer;
  SpanSink sink(tracer);
  std::map<std::string, ChangeCounter> changed;  // "<algo>.<stage>"
  RoundDiff diff;
  std::string algo;
  coloring::PipelineOptions opts = base_options(args);
  opts.run().sink = &sink;
  opts.run().collect_phase_times = true;
  opts.iter.on_round = [&](std::size_t round, std::span<const graph::Color> cur) {
    const std::uint64_t n = diff.observe(round, cur);
    if (round == 0) return;
    ChangeCounter& cc = changed[algo + "." + sink.stage()];
    cc.changed += n;
    cc.stepped += cur.size();
  };

  const std::uint64_t t0 = now_ns();
  const std::vector<Instance> traced_insts = build_instances(args, &tracer);
  double traced_s = 0;
  obs::PhaseStats phases;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  for (std::size_t c = 0; c < configs; ++c) {
    algo = kAlgos[c % kAlgoCount];
    sink.set_id(c);
    // Runs on the traced rebuild: identical specs, so identical graphs.
    const RunOut r = run_config(args, traced_insts[c / kAlgoCount],
                                c % kAlgoCount, opts, false, checks, &tracer, c);
    traced_s += r.wall_s;
    phases.merge(r.phases);
    checks.require(r.obs == ref[c], algo + " on " +
                                        insts[c / kAlgoCount].spec.to_string() +
                                        ": traced run differs from untraced");
    messages += r.obs.messages;
    bits += r.obs.total_bits;
  }
  const std::uint64_t t1 = now_ns();

  // Per-algorithm and per-stage time from the spans: a front-door span is
  // `coloring.<algo>`; its direct `stage.*` children (or, for a runner
  // without stages, its `run.*` children) are the stages.
  const auto& spans = tracer.spans();
  std::map<std::string, double> algo_s;
  std::map<std::string, double> stage_s;
  double build_s = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "graph.build") build_s += to_s(s.end - s.start);
    if (s.name.rfind("coloring.", 0) != 0) continue;
    const std::string a = s.name.substr(9);
    algo_s[a] += to_s(s.end - s.start);
    bool staged = false;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[j].parent == static_cast<int>(i) &&
          spans[j].name.rfind("stage.", 0) == 0) {
        staged = true;
        stage_s[a + "." + spans[j].name.substr(6)] += to_s(spans[j].end - spans[j].start);
      }
    }
    if (staged) continue;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[j].parent == static_cast<int>(i) &&
          spans[j].name.rfind("run.", 0) == 0) {
        stage_s[a + "." + spans[j].name.substr(4)] += to_s(spans[j].end - spans[j].start);
      }
    }
  }

  double csr_bytes = 0;
  double vertices = 0;
  for (const Instance& inst : insts) {
    csr_bytes += static_cast<double>(inst.g.memory_bytes());
    vertices += static_cast<double>(inst.g.n());
  }
  report.set("graph.build_s", build_s, "s");
  report.set("graph.csr_bytes_per_v", csr_bytes / vertices, "B");
  for (const auto& [a, s] : algo_s) report.set("coloring." + a + "_s", s, "s");
  for (const auto& [k, s] : stage_s) report.set("coloring." + k + "_s", s, "s");
  for (const auto& [k, cc] : changed) {
    report.set("coloring.changed_frac." + k, cc.frac(), "ratio");
  }
  const auto phase_s = [&](obs::Phase p) { return to_s(phases.phase_ns(p)); };
  report.set("runtime.send_s", phase_s(obs::Phase::Send), "s");
  report.set("runtime.deliver_s", phase_s(obs::Phase::Deliver), "s");
  report.set("runtime.receive_s", phase_s(obs::Phase::Receive), "s");
  report.set("runtime.check_s", phase_s(obs::Phase::Check), "s");
  report.set("runtime.deliver_ns_per_msg",
             messages == 0 ? 0.0
                           : static_cast<double>(phases.phase_ns(obs::Phase::Deliver)) /
                                 static_cast<double>(messages),
             "ns");
  report.set("runtime.messages", static_cast<double>(messages), "count");
  report.set("runtime.total_bits", static_cast<double>(bits), "bit");
  report.set("trace.overhead_frac", untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0,
             "ratio");
  report.set("trace.coverage", tracer.coverage(t0, t1), "ratio");
  tracer.print_table("table1", t0, t1);
  tracer.write_jsonl(args.trace_out);
}

}  // namespace

void run_table1(const Args& args, Report& report, Checks& checks) {
  // Set-up, several times when it is reported: spec parse + graph build of
  // the whole grid.
  std::vector<double> setup;
  std::vector<Instance> insts;
  for (int k = 0; k < (args.trace ? 1 : args.smoke ? 2 : 5); ++k) {
    const std::uint64_t t0 = now_ns();
    insts = build_instances(args, nullptr);
    setup.push_back(to_s(now_ns() - t0));
  }
  if (args.trace) {
    set_per_layer(args, insts, report, checks);
  } else {
    report.set("setup_s", median(setup), "s");
    set_end_to_end(args, insts, report, checks);
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace perfbench
