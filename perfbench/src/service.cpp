// service — the self-stabilizing repair service: svc::Service on
// G(4000, 0.002) with epoch_batch 256 and the sequential executor, fed the
// seeded svc::Workload op stream open-loop from the harness thread.  Op i
// is due at t0 + i / rate; between pumps the harness submits every due op, and
// pump() runs whenever the queue is non-empty.  An op's latency runs from
// its due time to the return of the pump() that completed it.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agc/graph/spec.hpp"
#include "agc/svc/service.hpp"
#include "agc/svc/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace agc;

constexpr double kLatencyLimitMs = 50.0;
constexpr std::size_t kEpochBatch = 256;

struct Rate {
  const char* tag;  ///< metric suffix
  double ops_per_s;
};
constexpr Rate kRates[] = {{"2k", 2000.0}, {"10k", 10000.0}};

/// Ops per fixed-rate phase: two seconds of arrivals, so p99 has well over
/// ten samples beyond it (40 at 2k/s).
std::size_t phase_ops(const Args& args, double rate) {
  return static_cast<std::size_t>(rate * (args.smoke ? 0.2 : 2.0));
}

svc::ServiceConfig make_config(const Args& args) {
  svc::ServiceConfig cfg;
  const std::string seed = std::to_string(derive_seed(11, args.seed));
  cfg.spec = graph::GraphSpec::parse(args.smoke ? "gnp:n=500,p=0.016,seed=" + seed
                                                : "gnp:n=4000,p=0.002,seed=" + seed);
  cfg.epoch_batch = kEpochBatch;  // run.executor stays null: sequential
  return cfg;
}

/// A freshly booted service and what its set-up cost.
struct Booted {
  std::unique_ptr<svc::Service> service;
  double setup_s = 0;  ///< spec parse + graph build + boot settle
  double build_s = 0;  ///< the GraphSpec build alone
  double boot_s = 0;   ///< Service construction (from-scratch settle)
};

Booted boot(const Args& args, obs::EventSink* sink, Tracer* tracer) {
  Booted b;
  const std::uint64_t t0 = now_ns();
  svc::ServiceConfig cfg = make_config(args);
  cfg.run.sink = sink;
  {
    Scope s(tracer, "graph.build", 0);
    const std::uint64_t b0 = now_ns();
    const graph::Graph g = cfg.spec.build();
    b.build_s = to_s(now_ns() - b0);
  }
  const std::uint64_t c0 = now_ns();
  {
    Scope s(tracer, "svc.boot", 0);
    b.service = std::make_unique<svc::Service>(std::move(cfg));
  }
  const std::uint64_t c1 = now_ns();
  b.boot_s = to_s(c1 - c0);
  b.setup_s = to_s(c1 - t0);
  return b;
}

/// The seeded op stream for one phase (generation is not timed: the
/// simulated clients are independent of the service).
std::vector<svc::Op> make_ops(const Args& args, const svc::Service& service,
                              std::size_t n, bool inject_reject) {
  svc::WorkloadSpec ws;
  ws.seed = derive_seed(42, args.seed);
  ws.ops = n;
  svc::Workload wl(service, ws);
  std::vector<svc::Op> ops;
  ops.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) ops.push_back(wl.next());
  if (inject_reject) {
    // A self-loop: invalid under every apply rule, so the service rejects it.
    ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(n / 2),
               svc::Op{svc::OpKind::AddEdge, 0, 0});
  }
  return ops;
}

struct PhaseOut {
  double rate = 0;
  std::size_t ops = 0;
  std::vector<double> lat_ms;
  std::vector<double> pump_ms;
  std::vector<double> batch;
  std::vector<double> queue_wait_ms;
  std::vector<double> gen_late_ms;
  double wall_s = 0;
  double busy_s = 0;
  std::uint64_t rejected = 0;
  bool growing = false;
  svc::ServiceStats stats;
  std::size_t live = 0;

  [[nodiscard]] double p50() const { return quantile(lat_ms, 0.50); }
  [[nodiscard]] double p99() const { return quantile(lat_ms, 0.99); }
  [[nodiscard]] bool meets_limit() const {
    return rejected == 0 && !growing && p99() <= kLatencyLimitMs;
  }
};

/// Sleep (coarsely) then spin until `due`.
void wait_until(std::uint64_t due) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= due) return;
    if (due - now > 300'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 200'000));
    }
  }
}

/// The final coloring: proper on the live graph and within the palette.
void check_final(const Args& args, const svc::Service& service, bool first,
                 Checks& checks) {
  std::vector<graph::Color> colors = service.colors();
  const graph::GraphView g = service.graph();
  if (first && args.inject == "improper") inject_improper(g, colors);
  bool in_palette = colors.size() == g.n();
  for (graph::Vertex v = 0; in_palette && v < g.n(); ++v) {
    in_palette = !service.live(v) || service.coloring_config().is_final(colors[v]);
  }
  checks.require(in_palette && graph::is_proper_coloring(g, colors),
                 "service: final coloring improper or outside the palette");
  checks.require(service.stats().legality_violations == 0,
                 "service: an epoch never reached a legal coloring");
}

/// Drive one fresh service open-loop at `rate` over `ops`.
PhaseOut run_open_loop(const Args& args, svc::Service& service,
                       const std::vector<svc::Op>& ops, double rate, bool first,
                       Checks& checks, Tracer* tracer) {
  PhaseOut out;
  out.rate = rate;
  out.ops = ops.size();
  const std::size_t n = ops.size();
  const double step_ns = 1e9 / rate;
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<std::uint64_t>(std::llround(static_cast<double>(i) * step_ns));
  };
  std::vector<std::uint64_t> due_of(n, 0);  // by op_id
  std::size_t next = 0;
  std::size_t completed = 0;
  std::size_t backlog_mid = 0;
  std::uint64_t last_done = t0;
  out.lat_ms.reserve(n);
  while (completed < n) {
    const std::uint64_t now = now_ns();
    while (next < n && due(next) <= now) {
      const std::uint64_t id = service.submit(ops[next]);
      if (id < n) due_of[id] = due(next);
      out.gen_late_ms.push_back(to_ms(now - due(next)));
      ++next;
      if (next == n / 2) backlog_mid = next - completed;
      if (next == n) out.growing = next - completed > backlog_mid + kEpochBatch;
    }
    if (service.pending() == 0) {
      Scope s(tracer, "client.wait", out.pump_ms.size());
      wait_until(due(next));
      continue;
    }
    const std::uint64_t p0 = now_ns();
    std::vector<svc::OpResult> results;
    {
      Scope s(tracer, "svc.pump", out.pump_ms.size());  // id: epoch ordinal
      results = service.pump();
    }
    const std::uint64_t p1 = now_ns();
    out.pump_ms.push_back(to_ms(p1 - p0));
    out.batch.push_back(static_cast<double>(results.size()));
    out.busy_s += to_s(p1 - p0);
    for (const svc::OpResult& r : results) {
      const std::uint64_t d = r.op_id < n ? due_of[r.op_id] : p0;
      out.lat_ms.push_back(to_ms(p1 - d));
      out.queue_wait_ms.push_back(to_ms(p0 > d ? p0 - d : 0));
      if (r.status != svc::OpStatus::Ok) ++out.rejected;
      ++completed;
    }
    last_done = p1;
  }
  out.wall_s = to_s(last_done - t0);
  out.stats = service.stats();
  out.live = service.live_vertices();
  // A rejected op misses every latency limit: it is a failed operation.
  checks.ops(n, out.rejected);
  checks.expect(out.rejected == 0, "service: " + std::to_string(out.rejected) +
                                       " rejected ops at " + std::to_string(rate) + " ops/s");
  check_final(args, service, first, checks);
  return out;
}

struct Samples {
  std::vector<double> setup_s, build_s, boot_s;
  void add(const Booted& b) {
    setup_s.push_back(b.setup_s);
    build_s.push_back(b.build_s);
    boot_s.push_back(b.boot_s);
  }
};

/// One fixed-rate (or probe) phase from a fresh service.  The heap is
/// trimmed after the service is gone, so each phase starts from the same
/// resident set, as a restarted service would, and peak RSS does not depend
/// on how earlier phases fragmented it.
PhaseOut phase(const Args& args, double rate, std::size_t n_ops, bool first,
               Samples& samples, Checks& checks, obs::EventSink* sink = nullptr,
               Tracer* tracer = nullptr) {
  PhaseOut out;
  {
    Booted b = boot(args, sink, tracer);
    samples.add(b);
    std::vector<svc::Op> ops;
    {
      Scope s(tracer, "client.gen", 0);
      ops = make_ops(args, *b.service, n_ops, first && args.inject == "reject");
    }
    out = run_open_loop(args, *b.service, ops, rate, first, checks, tracer);
  }
  malloc_trim(0);
  return out;
}

void print_phase(const char* tag, const PhaseOut& p) {
  std::printf("service %-5s offered %8.0f ops/s: %6zu ops, p50 %7.3f ms, p99 %7.3f ms, "
              "%zu epochs, busy %.2f, %s\n",
              tag, p.rate, p.ops, p.p50(), p.p99(), p.pump_ms.size(),
              p.wall_s > 0 ? p.busy_s / p.wall_s : 0.0,
              p.meets_limit() ? "meets limit" : "misses limit");
}

/// Highest offered rate meeting the limit: double past the last good rate,
/// then bisect geometrically until the bracket is within `resolution`.
double max_rate(const Args& args, const PhaseOut& at2k, const PhaseOut& at10k,
                Samples& samples, Checks& checks) {
  const double resolution = args.smoke ? 1.25 : 1.02;
  const double probe_s = args.smoke ? 0.2 : 2.0;
  const auto meets = [&](double rate) {
    const auto n = static_cast<std::size_t>(std::max(200.0, rate * probe_s));
    const PhaseOut p = phase(args, rate, n, false, samples, checks);
    print_phase("probe", p);
    return p.meets_limit();
  };
  double lo = 0;
  double hi = 0;
  if (at10k.meets_limit()) {
    lo = at10k.rate;
  } else if (at2k.meets_limit()) {
    lo = at2k.rate;
    hi = at10k.rate;
  } else {
    lo = 250.0;
    hi = at2k.rate;
  }
  while (hi == 0) {
    if (meets(2 * lo) && lo < 1e6) {
      lo *= 2;
    } else {
      hi = 2 * lo;
    }
  }
  while (hi / lo > resolution) {
    const double mid = std::sqrt(lo * hi);
    if (meets(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void set_end_to_end(const Args& args, Report& report, Checks& checks) {
  Samples samples;
  const std::uint64_t t0 = now_ns();
  double round_s = 0;
  bool first = true;
  // Whole rounds of the fixed-rate phases until the budget is spent.
  while (first || to_s(now_ns() - t0) + round_s <= args.seconds) {
    const std::uint64_t r0 = now_ns();
    for (const Rate& r : kRates) {
      const PhaseOut p = phase(args, r.ops_per_s, phase_ops(args, r.ops_per_s),
                               first, samples, checks);
      print_phase(r.tag, p);
      first = false;
    }
    round_s = to_s(now_ns() - r0);
  }
  report.set("setup_s", median(samples.setup_s), "s");
  report.set("color_s", median(samples.boot_s), "s");
}

/// Closed-loop replay of one op stream in whole epochs: deterministic, so
/// its colors, rounds, messages and bits must not depend on tracing.
struct Replay {
  double wall_s = 0;
  std::uint64_t colors = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
};

Replay replay(const Args& args, obs::EventSink* sink, Tracer* tracer, Samples& samples,
              Checks& checks) {
  Booted b = boot(args, sink, tracer);
  samples.add(b);
  const std::vector<svc::Op> ops =
      make_ops(args, *b.service, phase_ops(args, kRates[0].ops_per_s), false);
  const std::uint64_t t0 = now_ns();
  for (const svc::Op& op : ops) b.service->submit(op);
  std::uint64_t rejected = 0;
  for (std::uint64_t epoch = 0; b.service->pending() > 0; ++epoch) {
    Scope s(tracer, "svc.pump", epoch);
    for (const svc::OpResult& r : b.service->pump()) {
      if (r.status != svc::OpStatus::Ok) ++rejected;
    }
  }
  Replay out;
  out.wall_s = to_s(now_ns() - t0);
  const runtime::RunReport rep = b.service->report();
  out.colors = digest(b.service->colors());
  out.rounds = rep.rounds;
  out.messages = rep.metrics.messages;
  out.total_bits = rep.metrics.total_bits;
  checks.ops(ops.size(), rejected);
  check_final(args, *b.service, false, checks);
  return out;
}

void set_per_layer(const Args& args, Report& report, Checks& checks) {
  // Untraced: the fixed-rate phases, the max-rate search and the replay.
  Samples samples;
  std::vector<PhaseOut> fixed;
  for (const Rate& r : kRates) {
    fixed.push_back(phase(args, r.ops_per_s, phase_ops(args, r.ops_per_s),
                          fixed.empty(), samples, checks));
    print_phase(r.tag, fixed.back());
  }
  const double best = max_rate(args, fixed[0], fixed[1], samples, checks);
  const Replay plain = replay(args, nullptr, nullptr, samples, checks);

  // Traced: the same replay, then the fixed-rate phases, with the sink on
  // ServiceConfig::run.sink.
  Tracer tracer;
  SpanSink sink(tracer);
  const std::uint64_t t0 = now_ns();
  Samples traced_samples;
  const Replay traced = replay(args, &sink, &tracer, traced_samples, checks);
  checks.require(traced.colors == plain.colors && traced.rounds == plain.rounds &&
                     traced.messages == plain.messages &&
                     traced.total_bits == plain.total_bits,
                 "service: traced replay differs from untraced");
  struct EpochSplit {
    double rounds_per_epoch = 0, round_ms = 0, self_ms = 0;
  };
  std::vector<EpochSplit> split;
  for (const Rate& r : kRates) {
    const std::size_t first_span = tracer.spans().size();
    const PhaseOut p = phase(args, r.ops_per_s, phase_ops(args, r.ops_per_s), false,
                             traced_samples, checks, &sink, &tracer);
    print_phase(r.tag, p);
    // Epoch spans come from the service's StageStart/StageEnd pair, rounds
    // from the engine's RoundEnd events inside them.
    const auto& spans = tracer.spans();
    const auto self = tracer.self_ns();
    double epochs = 0, rounds = 0, round_ns = 0, self_ns = 0;
    for (std::size_t i = first_span; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.name == "stage.svc.epoch") {
        epochs += 1;
        self_ns += static_cast<double>(self[i]);
      } else if (s.name == "runtime.round" && s.parent >= 0 &&
                 spans[static_cast<std::size_t>(s.parent)].name == "stage.svc.epoch") {
        rounds += 1;
        round_ns += static_cast<double>(s.end - s.start);
      }
    }
    split.push_back({epochs > 0 ? rounds / epochs : 0.0,
                     rounds > 0 ? round_ns / rounds * 1e-6 : 0.0,
                     epochs > 0 ? self_ns / epochs * 1e-6 : 0.0});
  }
  const std::uint64_t t1 = now_ns();

  report.set("graph.build_s", median(samples.build_s), "s");
  report.set("svc.boot_s", median(samples.boot_s), "s");
  report.set("svc.max_rate_ops_s", best, "1/s");
  for (std::size_t k = 0; k < fixed.size(); ++k) {
    const PhaseOut& p = fixed[k];
    const std::string r = kRates[k].tag;
    report.set("svc.lat_p50_ms." + r, p.p50(), "ms");
    report.set("svc.lat_p99_ms." + r, p.p99(), "ms");
    report.set("svc.ops." + r, static_cast<double>(p.ops), "count");
    report.set("svc.epoch_ms_p50." + r, quantile(p.pump_ms, 0.50), "ms");
    report.set("svc.epoch_ms_p99." + r, quantile(p.pump_ms, 0.99), "ms");
    report.set("svc.busy_frac." + r, p.wall_s > 0 ? p.busy_s / p.wall_s : 0.0, "ratio");
    report.set("svc.batch_mean." + r, mean(p.batch), "count");
    report.set("svc.queue_wait_ms_p50." + r, quantile(p.queue_wait_ms, 0.50), "ms");
    report.set("svc.gen_late_ms_p99." + r, quantile(p.gen_late_ms, 0.99), "ms");
    const double epochs = static_cast<double>(p.stats.epochs);
    const double adjusted = static_cast<double>(p.stats.adjusted_total);
    const double vertex_rounds =
        static_cast<double>(p.live) * static_cast<double>(p.stats.repair_rounds);
    report.set("svc.adjusted_per_epoch." + r, epochs > 0 ? adjusted / epochs : 0.0, "count");
    report.set("svc.adjusted_frac." + r, vertex_rounds > 0 ? adjusted / vertex_rounds : 0.0,
               "ratio");
    report.set("svc.repair_rounds_per_epoch." + r, split[k].rounds_per_epoch, "count");
    report.set("svc.round_ms." + r, split[k].round_ms, "ms");
    report.set("svc.epoch_self_ms." + r, split[k].self_ms, "ms");
  }
  report.set("runtime.messages", static_cast<double>(plain.messages), "count");
  report.set("runtime.total_bits", static_cast<double>(plain.total_bits), "bit");
  report.set("trace.overhead_frac", plain.wall_s > 0 ? traced.wall_s / plain.wall_s - 1.0 : 0.0,
             "ratio");
  report.set("trace.coverage", tracer.coverage(t0, t1), "ratio");
  tracer.print_table("service", t0, t1);
  tracer.write_jsonl(args.trace_out);
}

}  // namespace

void run_service(const Args& args, Report& report, Checks& checks) {
  if (args.trace) {
    set_per_layer(args, report, checks);
  } else {
    set_end_to_end(args, report, checks);
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace perfbench
