// bench_scale: the web-graph-scale campaign (docs/SCALE.md).
//
// Sweeps G(n,p) at average degree ~16 from n = 10^5 up to n = 10^7, building
// each instance directly into the frozen CSR (stream_gnp_frozen — the graph
// is never materialized in adjacency-vector form) and running the full
// (Delta+1) pipeline on the flat sweep.  Rows report build and coloring
// throughput plus the two memory figures the substrate is designed around:
// CSR bytes per vertex and peak packed-state bytes per vertex.
//
//   --threads N   sweep threads (0 = hardware)
//   --max-n N     largest instance to run (default 10^7; CI's scale-smoke
//                 job caps at 10^6 to fit the shared-runner RSS ceiling)
//   --json FILE   emit rows as BENCH_scale.json for the perf gate
//
// n = 10^8 is documented, not swept: the CSR model (spec.estimated_bytes)
// puts gnp n=10^8 avgdeg=16 at ~7.2 GB for topology alone, which exceeds
// what the default campaign should assume of a host; see docs/SCALE.md for
// the extrapolation.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "agc/graph/frozen.hpp"
#include "agc/graph/spec.hpp"
#include "agc/graph/view.hpp"
#include "agc/scale/flat.hpp"
#include "bench_util.hpp"

namespace {

struct ScaleArgs {
  benchutil::Options base;
  std::uint64_t max_n = 10'000'000;
};

ScaleArgs parse(int argc, char** argv) {
  // Peel --max-n off before the shared parser sees (and warns about) it.
  ScaleArgs a;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--max-n" && i + 1 < argc) {
      a.max_n = benchutil::parse_count("--max-n", argv[++i]);
    } else {
      rest.push_back(argv[i]);
    }
  }
  a.base = benchutil::parse_options(static_cast<int>(rest.size()), rest.data());
  return a;
}

/// Canonical gnp spec at average degree ~16 (p = 16/n).  %.17g makes the
/// probability round-trip exactly through GraphSpec's float parser, so the
/// spec string names the same instance everywhere.
std::string gnp16_spec(std::uint64_t n) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "gnp:n=%" PRIu64 ",p=%.17g,seed=1", n,
                16.0 / static_cast<double>(n));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agc;

  const ScaleArgs args = parse(argc, argv);
  benchutil::JsonEmitter json("bench_scale", args.base.threads);
  benchutil::Table table({"graph", "n", "m", "delta", "rounds", "palette",
                          "build_s", "color_s", "rounds/s", "csr B/v",
                          "state B/v"});

  for (const std::uint64_t n : {std::uint64_t{100'000}, std::uint64_t{1'000'000},
                                std::uint64_t{10'000'000}}) {
    if (n > args.max_n) continue;
    const std::string spec_str = gnp16_spec(n);
    const auto spec = graph::GraphSpec::parse(spec_str);

    const benchutil::WallClock build_clock;
    const graph::FrozenGraph f = spec.build_frozen();
    const double build_s = build_clock.seconds();

    scale::FlatOptions fo;
    fo.threads = args.base.threads;
    const benchutil::WallClock color_clock;
    const auto res = scale::color_delta_plus_one_flat(graph::GraphView(f), fo);
    const double color_s = color_clock.seconds();

    if (!res.proper || !res.converged) {
      std::fprintf(stderr, "bench_scale: %s did not converge to a proper coloring\n",
                   spec_str.c_str());
      return 1;
    }

    const double nv = static_cast<double>(f.n());
    const double csr_bpv = static_cast<double>(f.memory_bytes()) / nv;
    const double state_bpv = static_cast<double>(res.state_bytes) / nv;
    const double rounds_per_sec =
        color_s > 0 ? static_cast<double>(res.rounds) / color_s : 0.0;
    const double edges_per_sec =
        build_s > 0 ? static_cast<double>(f.m()) / build_s : 0.0;

    table.add_row({spec_str, benchutil::num(std::uint64_t{f.n()}),
                   benchutil::num(std::uint64_t{f.m()}),
                   benchutil::num(std::uint64_t{f.max_degree()}),
                   benchutil::num(std::uint64_t{res.rounds}),
                   benchutil::num(std::uint64_t{res.palette}),
                   benchutil::num(build_s), benchutil::num(color_s),
                   benchutil::num(rounds_per_sec), benchutil::num(csr_bpv),
                   benchutil::num(state_bpv)});

    json.row(spec_str)
        .kv("n", std::uint64_t{f.n()})
        .kv("m", std::uint64_t{f.m()})
        .kv("delta", std::uint64_t{f.max_degree()})
        .kv("rounds", std::uint64_t{res.rounds})
        .kv("rounds_linial", std::uint64_t{res.rounds_linial})
        .kv("rounds_core", std::uint64_t{res.rounds_core})
        .kv("rounds_finish", std::uint64_t{res.rounds_finish})
        .kv("palette", std::uint64_t{res.palette})
        .kv("build_s", build_s)
        .kv("color_s", color_s)
        .kv("rounds_per_sec", rounds_per_sec)
        .kv("build_edges_per_sec", edges_per_sec)
        .kv("csr_bytes", std::uint64_t{f.memory_bytes()})
        .kv("csr_bytes_per_vertex", csr_bpv)
        .kv("state_bytes_per_vertex", state_bpv);
  }

  table.print();
  json.write(args.base.json_path);
  return 0;
}
