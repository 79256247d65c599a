#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.hpp"

/// Bridge between google-benchmark binaries and the repo's shared bench
/// surface (bench_util.hpp): the same `--json FILE` flag and BENCH_*.json row
/// format the table regenerators emit, so CI can diff google-benchmark
/// results (bench_micro) with the exact tooling it uses for bench_table1.
///
/// Usage (see bench_micro.cpp):
///   int main(int argc, char** argv) {
///     return benchutil::run_gbench_main(argc, argv, "micro");
///   }

namespace benchutil {

/// Remove `--flag VALUE` from argv (so google-benchmark's own parser does not
/// reject it) and return VALUE, or "" if absent.
inline std::string extract_flag(int& argc, char** argv, const std::string& flag) {
  std::string value;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (argv[r] == flag && r + 1 < argc) {
      value = argv[++r];
      continue;
    }
    argv[w++] = argv[r];
  }
  argc = w;
  return value;
}

/// Console reporter that additionally records one JsonEmitter row per run:
/// name, iterations, per-iteration real/cpu time, and every user counter
/// (items_per_second shows up here for benchmarks that SetItemsProcessed).
class JsonRowReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRowReporter(JsonEmitter& json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      auto& row = json_.row();  // row() tags "threads" for structural keying
      row.kv("name", run.benchmark_name())
          .kv("iterations", static_cast<std::uint64_t>(run.iterations))
          .kv("real_time_per_iter_s", run.real_accumulated_time / iters)
          .kv("cpu_time_per_iter_s", run.cpu_accumulated_time / iters);
      for (const auto& [key, counter] : run.counters) {
        row.kv(key, static_cast<double>(counter.value));
      }
    }
  }

 private:
  JsonEmitter& json_;
};

/// Shared main() body for google-benchmark binaries: honors AGC_THREADS via
/// default_threads() (exposed to benchmarks as benchutil::gbench_threads())
/// and `--json FILE` via the row reporter above.
inline std::size_t& gbench_threads() {
  static std::size_t threads = 1;
  return threads;
}

inline int run_gbench_main(int argc, char** argv, const std::string& bench_name) {
  const std::string json_path = extract_flag(argc, argv, "--json");
  const std::string threads_flag = extract_flag(argc, argv, "--threads");
  gbench_threads() = threads_flag.empty()
                         ? agc::exec::default_threads()
                         : parse_count("--threads", threads_flag);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonEmitter json(bench_name, gbench_threads());
  JsonRowReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.write(json_path);
  return 0;
}

}  // namespace benchutil
