#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "agc/graph/checks.hpp"
#include "agc/graph/view.hpp"
#include "agc/obs/event_sink.hpp"

/// \file common.hpp
/// Shared plumbing of the benchmark harness: arguments, the seed contract,
/// clocks and order statistics, the metric report, the failure counter and
/// the in-memory span tracer.  Everything here sits *outside* the library:
/// the harness only times calls into the library's public front doors and
/// listens to the events the library already emits on RunOptions::sink.

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;   ///< 0 = the committed instances
  double seconds = 10.0;    ///< measuring budget of one run
  bool trace = false;       ///< traced run: per-layer metrics
  bool smoke = false;       ///< seconds-long instances for the self-test
  std::string inject;       ///< "", "improper" or "reject" (self-test only)
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;    ///< where a traced run writes its spans
};

/// The seed contract.  Seed 0 reproduces the committed instances (the base
/// seeds below are those of BENCH_*.json); any other seed derives every
/// graph and op-stream seed by a splitmix64 mix of (base, seed).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed);

[[nodiscard]] std::uint64_t now_ns();
[[nodiscard]] inline double to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
[[nodiscard]] inline double to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile: the smallest sample with at least q of the samples
/// at or below it.  0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Metric name -> (value, unit), in name order.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  all() const noexcept {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Output checks.  An operation is one coloring run or one service op; it
/// fails when any check on it misses.  Checks that are not tied to a single
/// operation (a service's final coloring) add one failure on their own.
class Checks {
 public:
  /// Record `what` as a miss unless `ok`; returns ok.
  bool expect(bool ok, const std::string& what);
  /// Count one operation, failed unless `ok`.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Count `n` operations of which `bad` failed.
  void ops(std::uint64_t n, std::uint64_t bad) {
    attempted_ += n;
    failed_ += bad;
  }
  /// A whole-workload check: a miss adds one failure.
  void require(bool ok, const std::string& what) {
    if (!expect(ok, what)) ++failed_;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& misses() const noexcept {
    return misses_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> misses_;  ///< first misses, for the log
};

/// One span: a named interval, its parent span (-1 = top level) and the id
/// of the coloring run or service op it belongs to.
struct Span {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int parent = -1;
  std::uint64_t id = 0;
};

/// In-memory span recorder, written out only when the run ends.  Spans nest
/// by a stack: a span opened while another is open becomes its child.
class Tracer {
 public:
  int begin(std::string name, std::uint64_t id);
  void end(int span);
  /// A span whose interval is already known (a round the engine timed).
  void closed(std::string name, std::uint64_t start, std::uint64_t end,
              std::uint64_t id);

  [[nodiscard]] int top() const noexcept {
    return stack_.empty() ? -1 : stack_.back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of each span: its duration minus what its children cover.
  [[nodiscard]] std::vector<std::uint64_t> self_ns() const;
  /// Share of [t0, t1] covered by top-level spans.
  [[nodiscard]] double coverage(std::uint64_t t0, std::uint64_t t1) const;
  /// Print the "where the time goes" table: total and self time per span
  /// name, as a share of the wall [t0, t1].
  void print_table(const std::string& workload, std::uint64_t t0,
                   std::uint64_t t1) const;
  /// One JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one front-door call.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::uint64_t id)
      : tracer_(tracer), span_(tracer ? tracer->begin(std::move(name), id) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Turns the library's own sink events into spans: StageStart/StageEnd open
/// and close `stage.<label>`, RunStart/RunEnd `run.<label>`, and RoundEnd
/// records a closed `runtime.round` span of the engine-timed step.  The
/// current stage label is exposed for on_round observers.
class SpanSink final : public agc::obs::EventSink {
 public:
  explicit SpanSink(Tracer& tracer) : tracer_(tracer) {}

  void emit(const agc::obs::Event& event) override;

  void set_id(std::uint64_t id) noexcept { id_ = id; }
  /// Label of the innermost open stage (or run) span, "" when none.
  [[nodiscard]] const std::string& stage() const noexcept { return stage_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_ = 0;
  std::vector<std::pair<int, std::string>> open_;  ///< span, label
  std::string stage_;
};

/// The env header recorded with every result: git sha, source digest,
/// nproc, CPU model, compiler, build type, and the run's workload, seed,
/// thread count, length and modes.
[[nodiscard]] std::string env_json(const Args& args, std::size_t threads);

/// Append a JSON number; non-finite values become null.
void append_number(std::string& out, double v);
void append_string(std::string& out, const std::string& s);

/// Stable 64-bit digest of a color vector (FNV-1a over the words), used to
/// compare traced and untraced outputs without keeping both copies.
[[nodiscard]] std::uint64_t digest(const std::vector<std::uint64_t>& colors);

/// Number of distinct colors.
[[nodiscard]] std::size_t palette_of(std::span<const agc::graph::Color> colors);

/// The self-test's injected fault: make one edge monochromatic, so the
/// properness check must count the run as failed.
void inject_improper(agc::graph::GraphView g, std::vector<agc::graph::Color>& colors);

/// Per-stage "changed" counters for on_round observers: vertex-rounds whose
/// color changed, and vertex-rounds stepped.
struct ChangeCounter {
  std::uint64_t changed = 0;
  std::uint64_t stepped = 0;
  [[nodiscard]] double frac() const {
    return stepped == 0 ? 0.0 : static_cast<double>(changed) / static_cast<double>(stepped);
  }
};

/// Diffs consecutive colorings handed to IterativeOptions::on_round.
class RoundDiff {
 public:
  /// Returns the vertices that changed since the previous call (0 when
  /// `round` is 0: the stage's initial coloring).
  std::uint64_t observe(std::size_t round, std::span<const agc::graph::Color> cur);

 private:
  std::vector<agc::graph::Color> prev_;
};

}  // namespace perfbench
