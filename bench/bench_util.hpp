#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "agc/exec/executor.hpp"
#include "agc/graph/spec.hpp"

/// Minimal fixed-width table printer shared by the experiment harnesses,
/// plus the shared bench flags (--threads/AGC_THREADS, --json) and a JSON
/// emitter so the perf trajectory is machine-readable (BENCH_*.json).
/// Each bench binary regenerates one paper artifact (see DESIGN.md section 3)
/// and prints it as rows; EXPERIMENTS.md records the paper-vs-measured
/// comparison.

namespace benchutil {

/// Shared command-line surface of every bench binary:
///   --threads N   run vertex programs on N threads (0 = hardware); defaults
///                 to the AGC_THREADS environment variable, else 1
///   --json FILE   also emit the measured rows as JSON
struct Options {
  std::size_t threads = 1;
  std::string json_path;

  /// The execution backend the flags ask for (sequential for threads <= 1).
  [[nodiscard]] std::shared_ptr<agc::runtime::RoundExecutor> executor() const {
    return agc::exec::make_executor(threads);
  }
};

/// A numeric bench flag, read strictly (agc::graph::parse_u64): anything
/// but an unsigned decimal is a usage error, exit 2.
inline std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  const auto v = agc::graph::parse_u64(text);
  if (!v) {
    std::fprintf(stderr, "error: %s needs an unsigned integer, got '%s'\n",
                 flag.c_str(), text.c_str());
    std::exit(2);
  }
  return *v;
}

inline Options parse_options(int argc, char** argv) {
  Options o;
  o.threads = agc::exec::default_threads();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      o.threads = parse_count(arg, argv[++i]);
      // --threads 0: all hardware threads.
      if (o.threads == 0) o.threads = agc::exec::make_executor(0)->threads();
    } else if (arg == "--json" && i + 1 < argc) {
      o.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "warning: ignoring unknown bench flag '%s'\n",
                   arg.c_str());
    }
  }
  return o;
}

/// Resolve a canonical GraphSpec string to the frozen CSR backend — bench
/// binaries never mutate topology, so ReadOnly is always right
/// (docs/SCALE.md).  Benches tag their rows with the same spec string, so
/// the instance a row measures and the instance `agc-trace diff` keys on are
/// spelled identically.
[[nodiscard]] inline agc::graph::ResolvedGraph resolve_graph(
    const std::string& spec) {
  return agc::graph::GraphSpec::parse(spec).resolve(
      agc::graph::Mutability::ReadOnly);
}

/// Canonical "regular:" spec string — the bench binaries' staple instance.
[[nodiscard]] inline std::string regular_spec(std::size_t n, std::size_t d,
                                              std::uint64_t seed) {
  return "regular:n=" + std::to_string(n) + ",d=" + std::to_string(d) +
         ",seed=" + std::to_string(seed);
}

/// Wall-clock stopwatch for speedup reporting.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Collects rows of key/value pairs and writes them as a JSON document:
///   {"bench": ..., "threads": N, "rows": [{...}, ...]}
/// Every row is tagged with the thread count, and `row(graph_spec)` adds the
/// canonical GraphSpec string, so `agc-trace diff` matches rows structurally
/// (graph/threads/delta composite key) instead of by position.
class JsonEmitter {
 public:
  JsonEmitter(std::string bench, std::size_t threads)
      : bench_(std::move(bench)), threads_(threads) {}

  JsonEmitter& row() {
    rows_.emplace_back();
    return kv("threads", std::uint64_t{threads_});
  }
  JsonEmitter& row(const std::string& graph_spec) {
    row();
    return kv("graph", graph_spec);
  }
  JsonEmitter& kv(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonEmitter& kv(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return raw(key, buf);
  }
  JsonEmitter& kv(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }

  /// No-op when `path` is empty (no --json given).
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << "{\"bench\": \"" << bench_ << "\", \"threads\": " << threads_
        << ", \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << "  {";
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        out << (f == 0 ? "" : ", ") << "\"" << rows_[r][f].first
            << "\": " << rows_[r][f].second;
      }
      out << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    std::printf("wrote %zu rows to %s\n", rows_.size(), path.c_str());
  }

 private:
  JsonEmitter& raw(const std::string& key, std::string value) {
    // Last write wins: lets a bench overwrite the row() auto-tags (e.g. a
    // per-row "threads" counter that differs from the harness-level flag).
    for (auto& [k, v] : rows_.back()) {
      if (k == key) {
        v = std::move(value);
        return *this;
      }
    }
    rows_.back().emplace_back(key, std::move(value));
    return *this;
  }

  std::string bench_;
  std::size_t threads_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> w(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < w.size(); ++c) {
        w[c] = std::max(w[c], r[c].size());
      }
    }
    auto line = [&](const std::vector<std::string>& r) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        std::printf(" %-*s |", static_cast<int>(w[c]),
                    c < r.size() ? r[c].c_str() : "");
      }
      std::printf("\n");
    };
    line(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(w[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) line(r);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string num(std::uint64_t v) { return std::to_string(v); }
inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace benchutil
