#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed) {
  if (seed == 0) return base;
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * seed;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // Graph specs spell seeds as decimal u64; keep them short and readable.
  return z % 1'000'000'007ULL;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok && misses_.size() < 32) misses_.push_back(what);
  return ok;
}

// --- tracing ----------------------------------------------------------------

int Tracer::begin(std::string name, std::uint64_t id) {
  spans_.push_back(Span{std::move(name), now_ns(), 0, top(), id});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = now_ns();
  // Close anything left open inside this span (an exception unwound past it).
  while (!stack_.empty()) {
    const int s = stack_.back();
    stack_.pop_back();
    if (s == span) break;
    if (spans_[static_cast<std::size_t>(s)].end == 0) {
      spans_[static_cast<std::size_t>(s)].end = spans_[static_cast<std::size_t>(span)].end;
    }
  }
}

void Tracer::closed(std::string name, std::uint64_t start, std::uint64_t end,
                    std::uint64_t id) {
  spans_.push_back(Span{std::move(name), start, end, top(), id});
}

std::vector<std::uint64_t> Tracer::self_ns() const {
  std::vector<std::uint64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<std::uint64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t d = spans_[i].end - spans_[i].start;
    self[i] = d > child[i] ? d - child[i] : 0;
  }
  return self;
}

double Tracer::coverage(std::uint64_t t0, std::uint64_t t1) const {
  if (t1 <= t0) return 0.0;
  std::uint64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent >= 0) continue;
    const std::uint64_t a = std::max(s.start, t0);
    const std::uint64_t b = std::min(s.end, t1);
    if (b > a) covered += b - a;
  }
  return static_cast<double>(covered) / static_cast<double>(t1 - t0);
}

void Tracer::print_table(const std::string& workload, std::uint64_t t0,
                         std::uint64_t t1) const {
  struct Row {
    std::uint64_t count = 0, total = 0, self = 0;
  };
  std::map<std::string, Row> rows;
  const auto self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total += spans_[i].end - spans_[i].start;
    r.self += self[i];
  }
  std::vector<std::pair<std::string, Row>> order(rows.begin(), rows.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  const double wall = to_s(t1 - t0);
  const double cov = coverage(t0, t1);
  std::printf("== where the time goes: %s (traced wall %.3f s, span coverage %.1f%%)%s\n",
              workload.c_str(), wall, 100.0 * cov,
              cov < 0.9 ? "  ** COVERAGE BELOW 90% **" : "");
  std::printf("%-36s %8s %11s %11s %7s\n", "span", "count", "total s", "self s",
              "self %");
  for (const auto& [name, r] : order) {
    std::printf("%-36s %8llu %11.4f %11.4f %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(r.count), to_s(r.total),
                to_s(r.self), wall > 0 ? 100.0 * to_s(r.self) / wall : 0.0);
  }
}

void Tracer::write_jsonl(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path);
  std::string line;
  for (const Span& s : spans_) {
    line = "{\"name\":";
    append_string(line, s.name);
    line += ",\"start_ns\":" + std::to_string(s.start);
    line += ",\"end_ns\":" + std::to_string(s.end);
    line += ",\"parent\":" + std::to_string(s.parent);
    line += ",\"id\":" + std::to_string(s.id) + "}\n";
    out << line;
  }
}

void SpanSink::emit(const agc::obs::Event& ev) {
  using agc::obs::EventKind;
  const std::string label = ev.label != nullptr ? ev.label : "";
  switch (ev.kind) {
    case EventKind::StageStart:
    case EventKind::RunStart: {
      const char* kind = ev.kind == EventKind::StageStart ? "stage." : "run.";
      open_.emplace_back(tracer_.begin(kind + label, id_), label);
      stage_ = label;
      break;
    }
    case EventKind::StageEnd:
    case EventKind::RunEnd:
      if (!open_.empty()) {
        tracer_.end(open_.back().first);
        open_.pop_back();
        stage_ = open_.empty() ? std::string() : open_.back().second;
      }
      break;
    case EventKind::RoundEnd: {
      const std::uint64_t t = now_ns();
      tracer_.closed("runtime.round", t - std::min(t, ev.ns), t, id_);
      break;
    }
    default:
      break;
  }
}

// --- env and JSON -------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string env_json(const Args& args, std::size_t threads) {
  std::string out = "{\"git_sha\":";
  append_string(out, args.git_sha);
  out += ",\"source_digest\":";
  append_string(out, args.source_digest);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":";
  append_string(out, cpu_model());
  out += ",\"compiler\":";
  append_string(out, PERFBENCH_COMPILER);
  out += ",\"build_type\":";
  append_string(out, PERFBENCH_BUILD_TYPE);
  out += ",\"workload\":";
  append_string(out, args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"seconds\":";
  append_number(out, args.seconds);
  out += std::string(",\"trace\":") + (args.trace ? "true" : "false");
  out += std::string(",\"smoke\":") + (args.smoke ? "true" : "false");
  out += '}';
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  out += buf;
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::uint64_t digest(const std::vector<std::uint64_t>& colors) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t c : colors) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- coloring helpers ------------------------------------------------------

std::size_t palette_of(std::span<const agc::graph::Color> colors) {
  std::vector<agc::graph::Color> sorted(colors.begin(), colors.end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

void inject_improper(agc::graph::GraphView g,
                     std::vector<agc::graph::Color>& colors) {
  for (agc::graph::Vertex v = 0; v < g.n() && v < colors.size(); ++v) {
    for (const agc::graph::Vertex u : g.neighbors(v)) {
      if (u < colors.size()) {
        colors[v] = colors[u];
        return;
      }
    }
  }
}

std::uint64_t RoundDiff::observe(std::size_t round,
                                 std::span<const agc::graph::Color> cur) {
  if (round == 0 || prev_.size() != cur.size()) {
    prev_.assign(cur.begin(), cur.end());
    return 0;
  }
  std::uint64_t changed = 0;
  for (std::size_t v = 0; v < cur.size(); ++v) {
    changed += cur[v] != prev_[v] ? 1 : 0;
    prev_[v] = cur[v];
  }
  return changed;
}

}  // namespace perfbench
