// agc-trace: offline analysis of agcolor observability artifacts.
//
//   agc-trace dump <trace.jsonl>             print every event, one per line
//   agc-trace summary <trace.jsonl>          per-kind / per-stage rollup
//   agc-trace diff <base.json> <new.json> [--threshold 0.10] [--metric NAME]
//                                            compare two bench JSON files and
//                                            exit 1 on a regression beyond the
//                                            threshold
//
// The diff subcommand understands the committed BENCH_*.json layout (a top
// level object with a "rows" array; rows keyed by "name" or "delta").  Rate
// metrics (rounds_per_sec, items_per_second) regress when they drop:
// (base - new) / base.  Time metrics (real_time_per_iter_s, wall_s, ...)
// regress when they grow: (new - base) / base.  This is the binary behind the
// CI perf gate; see .github/workflows/ci.yml and docs/OBSERVABILITY.md.

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON reader — just enough for bench files and
// JSONL traces.  No dependency; errors throw std::runtime_error.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v);
  }
  [[nodiscard]] const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] double number() const { return std::get<double>(v); }
  [[nodiscard]] const std::string& string() const {
    return std::get<std::string>(v);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue{parse_string()};
    if (consume_literal("true")) return JsonValue{true};
    if (consume_literal("false")) return JsonValue{false};
    if (consume_literal("null")) return JsonValue{nullptr};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      (*obj)[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{obj};
    }
  }

  JsonValue parse_array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    while (true) {
      arr->push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{arr};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // for our own traces; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    return JsonValue{std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr)};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Trace (JSONL) subcommands.
// ---------------------------------------------------------------------------

struct TraceEvent {
  std::string kind;
  std::string label;
  double round = 0;
  double value = 0;
  double ns = 0;
};

std::optional<double> get_number(const JsonObject& obj, std::string_view key) {
  const auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_number()) return std::nullopt;
  return it->second.number();
}

std::optional<std::string> get_string(const JsonObject& obj, std::string_view key) {
  const auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_string()) return std::nullopt;
  return it->second.string();
}

std::vector<TraceEvent> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue value;
    try {
      value = JsonParser(line).parse();
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
    if (!value.is_object()) continue;
    const auto& obj = value.object();
    TraceEvent ev;
    ev.kind = get_string(obj, "kind").value_or("?");
    ev.label = get_string(obj, "label").value_or("");
    ev.round = get_number(obj, "round").value_or(0);
    ev.value = get_number(obj, "value").value_or(0);
    ev.ns = get_number(obj, "ns").value_or(0);
    events.push_back(std::move(ev));
  }
  return events;
}

int cmd_dump(const std::string& path) {
  const auto events = load_trace(path);
  for (const auto& ev : events) {
    std::printf("%-12s round=%-8.0f value=%-12.0f ns=%-12.0f %s\n",
                ev.kind.c_str(), ev.round, ev.value, ev.ns, ev.label.c_str());
  }
  std::printf("# %zu events\n", events.size());
  return 0;
}

int cmd_summary(const std::string& path) {
  const auto events = load_trace(path);

  std::map<std::string, std::size_t> kind_counts;
  double rounds = 0, messages = 0, round_ns = 0, max_round_ns = 0;
  double run_wall_ns = 0, faults = 0, fault_events = 0;
  struct Stage { double rounds = 0; double ns = 0; std::size_t runs = 0; };
  std::map<std::string, Stage> stages;

  for (const auto& ev : events) {
    ++kind_counts[ev.kind];
    if (ev.kind == "round_end") {
      rounds += 1;
      messages += ev.value;
      round_ns += ev.ns;
      if (ev.ns > max_round_ns) max_round_ns = ev.ns;
    } else if (ev.kind == "stage_end") {
      auto& s = stages[ev.label.empty() ? "?" : ev.label];
      s.rounds += ev.value;
      s.ns += ev.ns;
      ++s.runs;
    } else if (ev.kind == "fault") {
      faults += 1;
      fault_events += ev.value;
    } else if (ev.kind == "run_end") {
      run_wall_ns += ev.ns;
    }
  }

  std::printf("events: %zu\n", events.size());
  for (const auto& [kind, count] : kind_counts) {
    std::printf("  %-12s %zu\n", kind.c_str(), count);
  }
  if (rounds > 0) {
    std::printf("rounds: %.0f  messages: %.0f  mean round: %.1f us  max round: %.1f us\n",
                rounds, messages, round_ns / rounds / 1e3, max_round_ns / 1e3);
  }
  if (!stages.empty()) {
    std::printf("stages:\n");
    for (const auto& [tag, s] : stages) {
      std::printf("  %-10s runs=%zu rounds=%.0f wall=%.3f ms\n", tag.c_str(),
                  s.runs, s.rounds, s.ns / 1e6);
    }
  }
  if (faults > 0) {
    std::printf("faults: %.0f injections, %.0f corrupted state words/edges\n",
                faults, fault_events);
  }
  if (run_wall_ns > 0) std::printf("run wall: %.3f ms\n", run_wall_ns / 1e6);
  return 0;
}

// ---------------------------------------------------------------------------
// diff: bench JSON comparison, the CI perf gate.
// ---------------------------------------------------------------------------

// direction: +1 = higher is better (rate), -1 = lower is better (time).
struct MetricSpec { const char* name; int direction; };
constexpr MetricSpec kKnownMetrics[] = {
    {"rounds_per_sec", +1}, {"items_per_second", +1},
    {"real_time_per_iter_s", -1}, {"cpu_time_per_iter_s", -1},
    {"wall_s", -1},
    // Serving metrics (bench_service / BENCH_service.json): throughput up is
    // better, latency quantiles down.
    {"mutations_per_sec", +1}, {"p50_latency_us", -1}, {"p99_latency_us", -1},
};

// Structural row identity: benches tag rows with the canonical GraphSpec
// string and thread count (bench_util.hpp), so the key composes every
// identifying field present instead of relying on positional order.
std::string row_key(const JsonObject& row) {
  std::string key;
  auto append = [&](const std::string& part) {
    if (part.empty()) return;
    if (!key.empty()) key += '|';
    key += part;
  };
  if (auto name = get_string(row, "name")) append(*name);
  if (auto graph = get_string(row, "graph")) append(*graph);
  if (auto delta = get_number(row, "delta")) {
    append("delta=" + std::to_string(static_cast<long long>(*delta)));
  }
  if (auto threads = get_number(row, "threads")) {
    append("t" + std::to_string(static_cast<long long>(*threads)));
  }
  return key;
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return JsonParser(ss.str()).parse();
}

int cmd_diff(const std::string& base_path, const std::string& new_path,
             double threshold, const std::string& metric_filter) {
  const JsonValue base = load_json_file(base_path);
  const JsonValue fresh = load_json_file(new_path);
  if (!base.is_object() || !fresh.is_object()) {
    std::fprintf(stderr, "agc-trace diff: expected top-level JSON objects\n");
    return 2;
  }
  const auto rows_of = [](const JsonValue& doc) -> const JsonArray* {
    const auto it = doc.object().find("rows");
    if (it == doc.object().end() || !it->second.is_array()) return nullptr;
    return &it->second.array();
  };
  const JsonArray* base_rows = rows_of(base);
  const JsonArray* new_rows = rows_of(fresh);
  if (base_rows == nullptr || new_rows == nullptr) {
    std::fprintf(stderr, "agc-trace diff: missing \"rows\" array\n");
    return 2;
  }

  std::map<std::string, const JsonObject*> base_by_key;
  for (const auto& row : *base_rows) {
    if (row.is_object()) base_by_key[row_key(row.object())] = &row.object();
  }

  int regressions = 0;
  std::size_t compared = 0;
  for (const auto& row : *new_rows) {
    if (!row.is_object()) continue;
    const auto& nr = row.object();
    const auto it = base_by_key.find(row_key(nr));
    if (it == base_by_key.end()) {
      std::printf("NEW       %-40s (no baseline row)\n", row_key(nr).c_str());
      continue;
    }
    const JsonObject& br = *it->second;
    for (const auto& spec : kKnownMetrics) {
      if (!metric_filter.empty() && metric_filter != spec.name) continue;
      const auto bv = get_number(br, spec.name);
      const auto nv = get_number(nr, spec.name);
      if (!bv || !nv || *bv == 0.0) continue;
      ++compared;
      // Positive change = regression, for both directions.
      const double change = spec.direction > 0 ? (*bv - *nv) / *bv
                                               : (*nv - *bv) / *bv;
      const bool bad = change > threshold;
      if (bad) ++regressions;
      std::printf("%-9s %-40s %-22s base=%-12.4f new=%-12.4f %+.1f%%\n",
                  bad ? "REGRESSED" : "ok", it->first.c_str(), spec.name,
                  *bv, *nv, change * 100.0);
    }
  }

  if (compared == 0) {
    std::fprintf(stderr, "agc-trace diff: no comparable metrics found\n");
    return 2;
  }
  std::printf("# %zu comparisons, %d regression(s) beyond %.0f%%\n", compared,
              regressions, threshold * 100.0);
  return regressions > 0 ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: agc-trace dump <trace.jsonl>\n"
               "       agc-trace summary <trace.jsonl>\n"
               "       agc-trace diff <base.json> <new.json>"
               " [--threshold 0.10] [--metric NAME]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "dump") return cmd_dump(args[1]);
    if (args.size() == 2 && args[0] == "summary") return cmd_summary(args[1]);
    if (args.size() >= 3 && args[0] == "diff") {
      double threshold = 0.10;
      std::string metric;
      for (std::size_t i = 3; i < args.size(); ++i) {
        if (args[i] == "--threshold" && i + 1 < args.size()) {
          // A finite decimal >= 0 and nothing else, the rules of the library's
          // graph::parse_f64 (this tool links no library).
          const std::string& t = args[++i];
          const char* const end = t.data() + t.size();
          const auto [stop, ec] = std::from_chars(t.data(), end, threshold);
          if (ec != std::errc{} || stop != end || !std::isfinite(threshold) ||
              threshold < 0.0) {
            return usage();
          }
        } else if (args[i] == "--metric" && i + 1 < args.size()) {
          metric = args[++i];
        } else {
          return usage();
        }
      }
      return cmd_diff(args[1], args[2], threshold, metric);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agc-trace: %s\n", e.what());
    return 2;
  }
  return usage();
}
