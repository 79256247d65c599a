#include "agc/faultlab/plan.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "agc/graph/spec.hpp"

namespace agc::faultlab {

namespace {

using runtime::FaultEvent;
using runtime::FaultKind;

[[nodiscard]] bool kind_from_string(const std::string& s, FaultKind& out) {
  for (int k = 0; k <= static_cast<int>(FaultKind::Lie); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (s == runtime::to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

/// Extract the value of `"key":` from a JSONL line.  The plan format is
/// machine-written with a fixed key set, so a targeted scan beats dragging a
/// JSON library into the core (same stance as tools/agc_trace.cpp).
[[nodiscard]] bool find_field(const std::string& line, const char* key,
                              std::string& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t i = pos + needle.size();
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size()) return false;
  if (line[i] == '"') {
    const auto end = line.find('"', i + 1);
    if (end == std::string::npos) return false;
    out = line.substr(i + 1, end - i - 1);
  } else {
    // The whole token up to the next separator, so "3.5" or "-3" reaches the
    // number reader intact instead of being cut to "3".
    const auto end = std::min(line.find_first_of(",} ", i), line.size());
    if (end == i) return false;
    out = line.substr(i, end - i);
  }
  return true;
}

/// Read the numeric field `key`, when the line has one, strictly
/// (graph::parse_u64) into `out`, whose type it must fit.
template <class T>
void read_number(const std::string& line, const char* key, std::size_t lineno,
                 T& out) {
  std::string field;
  if (!find_field(line, key, field)) return;
  const auto v = graph::parse_u64(field);
  if (!v || *v > std::numeric_limits<T>::max()) {
    throw std::runtime_error("FaultPlan: bad " + std::string(key) + " '" + field +
                             "' on line " + std::to_string(lineno));
  }
  out = static_cast<T>(*v);
}

[[nodiscard]] bool is_known_key(const std::string& key) {
  return key == "round" || key == "kind" || key == "u" || key == "v" ||
         key == "word" || key == "value";
}

/// Collect every top-level `"key":value` pair the known schema does not
/// cover, as ready-to-emit raw text.  The scanner understands quoted strings
/// and nested braces/brackets just enough to skip over them; anything it
/// cannot make sense of is simply not preserved (never a parse failure —
/// forward compatibility must not make old plans brittle).
[[nodiscard]] std::string scan_extras(const std::string& line) {
  std::string extras;
  std::size_t i = line.find('{');
  if (i == std::string::npos) return extras;
  ++i;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == ',')) ++i;
    if (i >= line.size() || line[i] == '}') break;
    if (line[i] != '"') break;
    const std::size_t key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) break;
    const std::string key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size() || line[i] != ':') break;
    ++i;
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t value_begin = i;
    int depth = 0;
    bool in_string = false;
    while (i < line.size()) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
      ++i;
    }
    if (!is_known_key(key)) {
      extras += ",\"" + key + "\":" + line.substr(value_begin, i - value_begin);
    }
  }
  return extras;
}

}  // namespace

void FaultPlan::canonicalize() {
  const auto before = [](const FaultEvent& a, const FaultEvent& b) {
    if (a.round != b.round) return a.round < b.round;
    const bool ca = runtime::is_channel_fault(a.kind);
    const bool cb = runtime::is_channel_fault(b.kind);
    if (ca != cb) return cb;  // RAM/topology first
    if (!ca) return false;    // keep injection order
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.word < b.word;
  };
  if (extras.empty()) {
    std::stable_sort(events.begin(), events.end(), before);
    return;
  }
  // Sort a permutation so each preserved-extras string stays attached to its
  // event through reordering.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return before(events[a], events[b]);
                   });
  std::vector<FaultEvent> sorted_events(events.size());
  std::vector<std::string> sorted_extras(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted_events[i] = events[order[i]];
    sorted_extras[i] = std::move(extras[order[i]]);
  }
  events = std::move(sorted_events);
  extras = std::move(sorted_extras);
}

std::string FaultPlan::to_jsonl() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    out << "{\"round\":" << ev.round << ",\"kind\":\""
        << runtime::to_string(ev.kind) << "\",\"u\":" << ev.u
        << ",\"v\":" << ev.v << ",\"word\":" << ev.word
        << ",\"value\":" << ev.value;
    if (i < extras.size()) out << extras[i];
    out << "}\n";
  }
  return out.str();
}

void FaultPlan::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("FaultPlan::save: cannot open " + path);
  out << to_jsonl();
  if (!out) throw std::runtime_error("FaultPlan::save: write failed: " + path);
}

FaultPlan FaultPlan::parse(std::istream& in) {
  FaultPlan plan;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    FaultEvent ev;
    std::string field;
    if (!find_field(line, "kind", field) || !kind_from_string(field, ev.kind)) {
      throw std::runtime_error("FaultPlan: bad kind on line " +
                               std::to_string(lineno));
    }
    if (!find_field(line, "round", field)) {
      throw std::runtime_error("FaultPlan: missing round on line " +
                               std::to_string(lineno));
    }
    read_number(line, "round", lineno, ev.round);
    read_number(line, "u", lineno, ev.u);
    read_number(line, "v", lineno, ev.v);
    read_number(line, "word", lineno, ev.word);
    read_number(line, "value", lineno, ev.value);
    std::string extra = scan_extras(line);
    plan.events.push_back(ev);
    if (!extra.empty() || !plan.extras.empty()) {
      plan.extras.resize(plan.events.size() - 1);  // pad earlier extras-free lines
      plan.extras.push_back(std::move(extra));
    }
  }
  if (!plan.extras.empty()) plan.extras.resize(plan.events.size());
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("FaultPlan::load: cannot open " + path);
  return parse(in);
}

PlanAdversary::PlanAdversary(FaultPlan plan) {
  plan.canonicalize();
  for (const FaultEvent& ev : plan.events) {
    last_round_ = std::max(last_round_, ev.round);
    if (!runtime::is_channel_fault(ev.kind)) events_.push_back(ev);
  }
}

std::size_t PlanAdversary::inject(runtime::Engine& engine,
                                  std::size_t /*round*/) {
  // Match on the engine's own completed-round counter, not the runner's loop
  // index: recorded rounds anchor to engine.rounds() at injection time, and
  // engines can be stepped across several runner calls.
  const std::uint64_t now = engine.rounds();
  std::size_t applied = 0;
  while (cursor_ < events_.size() && events_[cursor_].round <= now) {
    const FaultEvent& ev = events_[cursor_];
    if (ev.round == now) {
      // A plan is outside input, and the engine indexes its per-vertex
      // state unchecked.  Earlier AddVertex events have grown n by now.
      const std::size_t n = engine.graph().n();
      const bool edge =
          ev.kind == FaultKind::AddEdge || ev.kind == FaultKind::RemoveEdge;
      if (ev.kind != FaultKind::AddVertex && (ev.v >= n || (edge && ev.u >= n))) {
        throw std::invalid_argument(
            "fault plan: round " + std::to_string(ev.round) + " " +
            runtime::to_string(ev.kind) + " event names a vertex outside n=" +
            std::to_string(n) + " (u=" + std::to_string(ev.u) +
            " v=" + std::to_string(ev.v) + ")");
      }
      switch (ev.kind) {
        case FaultKind::Ram:
          engine.corrupt_ram(ev.v, ev.word, ev.value);
          break;
        case FaultKind::AddEdge:
          engine.add_edge(ev.u, ev.v);
          break;
        case FaultKind::RemoveEdge:
          engine.remove_edge(ev.u, ev.v);
          break;
        case FaultKind::ResetVertex:
          engine.reset_vertex(ev.v);
          break;
        case FaultKind::AddVertex:
          engine.add_vertex();
          break;
        default:
          break;
      }
      ++applied;
    }
    // Events for rounds the runner already passed are unreachable: skip them
    // so a plan recorded against a different round cadence cannot wedge the
    // cursor.
    ++cursor_;
  }
  applied_ += applied;
  return applied;
}

}  // namespace agc::faultlab
