#include "agc/graph/spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "agc/graph/generators.hpp"
#include "agc/graph/io.hpp"

namespace agc::graph {

namespace {

enum class ParamType : std::uint8_t { U64, F64, Text };

struct ParamDef {
  const char* key;
  ParamType type;
};

struct KindDef {
  const char* kind;
  std::vector<ParamDef> params;
};

/// The one place a generator spelling is declared.  Positional args map onto
/// these in order; the named form may give them in any order.
const std::vector<KindDef>& kinds() {
  static const std::vector<KindDef> defs = {
      {"file", {{"path", ParamType::Text}}},
      {"gnp", {{"n", ParamType::U64}, {"p", ParamType::F64}, {"seed", ParamType::U64}}},
      {"regular", {{"n", ParamType::U64}, {"d", ParamType::U64}, {"seed", ParamType::U64}}},
      {"grid", {{"rows", ParamType::U64}, {"cols", ParamType::U64}}},
      {"cycle", {{"n", ParamType::U64}}},
      {"path", {{"n", ParamType::U64}}},
      {"complete", {{"n", ParamType::U64}}},
      {"star", {{"n", ParamType::U64}}},
      {"tree", {{"n", ParamType::U64}}},
      {"geometric",
       {{"n", ParamType::U64}, {"radius", ParamType::F64}, {"seed", ParamType::U64}}},
      {"ba", {{"n", ParamType::U64}, {"attach", ParamType::U64}, {"seed", ParamType::U64}}},
      {"bipartite", {{"a", ParamType::U64}, {"b", ParamType::U64}}},
      {"hypercube", {{"d", ParamType::U64}}},
      {"multipartite", {{"k", ParamType::U64}, {"part", ParamType::U64}}},
      {"caterpillar", {{"spine", ParamType::U64}, {"legs", ParamType::U64}}},
      {"blowup", {{"len", ParamType::U64}, {"blow", ParamType::U64}}},
      {"bounded",
       {{"n", ParamType::U64},
        {"dmax", ParamType::U64},
        {"m", ParamType::U64},
        {"seed", ParamType::U64}}},
      {"powerlaw",
       {{"n", ParamType::U64},
        {"gamma", ParamType::F64},
        {"avgdeg", ParamType::F64},
        {"seed", ParamType::U64}}},
  };
  return defs;
}

[[noreturn]] void fail(const std::string& spec, const std::string& what) {
  throw std::invalid_argument("graph spec '" + spec + "': " + what);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

std::string canonical_u64(const std::string& spec, const std::string& text) {
  const auto v = parse_u64(text);
  if (!v) fail(spec, "bad integer '" + text + "'");
  return std::to_string(*v);
}

std::string canonical_f64(const std::string& spec, const std::string& text) {
  const auto v = parse_f64(text);
  if (!v) fail(spec, "bad number '" + text + "'");
  return format_f64(*v + 0.0);  // -0 + 0 is 0: one spelling per graph
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  // from_chars takes neither a sign nor leading blanks for an unsigned type
  // and reports overflow instead of saturating.
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return v;
}

std::optional<double> parse_f64(std::string_view text) noexcept {
  // from_chars' general format reads no blank, `+` or hex, but it does read
  // "nan" and "inf".
  double v = 0.0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::string format_f64(double v) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

GraphSpec GraphSpec::parse(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) fail(spec, "expected kind:args");
  GraphSpec out;
  out.kind_ = spec.substr(0, colon);

  const KindDef* def = nullptr;
  for (const auto& k : kinds()) {
    if (out.kind_ == k.kind) def = &k;
  }
  if (def == nullptr) fail(spec, "unknown kind '" + out.kind_ + "'");

  // `file:` takes the remainder verbatim (paths may contain ',' or '=').
  if (def->params.size() == 1 && def->params[0].type == ParamType::Text) {
    out.values_ = {spec.substr(colon + 1)};
    if (out.values_[0].empty()) fail(spec, "missing path");
    return out;
  }

  const auto args = split(spec.substr(colon + 1), ',');
  if (args.size() != def->params.size()) {
    fail(spec, "expected " + std::to_string(def->params.size()) + " args, got " +
                   std::to_string(args.size()));
  }
  out.values_.assign(def->params.size(), std::string());
  std::size_t positional = 0;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    std::size_t slot = 0;
    std::string text;
    if (eq == std::string::npos) {
      slot = positional++;
      text = arg;
    } else {
      const std::string key = arg.substr(0, eq);
      text = arg.substr(eq + 1);
      std::size_t found = def->params.size();
      for (std::size_t i = 0; i < def->params.size(); ++i) {
        if (key == def->params[i].key) found = i;
      }
      if (found == def->params.size()) fail(spec, "unknown parameter '" + key + "'");
      slot = found;
    }
    if (slot >= def->params.size()) fail(spec, "too many positional args");
    if (!out.values_[slot].empty()) {
      fail(spec, std::string("duplicate parameter '") + def->params[slot].key + "'");
    }
    out.values_[slot] = def->params[slot].type == ParamType::F64
                            ? canonical_f64(spec, text)
                            : canonical_u64(spec, text);
  }
  for (std::size_t i = 0; i < def->params.size(); ++i) {
    if (out.values_[i].empty()) {
      fail(spec, std::string("missing parameter '") + def->params[i].key + "'");
    }
  }
  // The generators only assert these; a spec is outside input.
  if (out.kind_ == "regular") {
    const std::uint64_t n = out.num("n");
    const std::uint64_t d = out.num("d");
    if (d >= n || (n * d) % 2 != 0) fail(spec, "regular needs d < n and n*d even");
  }
  if (out.kind_ == "hypercube" && out.num("d") >= 32) {
    fail(spec, "hypercube needs d < 32 (vertex ids are 32-bit)");
  }
  if (out.kind_ == "gnp" && (out.real("p") < 0.0 || out.real("p") > 1.0)) {
    fail(spec, "gnp needs p in [0,1]");
  }
  if (out.kind_ == "geometric" && out.real("radius") < 0.0) {
    fail(spec, "geometric needs radius >= 0");
  }
  if (out.kind_ == "powerlaw" &&
      (out.real("gamma") <= 1.0 || out.real("avgdeg") < 0.0)) {
    fail(spec, "powerlaw needs gamma > 1 and avgdeg >= 0");
  }
  return out;
}

std::string GraphSpec::to_string() const {
  const KindDef* def = nullptr;
  for (const auto& k : kinds()) {
    if (kind_ == k.kind) def = &k;
  }
  if (def == nullptr) return kind_ + ":?";
  std::string out = kind_;
  out += ':';
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ',';
    out += def->params[i].key;
    out += '=';
    out += values_[i];
  }
  return out;
}

std::uint64_t GraphSpec::content_hash() const {
  // FNV-1a, 64-bit: stable across platforms, good enough to key a cache
  // whose correctness only needs "equal hash for equal canonical spelling".
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : to_string()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t GraphSpec::num(const std::string& key) const {
  for (const auto& k : kinds()) {
    if (kind_ != k.kind) continue;
    for (std::size_t i = 0; i < k.params.size(); ++i) {
      if (key == k.params[i].key) {
        return std::strtoull(values_[i].c_str(), nullptr, 10);
      }
    }
  }
  throw std::invalid_argument("GraphSpec::num: no parameter '" + key + "' on '" +
                              kind_ + "'");
}

double GraphSpec::real(const std::string& key) const {
  for (const auto& k : kinds()) {
    if (kind_ != k.kind) continue;
    for (std::size_t i = 0; i < k.params.size(); ++i) {
      if (key == k.params[i].key) return std::strtod(values_[i].c_str(), nullptr);
    }
  }
  throw std::invalid_argument("GraphSpec::real: no parameter '" + key + "' on '" +
                              kind_ + "'");
}

Graph GraphSpec::build() const {
  if (kind_ == "file") return read_edge_list_file(values_[0]);
  if (kind_ == "gnp") return random_gnp(num("n"), real("p"), num("seed"));
  if (kind_ == "regular") return random_regular(num("n"), num("d"), num("seed"));
  if (kind_ == "grid") return grid(num("rows"), num("cols"));
  if (kind_ == "cycle") return cycle(num("n"));
  if (kind_ == "path") return path(num("n"));
  if (kind_ == "complete") return complete(num("n"));
  if (kind_ == "star") return star(num("n"));
  if (kind_ == "tree") return binary_tree(num("n"));
  if (kind_ == "geometric") return random_geometric(num("n"), real("radius"), num("seed"));
  if (kind_ == "ba") return barabasi_albert(num("n"), num("attach"), num("seed"));
  if (kind_ == "bipartite") return complete_bipartite(num("a"), num("b"));
  if (kind_ == "hypercube") return hypercube(num("d"));
  if (kind_ == "multipartite") return complete_multipartite(num("k"), num("part"));
  if (kind_ == "caterpillar") return caterpillar(num("spine"), num("legs"));
  if (kind_ == "blowup") return cycle_blowup(num("len"), num("blow"));
  if (kind_ == "bounded") {
    return random_bounded_degree(num("n"), num("dmax"), num("m"), num("seed"));
  }
  if (kind_ == "powerlaw") {
    return random_powerlaw(num("n"), real("gamma"), real("avgdeg"), num("seed"));
  }
  throw std::invalid_argument("GraphSpec::build: unknown kind '" + kind_ + "'");
}

FrozenGraph GraphSpec::build_frozen() const {
  // The streaming kinds write straight into the CSR; everything else is
  // small enough that build-then-compact is fine.
  if (kind_ == "gnp") return stream_gnp_frozen(num("n"), real("p"), num("seed"));
  if (kind_ == "powerlaw") {
    return stream_powerlaw_frozen(num("n"), real("gamma"), real("avgdeg"),
                                  num("seed"));
  }
  return FrozenGraph::from_graph(build());
}

ResolvedGraph GraphSpec::resolve(Mutability need) const {
  ResolvedGraph out;
  if (need == Mutability::ReadOnly) {
    out.frozen_ = std::make_unique<FrozenGraph>(build_frozen());
  } else {
    out.dyn_ = std::make_unique<Graph>(build());
  }
  return out;
}

Graph& ResolvedGraph::graph() {
  if (dyn_ == nullptr) {
    throw std::logic_error(
        "ResolvedGraph::graph: resolved ReadOnly (frozen CSR backend)");
  }
  return *dyn_;
}

std::size_t GraphSpec::estimated_bytes(std::uint64_t extra_vertices,
                                       std::uint64_t extra_edges) const {
  // n and an expected edge count per kind; the base is charged at the frozen
  // CSR rate (what the scheduler's cache holds), churn headroom at the
  // mutable adjacency-vector rate (what a churning consumer materializes).
  auto nm = [&]() -> std::pair<std::uint64_t, std::uint64_t> {
    if (kind_ == "gnp") {
      const auto n = num("n");
      return {n, static_cast<std::uint64_t>(real("p") * double(n) * double(n) / 2.0)};
    }
    if (kind_ == "regular") return {num("n"), num("n") * num("d") / 2};
    if (kind_ == "grid") return {num("rows") * num("cols"), 2 * num("rows") * num("cols")};
    if (kind_ == "cycle" || kind_ == "path" || kind_ == "tree") return {num("n"), num("n")};
    if (kind_ == "star") return {num("n"), num("n")};
    if (kind_ == "complete") return {num("n"), num("n") * num("n") / 2};
    if (kind_ == "geometric") {
      const auto n = num("n");
      const double r = real("radius");
      return {n, static_cast<std::uint64_t>(3.14 * r * r * double(n) * double(n) / 2.0)};
    }
    if (kind_ == "ba") return {num("n"), num("n") * num("attach")};
    if (kind_ == "bipartite") return {num("a") + num("b"), num("a") * num("b")};
    if (kind_ == "hypercube") return {1ULL << num("d"), (1ULL << num("d")) * num("d") / 2};
    if (kind_ == "multipartite") {
      const auto n = num("k") * num("part");
      return {n, n * (num("k") - 1) * num("part") / 2};
    }
    if (kind_ == "caterpillar") return {num("spine") * (1 + num("legs")), num("spine") * (2 + num("legs"))};
    if (kind_ == "blowup") return {num("len") * num("blow"), num("len") * num("blow") * num("blow")};
    if (kind_ == "bounded") return {num("n"), num("m")};
    if (kind_ == "powerlaw") {
      return {num("n"),
              static_cast<std::uint64_t>(real("avgdeg") * double(num("n")) / 2.0)};
    }
    return {1 << 16, 1 << 18};  // file: and anything unknown — a safe default
  }();
  // CSR: one 8-byte offset per vertex (+ sentinel), two 4-byte directed
  // entries per undirected edge.  Churn headroom: 48/vertex covers the
  // adjacency-vector header plus allocator slack, 16/edge the two directed
  // 4-byte entries plus growth slack.
  return 8 * (nm.first + 1) + 8 * nm.second +
         48 * extra_vertices + 16 * extra_edges;
}

}  // namespace agc::graph
