#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agc/graph/frozen.hpp"
#include "agc/graph/graph.hpp"
#include "agc/graph/view.hpp"

/// \file spec.hpp
/// GraphSpec — a parse/format round-trippable description of a graph.
///
/// Every generated graph in this repo is fully determined by a generator
/// name plus a handful of numeric parameters, and the spelling used to ask
/// for one ("regular:1500,8,1234") has historically been parsed ad hoc in
/// each tool and bench binary.  GraphSpec centralizes that: it parses both
/// the legacy positional form (`gnp:1000,0.01,7`) and the named form
/// (`gnp:n=1000,p=0.01,seed=7`), formats back to one canonical spelling,
/// and exposes a stable 64-bit content hash of that spelling — the key the
/// campaign scheduler's graph cache shares identical CSRs under
/// (docs/SCHED.md).
///
/// Round-trip contract: `parse(s).to_string()` is canonical (named form,
/// declared parameter order, shortest round-trippable float spelling), and
/// `parse(spec.to_string()) == spec` for every valid spec.  Two specs build
/// the same graph whenever their content hashes agree.

namespace agc::graph {

/// What a consumer intends to do with the graph it asks a spec for.  The
/// algorithm entry points all read through GraphView, so almost every tool
/// and bench wants ReadOnly — the frozen CSR backend, at a fraction of the
/// adjacency-vector footprint.  Only consumers that churn topology (the agcd
/// service, the faultlab adversaries) need Mutable.
enum class Mutability : std::uint8_t { ReadOnly, Mutable };

/// The result of GraphSpec::resolve(): owns whichever backend the caller's
/// mutability need selected and exposes it uniformly as a GraphView.  The
/// backend lives on the heap, so views taken from view() stay valid across
/// moves of the ResolvedGraph itself.
class ResolvedGraph {
 public:
  [[nodiscard]] GraphView view() const noexcept {
    return frozen_ != nullptr ? GraphView(*frozen_) : GraphView(*dyn_);
  }

  /// True when backed by the frozen CSR (resolved ReadOnly).
  [[nodiscard]] bool frozen() const noexcept { return frozen_ != nullptr; }

  /// The mutable backend; throws std::logic_error when resolved ReadOnly.
  [[nodiscard]] Graph& graph();

 private:
  friend class GraphSpec;
  ResolvedGraph() = default;
  std::unique_ptr<Graph> dyn_;
  std::unique_ptr<FrozenGraph> frozen_;
};

/// The one strict reading of an unsigned decimal from outside input — a spec
/// parameter, a CLI flag, an environment variable, a campaign key: digits
/// only, so no sign, blank or trailing text, and nothing past 2^64 - 1.
/// strtoull alone would wrap "-3" to 2^64 - 3, saturate on overflow and stop
/// at the first non-digit.  nullopt when `text` is not such a number.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;

/// The one strict reading of a real from outside input: a finite decimal,
/// so no `nan`, `inf`, hex float, leading blank or `+`, and no trailing text
/// (strtod takes all of those).  Range checks are the caller's.  nullopt
/// when `text` is not such a number.
[[nodiscard]] std::optional<double> parse_f64(std::string_view text) noexcept;

/// The one writer of a real for a text format (spec parameters, campaign
/// keys, the service aggregate): the shortest `%.*g` spelling that reads
/// back as `v`, so `0.01` stays "0.01".
[[nodiscard]] std::string format_f64(double v);

class GraphSpec {
 public:
  GraphSpec() = default;

  /// Parse `kind:arg,arg,...` where each arg is positional or `key=value`.
  /// Throws std::invalid_argument on unknown kinds, missing/extra/unknown
  /// parameters, or malformed numbers.
  [[nodiscard]] static GraphSpec parse(const std::string& spec);

  /// The canonical spelling: `kind:k1=v1,k2=v2` in declared parameter order.
  [[nodiscard]] std::string to_string() const;

  /// Stable content hash (FNV-1a over the canonical spelling).  Identical
  /// across platforms and processes, so it can key on-disk artifacts too.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Generate (or, for `file:` specs, load) the graph.
  [[nodiscard]] Graph build() const;

  /// Generate the graph straight into a frozen CSR.  For the streaming kinds
  /// (`gnp`, `powerlaw`) no adjacency vectors are ever allocated — the edge
  /// stream is replayed twice (count pass, fill pass) into the packed arrays
  /// (docs/SCALE.md); other kinds build and compact.  Contract, pinned by
  /// tests: identical to FrozenGraph::from_graph(build()) for every spec.
  [[nodiscard]] FrozenGraph build_frozen() const;

  /// Build behind the backend the caller's mutability need selects:
  /// ReadOnly -> build_frozen() (CSR), Mutable -> build() (adjacency
  /// vectors).  The one helper every tool and bench resolves its graph
  /// argument through, so "which backend?" is decided in exactly one place.
  [[nodiscard]] ResolvedGraph resolve(Mutability need) const;

  /// Coarse upper bound on the resident bytes of one built graph, from the
  /// parameters alone (no build needed).  The campaign scheduler's memory
  /// budget admits jobs against this estimate (docs/SCHED.md).  Modeled on
  /// the frozen CSR backend the scheduler's cache actually holds: 8-byte
  /// offsets per vertex, two 4-byte directed entries per undirected edge.
  [[nodiscard]] std::size_t estimated_bytes() const {
    return estimated_bytes(0, 0);
  }

  /// The same bound with vertex/edge churn headroom: a long-lived consumer
  /// that mutates its copy of the graph (the agcd service, docs/SERVICE.md)
  /// sizes its arena and admission against the graph it may *grow into*, not
  /// the one the spec builds.  Headroom is charged at the mutable
  /// adjacency-vector rate — churn implies a materialized Graph copy, which
  /// pays per-vertex vector headers the CSR does not.  Churn never changes
  /// the spec itself —
  /// to_string()/content_hash() describe the initial graph only, so cache
  /// keys stay valid however the built copy is mutated afterwards.
  [[nodiscard]] std::size_t estimated_bytes(std::uint64_t extra_vertices,
                                            std::uint64_t extra_edges) const;

  [[nodiscard]] const std::string& kind() const noexcept { return kind_; }

  /// Named parameter lookup (canonical key); throws if absent.
  [[nodiscard]] std::uint64_t num(const std::string& key) const;
  [[nodiscard]] double real(const std::string& key) const;

  friend bool operator==(const GraphSpec& a, const GraphSpec& b) {
    return a.kind_ == b.kind_ && a.values_ == b.values_;
  }

 private:
  std::string kind_;
  /// Canonicalized textual values, aligned with the kind's declared
  /// parameter order (see kKinds in spec.cpp).  `file:` keeps one entry, the
  /// verbatim path.
  std::vector<std::string> values_;
};

}  // namespace agc::graph
