#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "agc/graph/checks.hpp"

/// \file palette.hpp
/// Color encodings shared by the AG family.
///
/// The paper represents a color as a pair <a,b> over Z_q (Section 3) or a
/// triple <c,b,a> over Z_p (Section 7).  We pack these into a single integer
/// color so they flow through the locally-iterative harness unchanged:
///   pair   <a,b>   ->  a*q + b          (a = "working" digit, b = value)
///   triple <c,b,a> ->  (c*p + b)*p + a

namespace agc::coloring {

using graph::Color;

/// Pair encoding over Z_q: color = a*q + b with 0 <= a,b < q.
struct PairCode {
  std::uint64_t q;

  [[nodiscard]] constexpr Color encode(std::uint64_t a, std::uint64_t b) const {
    return a * q + b;
  }
  [[nodiscard]] constexpr std::uint64_t a(Color c) const { return c / q; }
  [[nodiscard]] constexpr std::uint64_t b(Color c) const { return c % q; }
  [[nodiscard]] constexpr bool in_range(Color c) const { return c < q * q; }
  /// Final form <0,b>.
  [[nodiscard]] constexpr bool is_final(Color c) const { return c < q; }
};

/// Triple encoding over Z_p: color = (c*p + b)*p + a with 0 <= a,b,c < p.
struct TripleCode {
  std::uint64_t p;

  [[nodiscard]] constexpr Color encode(std::uint64_t c, std::uint64_t b,
                                       std::uint64_t a) const {
    return (c * p + b) * p + a;
  }
  [[nodiscard]] constexpr std::uint64_t c(Color x) const { return x / (p * p); }
  [[nodiscard]] constexpr std::uint64_t b(Color x) const { return (x / p) % p; }
  [[nodiscard]] constexpr std::uint64_t a(Color x) const { return x % p; }
  [[nodiscard]] constexpr bool in_range(Color x) const { return x < p * p * p; }
  /// Final form <0,0,a>.
  [[nodiscard]] constexpr bool is_final(Color x) const { return x < p; }
};

/// The smallest color absent from the multiset `taken`, found by sorting
/// `taken` in place and taking the first gap: the greedy choice of the
/// reduction rules, which pass the neighbor buffer they own for the step.
[[nodiscard]] Color smallest_free(std::span<Color> taken);

/// The identity coloring phi(v) = id(v): the canonical proper n-coloring that
/// every static run starts from.
[[nodiscard]] std::vector<Color> identity_coloring(std::size_t n);

}  // namespace agc::coloring
