#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "agc/math/gf.hpp"

/// \file polynomial.hpp
/// Polynomials over GF(q), the engine of Linial's color reduction.
///
/// Linial's algorithm maps a color c (an integer) to the polynomial g_c over
/// GF(q) whose coefficients are the base-q digits of c.  Two distinct colors
/// map to distinct polynomials of degree <= d, which agree on at most d
/// points; if q > d * Delta, some evaluation point x gives a pair <x, g_c(x)>
/// different from every neighbor's pair, shrinking the palette from q^{d+1}
/// to q^2 in one round.

namespace agc::math {

/// A digit polynomial over GF(q), lowest-degree coefficient first, held in a
/// fixed array: building and evaluating one never touches the heap.
class Polynomial {
 public:
  /// Every (q, d) stage search caps the degree at 64.
  static constexpr int kMaxDegree = 64;

  /// The polynomial whose coefficient vector is the base-q representation of
  /// `value` (so distinct values in [0, q^{max_degree+1}) yield distinct
  /// polynomials of degree <= max_degree).  max_degree <= kMaxDegree.
  /// Inline, like eval: both sit in the innermost loop of every Linial step.
  static Polynomial from_digits(GF field, std::uint64_t value, int max_degree) {
    assert(max_degree >= 0 && max_degree <= kMaxDegree);
    Polynomial p(field);
    p.size_ = static_cast<std::size_t>(max_degree) + 1;
    for (std::size_t i = 0; i < p.size_; ++i) {
      const auto [rest, digit] = field.divmod(value);
      p.coeffs_[i] = digit;
      value = rest;
    }
    while (p.size_ > 0 && p.coeffs_[p.size_ - 1] == 0) --p.size_;
    return p;
  }

  [[nodiscard]] std::uint64_t eval(std::uint64_t x) const noexcept {
    // Horner's rule from the leading coefficient: degree() multiplications.
    if (size_ == 0) return 0;
    if (x >= field_.modulus()) x = field_.reduce(x);
    std::uint64_t acc = coeffs_[size_ - 1];
    for (std::size_t i = size_ - 1; i-- > 0;) {
      acc = field_.add(field_.mul(acc, x), coeffs_[i]);
    }
    return acc;
  }

  /// from_digits(field, value, max_degree).eval(x) in O(1) memory, the
  /// evaluation of the end of Section 3: streams the base-q digits lowest
  /// first and stops once x^i = 0 (so x = 0 reads one digit) or the digits
  /// left are all zero.
  [[nodiscard]] static std::uint64_t eval_digits(const GF& field, std::uint64_t value,
                                                 int max_degree,
                                                 std::uint64_t x) noexcept {
    assert(max_degree >= 0 && max_degree <= kMaxDegree);
    if (x >= field.modulus()) x = field.reduce(x);
    auto [rest, acc] = field.divmod(value);
    std::uint64_t power = x;  // x^i
    for (int i = 1; i <= max_degree && rest != 0 && power != 0; ++i) {
      const auto [next, digit] = field.divmod(rest);
      acc = field.add(acc, field.mul(digit, power));
      power = field.mul(power, x);
      rest = next;
    }
    return acc;
  }

  [[nodiscard]] int degree() const noexcept {
    return static_cast<int>(size_) - 1;  // -1 for the zero polynomial
  }

  [[nodiscard]] std::span<const std::uint64_t> coefficients() const noexcept {
    return {coeffs_.data(), size_};
  }

  [[nodiscard]] const GF& field() const noexcept { return field_; }

  friend bool operator==(const Polynomial& a, const Polynomial& b) noexcept {
    return a.field_.modulus() == b.field_.modulus() &&
           std::ranges::equal(a.coefficients(), b.coefficients());
  }

 private:
  explicit Polynomial(GF field) : field_(field) {}

  GF field_;
  std::size_t size_ = 0;  ///< coefficients in use, trailing zeros trimmed
  std::array<std::uint64_t, kMaxDegree + 1> coeffs_{};
};

/// a * b, saturating at uint64 max.
[[nodiscard]] std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) noexcept;

/// base^exp, saturating at uint64 max.
[[nodiscard]] std::uint64_t sat_pow(std::uint64_t base, std::uint32_t exp) noexcept;

/// Smallest integer r with r^k >= p: the field size at which degree-(k-1)
/// digit polynomials cover a palette of p colors.
[[nodiscard]] std::uint64_t ceil_root(std::uint64_t p, std::uint32_t k) noexcept;

}  // namespace agc::math
