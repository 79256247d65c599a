#pragma once

#include <cassert>
#include <cstdint>

#include "agc/math/primes.hpp"

/// \file gf.hpp
/// Arithmetic in Z_m (additive group modulo m) and GF(p) (prime field).
///
/// The AG family of algorithms performs its color updates in Z_q for a prime
/// q (Section 3 of the paper), but the exact-(Delta+1) finisher AG(N) works in
/// Z_N for a *composite* N = Delta+1 (Section 7).  `Zm` models the additive
/// group (addition/subtraction) and divides by its modulus without a
/// hardware divide; `GF` additionally provides multiplication and inversion
/// and asserts a prime modulus below 2^32.  The locally-iterative rules build
/// one Zm per rule constant and decode every neighbor color through it.

namespace agc::math {

/// The additive group of integers modulo m >= 1.  Values are canonical (< m).
/// Construction computes floor((2^64 - 1) / m) once; divmod and reduce then
/// run inline as one 64x64->128 multiply plus at most one correction (Barrett
/// reduction), with no hardware divide.
class Zm {
 public:
  /// `modulus` must be at least 1 (0 divides by zero here).
  explicit Zm(std::uint64_t modulus)
      : m_(modulus), recip_(~std::uint64_t{0} / modulus) {}

  [[nodiscard]] std::uint64_t modulus() const noexcept { return m_; }

  struct DivMod {
    std::uint64_t quot;
    std::uint64_t rem;
  };

  /// x / m and x % m for any 64-bit x and any modulus m >= 1.  With
  /// r = (2^64 - 1) % m, the estimate hi64(x * recip) falls short of x / m by
  /// x * (1 + r) / (m * 2^64) < 1 (as x < 2^64 and 1 + r <= m), so it is
  /// floor(x / m) or one less, and one conditional step corrects it.  The
  /// remainder x - quot * m never exceeds x, so nothing overflows even for
  /// m > 2^63.
  [[nodiscard]] DivMod divmod(std::uint64_t x) const noexcept {
    std::uint64_t quot = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * recip_) >> 64);
    std::uint64_t rem = x - quot * m_;
    if (rem >= m_) {
      ++quot;
      rem -= m_;
    }
    return {quot, rem};
  }

  [[nodiscard]] std::uint64_t reduce(std::uint64_t x) const noexcept {
    return divmod(x).rem;
  }

  [[nodiscard]] std::uint64_t add(std::uint64_t a, std::uint64_t b) const noexcept {
    assert(a < m_ && b < m_);
    std::uint64_t s = a + b;
    return s >= m_ ? s - m_ : s;
  }

  [[nodiscard]] std::uint64_t sub(std::uint64_t a, std::uint64_t b) const noexcept {
    assert(a < m_ && b < m_);
    return a >= b ? a - b : a + m_ - b;
  }

  [[nodiscard]] std::uint64_t neg(std::uint64_t a) const noexcept {
    assert(a < m_);
    return a == 0 ? 0 : m_ - a;
  }

 private:
  std::uint64_t m_;
  std::uint64_t recip_;  ///< floor((2^64 - 1) / m)
};

/// The prime field GF(p) for a prime p < 2^32, so the product of two
/// residues fits in 64 bits.  Construction asserts both; mul reduces through
/// Zm's divide-free divmod.
class GF : public Zm {
 public:
  explicit GF(std::uint64_t p) : Zm(p) {
    assert(p < (std::uint64_t{1} << 32));
    assert(is_prime(p));
  }

  [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    assert(a < modulus() && b < modulus());
    return reduce(a * b);
  }

  [[nodiscard]] std::uint64_t pow(std::uint64_t a, std::uint64_t e) const noexcept {
    return pow_mod(a, e, modulus());
  }

  /// Multiplicative inverse via Fermat's little theorem; a must be non-zero.
  [[nodiscard]] std::uint64_t inv(std::uint64_t a) const noexcept {
    assert(a != 0 && a < modulus());
    return pow(a, modulus() - 2);
  }
};

}  // namespace agc::math
