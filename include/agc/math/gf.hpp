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
/// group (addition/subtraction only); `GF` additionally provides
/// multiplication and inversion, asserts a prime modulus below 2^32, and
/// reduces without dividing.

namespace agc::math {

/// The additive group of integers modulo m.  Values are canonical (< m).
class Zm {
 public:
  explicit Zm(std::uint64_t modulus) : m_(modulus) { assert(m_ >= 1); }

  [[nodiscard]] std::uint64_t modulus() const noexcept { return m_; }

  [[nodiscard]] std::uint64_t reduce(std::uint64_t x) const noexcept { return x % m_; }

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
};

/// The prime field GF(p) for a prime p < 2^32, so the product of two
/// residues fits in 64 bits.  Construction asserts both and computes
/// floor((2^64 - 1) / p) once; reduce, mul and divmod then run inline as one
/// 64x64->128 multiply plus at most one correction (Barrett reduction), with
/// no hardware divide.
class GF : public Zm {
 public:
  explicit GF(std::uint64_t p) : Zm(p), recip_(~std::uint64_t{0} / p) {
    assert(p < (std::uint64_t{1} << 32));
    assert(is_prime(p));
  }

  struct DivMod {
    std::uint64_t quot;
    std::uint64_t rem;
  };

  /// x / p and x % p for any 64-bit x.  The estimate hi64(x * recip) falls
  /// short of x / p by x * (1 + (2^64 - 1) % p) / (p * 2^64) < 1, so one
  /// conditional step corrects it.
  [[nodiscard]] DivMod divmod(std::uint64_t x) const noexcept {
    std::uint64_t quot = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * recip_) >> 64);
    std::uint64_t rem = x - quot * modulus();
    if (rem >= modulus()) {
      ++quot;
      rem -= modulus();
    }
    return {quot, rem};
  }

  [[nodiscard]] std::uint64_t reduce(std::uint64_t x) const noexcept {
    return divmod(x).rem;
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

 private:
  std::uint64_t recip_;  ///< floor((2^64 - 1) / p)
};

}  // namespace agc::math
