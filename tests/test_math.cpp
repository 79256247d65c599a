// Math substrate: primality, modular arithmetic, GF(p), polynomials, log*.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "agc/math/gf.hpp"
#include "agc/math/iterated_log.hpp"
#include "agc/math/polynomial.hpp"
#include "agc/math/primes.hpp"

namespace {

using namespace agc::math;

TEST(Primes, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(1000));
  EXPECT_TRUE(is_prime(1009));
}

TEST(Primes, AgainstSieve) {
  // Cross-check Miller-Rabin against a classic sieve up to 10000.
  const int limit = 10000;
  std::vector<bool> composite(limit + 1, false);
  for (int i = 2; i * i <= limit; ++i) {
    if (!composite[i]) {
      for (int j = i * i; j <= limit; j += i) composite[j] = true;
    }
  }
  for (int i = 2; i <= limit; ++i) {
    EXPECT_EQ(is_prime(i), !composite[i]) << i;
  }
}

TEST(Primes, LargeKnownValues) {
  EXPECT_TRUE(is_prime(2147483647ULL));          // Mersenne prime 2^31-1
  EXPECT_TRUE(is_prime(1000000007ULL));
  EXPECT_TRUE(is_prime(18446744073709551557ULL));  // largest 64-bit prime
  EXPECT_FALSE(is_prime(18446744073709551555ULL));
  EXPECT_FALSE(is_prime(3215031751ULL));  // strong pseudoprime to bases 2,3,5,7
}

TEST(Primes, NextPrime) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(8), 11u);
  EXPECT_EQ(next_prime(11), 11u);
  EXPECT_EQ(next_prime_above(11), 13u);
  EXPECT_EQ(next_prime(1000000), 1000003u);
}

TEST(Primes, BertrandWindow) {
  // A prime always exists in [n, 2n): the AG modulus search relies on it.
  for (std::uint64_t n = 2; n < 4000; n = n * 3 / 2 + 1) {
    const auto p = prime_in_range(n, 2 * n);
    ASSERT_TRUE(p.has_value()) << n;
    EXPECT_GE(*p, n);
    EXPECT_LT(*p, 2 * n);
  }
}

TEST(Primes, MulModAndPowMod) {
  const std::uint64_t m = 18446744073709551557ULL;
  EXPECT_EQ(mul_mod(m - 1, m - 1, m), 1u);  // (-1)^2 = 1
  EXPECT_EQ(pow_mod(2, 64, 97), (1ULL << 32) % 97 * ((1ULL << 32) % 97) % 97);
  EXPECT_EQ(pow_mod(5, 0, 7), 1u);
  EXPECT_EQ(pow_mod(5, 1, 1), 0u);
}

TEST(Zm, GroupLaws) {
  const Zm z(12);
  EXPECT_EQ(z.add(7, 8), 3u);
  EXPECT_EQ(z.sub(3, 8), 7u);
  EXPECT_EQ(z.neg(0), 0u);
  EXPECT_EQ(z.neg(5), 7u);
  for (std::uint64_t a = 0; a < 12; ++a) {
    EXPECT_EQ(z.add(a, z.neg(a)), 0u);
    EXPECT_EQ(z.sub(z.add(a, 5), 5), a);
  }
}

TEST(GFTest, FieldLaws) {
  const GF f(101);
  for (std::uint64_t a = 1; a < 101; a += 7) {
    EXPECT_EQ(f.mul(a, f.inv(a)), 1u) << a;
  }
  EXPECT_EQ(f.pow(2, 100), 1u);  // Fermat
}

// Barrett reduction against the hardware: the primes at the edges of the
// q < 2^32 range, operands at the edges of 64 bits, and seeded values.
const std::uint64_t kEdgePrimes[] = {2, 3, 101, 65521, 2147483647ULL, 4294967291ULL};

std::vector<std::uint64_t> edge_values(std::uint64_t q) {
  return {0, 1, q - 1, q, q * q - 1, 1ULL << 32, 1ULL << 63, ~0ULL};
}

TEST(GFTest, DivModMatchesHardwareDivide) {
  std::mt19937_64 rng(42);
  for (const std::uint64_t q : kEdgePrimes) {
    const GF f(q);
    std::vector<std::uint64_t> xs = edge_values(q);
    for (int i = 0; i < 100000; ++i) xs.push_back(rng());
    for (const std::uint64_t x : xs) {
      const auto [quot, rem] = f.divmod(x);
      ASSERT_EQ(quot, x / q) << "q=" << q << " x=" << x;
      ASSERT_EQ(rem, x % q) << "q=" << q << " x=" << x;
      ASSERT_EQ(f.reduce(x), x % q) << "q=" << q << " x=" << x;
    }
  }
}

TEST(GFTest, MulMatchesMulMod) {
  std::mt19937_64 rng(43);
  for (const std::uint64_t q : kEdgePrimes) {
    const GF f(q);
    // Every edge value reduced into the field, pairwise.
    std::vector<std::uint64_t> residues;
    for (const std::uint64_t x : edge_values(q)) residues.push_back(x % q);
    for (const std::uint64_t a : residues) {
      for (const std::uint64_t b : residues) {
        ASSERT_EQ(f.mul(a, b), mul_mod(a, b, q)) << "q=" << q << " a=" << a << " b=" << b;
      }
    }
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t a = rng() % q;
      const std::uint64_t b = rng() % q;
      ASSERT_EQ(f.mul(a, b), mul_mod(a, b, q)) << "q=" << q << " a=" << a << " b=" << b;
    }
  }
}

TEST(PolynomialTest, DigitsRoundTrip) {
  const GF f(7);
  // 123 = 4 + 3*7 + 2*49 -> coefficients [4, 3, 2]
  const auto p = Polynomial::from_digits(f, 123, 4);
  ASSERT_EQ(p.coefficients().size(), 3u);  // trailing zeros trimmed
  EXPECT_EQ(p.coefficients()[0], 4u);
  EXPECT_EQ(p.coefficients()[1], 3u);
  EXPECT_EQ(p.coefficients()[2], 2u);
  EXPECT_EQ(p.eval(0), 4u);
  EXPECT_EQ(p.eval(1), (4 + 3 + 2) % 7u);
}

TEST(PolynomialTest, DistinctValuesDistinctPolys) {
  const GF f(11);
  for (std::uint64_t x = 0; x < 50; ++x) {
    for (std::uint64_t y = x + 1; y < 50; ++y) {
      EXPECT_FALSE(Polynomial::from_digits(f, x, 3) ==
                   Polynomial::from_digits(f, y, 3));
    }
  }
}

TEST(PolynomialTest, DegreeDBoundsAgreement) {
  // Two distinct degree-<=d polynomials agree on at most d points — the
  // heart of Linial's reduction.
  const GF f(31);
  const int d = 3;
  for (std::uint64_t x = 0; x < 40; x += 3) {
    for (std::uint64_t y = x + 1; y < 40; y += 5) {
      const auto px = Polynomial::from_digits(f, x, d);
      const auto py = Polynomial::from_digits(f, y, d);
      int agreements = 0;
      for (std::uint64_t e = 0; e < 31; ++e) {
        if (px.eval(e) == py.eval(e)) ++agreements;
      }
      EXPECT_LE(agreements, d);
    }
  }
}

TEST(IteratedLog, Values) {
  EXPECT_EQ(log_star(1), 0);
  EXPECT_EQ(log_star(2), 1);
  EXPECT_EQ(log_star(4), 2);
  EXPECT_EQ(log_star(16), 3);
  EXPECT_EQ(log_star(65536), 4);
  EXPECT_EQ(log_star(1ULL << 63), 4);  // 63 -> 5.98 -> 2.58 -> 1.37
}

TEST(IteratedLog, Log2Helpers) {
  EXPECT_EQ(log2_floor(1), 0);
  EXPECT_EQ(log2_floor(2), 1);
  EXPECT_EQ(log2_floor(3), 1);
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(3), 2);
  EXPECT_EQ(log2_ceil(1ULL << 40), 40);
  EXPECT_EQ(log2_ceil((1ULL << 40) + 1), 41);
}

}  // namespace
