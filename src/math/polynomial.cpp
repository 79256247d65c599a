#include "agc/math/polynomial.hpp"

#include <cmath>
#include <limits>

namespace agc::math {

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) noexcept {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

std::uint64_t sat_pow(std::uint64_t base, std::uint32_t exp) noexcept {
  std::uint64_t r = 1;
  for (std::uint32_t i = 0; i < exp; ++i) r = sat_mul(r, base);
  return r;
}

std::uint64_t ceil_root(std::uint64_t p, std::uint32_t k) noexcept {
  if (p <= 1) return 1;
  auto r = static_cast<std::uint64_t>(
      std::floor(std::pow(static_cast<double>(p), 1.0 / k)));
  while (sat_pow(r, k) < p) ++r;
  while (r > 1 && sat_pow(r - 1, k) >= p) --r;
  return r;
}

}  // namespace agc::math
