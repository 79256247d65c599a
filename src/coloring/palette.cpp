#include "agc/coloring/palette.hpp"

#include <algorithm>
#include <numeric>

namespace agc::coloring {

Color smallest_free(std::span<Color> taken) {
  std::sort(taken.begin(), taken.end());
  Color candidate = 0;
  for (const Color c : taken) {
    if (c > candidate) break;         // gap before c
    if (c == candidate) ++candidate;  // duplicates sit below candidate
  }
  return candidate;
}

std::vector<Color> identity_coloring(std::size_t n) {
  std::vector<Color> colors(n);
  std::iota(colors.begin(), colors.end(), Color{0});
  return colors;
}

}  // namespace agc::coloring
