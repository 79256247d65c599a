// gf.hpp is header-only; this translation unit pins the vtable-free types and
// provides a home for future out-of-line helpers.
#include "agc/math/gf.hpp"

namespace agc::math {

// The modulus and its Barrett reciprocal; GF adds no state of its own.
static_assert(sizeof(Zm) == 2 * sizeof(std::uint64_t));
static_assert(sizeof(GF) == sizeof(Zm));

}  // namespace agc::math
