#include "agc/faultlab/channel.hpp"

#include "agc/graph/spec.hpp"

namespace agc::faultlab {

std::optional<std::uint32_t> parse_per_million(std::string_view text) noexcept {
  const auto p = graph::parse_f64(text);
  if (!p || *p < 0.0 || *p > 1.0) return std::nullopt;
  return static_cast<std::uint32_t>(*p * 1'000'000.0 + 0.5);
}

}  // namespace agc::faultlab
