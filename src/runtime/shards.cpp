#include "agc/runtime/shards.hpp"

#include <algorithm>
#include <cstdint>

namespace agc::runtime {

VertexShards::VertexShards(graph::GraphView g, RoundExecutor* executor, bool timed)
    : backend_(executor != nullptr ? *executor : sequential_), timed_(timed) {
  const std::size_t shards = std::max<std::size_t>(1, backend_.threads());
  const std::size_t n = g.n();
  bounds_.assign(shards + 1, static_cast<graph::Vertex>(n));
  bounds_[0] = 0;
  const std::uint64_t total = 2 * static_cast<std::uint64_t>(g.m()) + n;
  std::uint64_t acc = 0;
  std::size_t s = 1;
  for (graph::Vertex v = 0; v < n && s < shards; ++v) {
    acc += g.degree(v) + 1;
    while (s < shards && acc * shards >= total * s) {
      const std::uint64_t cut = (std::uint64_t{v} + 1 + 63) & ~std::uint64_t{63};
      bounds_[s++] = static_cast<graph::Vertex>(std::min<std::uint64_t>(cut, n));
    }
  }
  for (std::size_t i = 1; i <= shards; ++i) {
    bounds_[i] = std::max(bounds_[i], bounds_[i - 1]);
  }
  if (timed_) profile_.ensure_shards(shards);
}

void VertexShards::run(const std::function<void(std::size_t)>& task,
                       obs::Phase phase) {
  if (!timed_ || size() == 1) {
    run(task);
    return;
  }
  const std::uint64_t busy_before = profile_.busy_ns(phase);
  const std::uint64_t t0 = obs::monotonic_ns();
  run(task);
  const std::uint64_t occupied = (obs::monotonic_ns() - t0) * size();
  const std::uint64_t busy = profile_.busy_ns(phase) - busy_before;
  profile_.extra()->add(obs::Phase::Barrier, occupied > busy ? occupied - busy : 0);
}

}  // namespace agc::runtime
