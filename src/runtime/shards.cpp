#include "agc/runtime/shards.hpp"

#include <algorithm>
#include <cstdint>

namespace agc::runtime {

VertexShards::VertexShards(graph::GraphView g, RoundExecutor* executor,
                           obs::PhaseProfile* profile, std::size_t granule)
    : executor_(executor), profile_(profile) {
  const std::size_t shards =
      executor != nullptr ? std::max<std::size_t>(1, executor->threads()) : 1;
  const std::size_t n = g.n();
  bounds_.assign(shards + 1, static_cast<graph::Vertex>(n));
  bounds_[0] = 0;
  const std::uint64_t total = 2 * static_cast<std::uint64_t>(g.m()) + n;
  std::uint64_t acc = 0;
  std::size_t s = 1;
  for (graph::Vertex v = 0; v < n && s < shards; ++v) {
    acc += g.degree(v) + 1;
    // Cut after v once the running weight crosses the s-th quantile.
    while (s < shards && acc * shards >= total * s) {
      const std::uint64_t cut = (std::uint64_t{v} + granule) / granule * granule;
      bounds_[s++] = static_cast<graph::Vertex>(std::min<std::uint64_t>(cut, n));
    }
  }
  if (profile_ != nullptr) profile_->ensure_shards(shards);
}

void VertexShards::run(const std::function<void(std::size_t)>& task,
                       obs::Phase phase) const {
  if (profile_ == nullptr || size() == 1) {
    run(task);
    return;
  }
  const std::uint64_t busy_before = profile_->busy_ns(phase);
  const std::uint64_t t0 = obs::monotonic_ns();
  run(task);
  const std::uint64_t occupied = (obs::monotonic_ns() - t0) * size();
  const std::uint64_t busy = profile_->busy_ns(phase) - busy_before;
  profile_->extra()->add(obs::Phase::Barrier, occupied > busy ? occupied - busy : 0);
}

}  // namespace agc::runtime
