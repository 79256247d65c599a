#include "agc/coloring/kuhn_wattenhofer.hpp"

#include <algorithm>
#include <cassert>

namespace agc::coloring {

KwSchedule::KwSchedule(std::uint64_t initial_palette, std::size_t delta)
    : delta_(delta) {
  const std::uint64_t target = delta + 1;
  const std::uint64_t block = 2 * target;
  sizes_.push_back(std::max<std::uint64_t>(initial_palette, 1));
  while (sizes_.back() > target) {
    const std::uint64_t m = sizes_.back();
    const std::uint64_t blocks = (m + block - 1) / block;
    sizes_.push_back(blocks * target);
  }
  // offsets: last interval at 0, earlier intervals stacked above it.
  offsets_.assign(sizes_.size(), 0);
  for (std::size_t k = sizes_.size(); k-- > 0;) {
    if (k + 1 < sizes_.size()) offsets_[k] = offsets_[k + 1] + sizes_[k + 1];
  }
}

std::size_t KwSchedule::interval_of(Color c) const {
  for (std::size_t k = 0; k < sizes_.size(); ++k) {
    if (c >= offsets_[k]) {
      assert(c < offsets_[k] + sizes_[k]);
      return k;
    }
  }
  return sizes_.size() - 1;
}

std::size_t KwSchedule::round_bound() const {
  // Each interval drains in <= Delta+3 rounds once its neighborhood's higher
  // intervals are empty; the local gating pipelines, so the sum bounds it.
  return (phases() + 1) * (delta_ + 4) + 16;
}

Color KwRule::step(runtime::StepContext, Color own,
                   std::span<Color> neighbors) const {
  const std::size_t last = sched_.phases();
  const std::size_t k = sched_.interval_of(own);
  if (k == last) return own;  // final interval

  const std::uint64_t target = sched_.delta() + 1;
  const std::uint64_t block_size = 2 * target;
  const std::uint64_t x = own - sched_.offset(k);
  const std::uint64_t block = x / block_size;
  const std::uint64_t pos = x % block_size;
  const std::uint64_t down_off = sched_.offset(k + 1);

  // Hold position while any neighbor is still in a higher interval: a late
  // arrival could otherwise land on a color this vertex vacated and collide
  // with it one interval further down.  This locally sequentializes the
  // phases without any global round knowledge.
  for (Color nc : neighbors) {
    if (sched_.interval_of(nc) < k) return own;
  }

  if (pos < target) {
    // Lower half: descend verbatim into the next interval.
    return down_off + block * target + pos;
  }

  // Upper half: act only as the block-local maximum.
  for (Color nc : neighbors) {
    if (sched_.interval_of(nc) != k) continue;
    const std::uint64_t nx = nc - sched_.offset(k);
    if (nx / block_size == block && nx > x) return own;
  }

  // Positions occupied by same-block neighbors in this interval and the
  // next one (vertices that already descended from this block), compacted
  // into the front of the neighbor buffer: at most deg of them.
  std::size_t taken = 0;
  for (const Color nc : neighbors) {
    const std::size_t nk = sched_.interval_of(nc);
    if (nk == k) {
      const std::uint64_t nx = nc - sched_.offset(k);
      if (nx / block_size == block && nx % block_size < target) {
        neighbors[taken++] = nx % block_size;
      }
    } else if (nk == k + 1) {
      const std::uint64_t ny = nc - down_off;
      if (ny / target == block) neighbors[taken++] = ny % target;
    }
  }
  // < target: at most Delta neighbors exclude at most Delta of the
  // target = Delta+1 positions.
  const std::uint64_t p = smallest_free(neighbors.first(taken));
  assert(p < target);
  return down_off + block * target + p;
}

std::uint32_t KwRule::color_bits() const {
  return runtime::width_of(sched_.offset(0) + sched_.size(0) - 1);
}

runtime::IterativeResult kuhn_wattenhofer_reduce(graph::GraphView g,
                                                 std::vector<Color> initial,
                                                 std::size_t delta,
                                                 const runtime::IterativeOptions& opts) {
  const Color k = graph::max_color(initial) + 1;
  KwSchedule sched(k, delta);
  // Initial colors live in the top interval.
  const std::uint64_t top = sched.offset(0);
  for (Color& c : initial) c += top;
  KwRule rule(sched);
  runtime::IterativeOptions capped = opts;
  capped.max_rounds = std::min(opts.max_rounds, sched.round_bound());
  return run_locally_iterative(g, std::move(initial), rule, capped);
}

}  // namespace agc::coloring
