#pragma once

#include <cstdint>
#include <vector>

#include "agc/coloring/palette.hpp"
#include "agc/runtime/iterative.hpp"

/// \file kuhn_wattenhofer.hpp
/// The Kuhn-Wattenhofer / Szegedy-Vishwanathan O(Delta log Delta) color
/// reduction [47, 62] — the barrier baseline our AG algorithm beats.
///
/// The palette is cut into blocks of 2*(Delta+1) colors.  Within every block,
/// in parallel, vertices in the upper half recolor greedily into the lower
/// half (one local maximum at a time), halving the palette in O(Delta)
/// rounds; log(m/Delta) halvings reduce m colors to Delta+1 in
/// O(Delta log(m/Delta)) rounds.  Phase progress is encoded in disjoint color
/// intervals (the same trick as Mod-Linial), which keeps the rule a pure
/// function of 1-hop colors and therefore SET-LOCAL executable.

namespace agc::coloring {

/// Interval layout for the halving phases: phase k shrinks palette m_k to
/// m_{k+1} = ceil(m_k / (2*(Delta+1))) * (Delta+1); the final interval
/// [0, Delta+1) holds the result.
class KwSchedule {
 public:
  KwSchedule(std::uint64_t initial_palette, std::size_t delta);

  [[nodiscard]] std::size_t phases() const noexcept { return sizes_.size() - 1; }
  /// Palette size at phase k (k = 0 is the initial palette).
  [[nodiscard]] std::uint64_t size(std::size_t k) const { return sizes_[k]; }
  /// First color of interval k.  Later phases sit at lower offsets; the last
  /// interval starts at 0.
  [[nodiscard]] std::uint64_t offset(std::size_t k) const { return offsets_[k]; }
  /// Which interval does color c lie in?
  [[nodiscard]] std::size_t interval_of(Color c) const;
  [[nodiscard]] std::size_t delta() const noexcept { return delta_; }
  /// Total rounds the whole reduction can need (used as the run cap).
  [[nodiscard]] std::size_t round_bound() const;

 private:
  std::size_t delta_;
  std::vector<std::uint64_t> sizes_;    ///< m_0, m_1, ..., m_L (m_L <= Delta+1)
  std::vector<std::uint64_t> offsets_;  ///< offsets_[k] = sum of sizes_[j], j > k
};

class KwRule final : public runtime::IterativeRule {
 public:
  explicit KwRule(KwSchedule schedule) : sched_(std::move(schedule)) {}

  [[nodiscard]] Color step(runtime::StepContext, Color own,
                           std::span<Color> neighbors) const override;
  [[nodiscard]] bool is_final(Color c) const override {
    return c < sched_.size(sched_.phases());
  }
  [[nodiscard]] std::uint32_t color_bits() const override;

  [[nodiscard]] const KwSchedule& schedule() const noexcept { return sched_; }

 private:
  KwSchedule sched_;
};

/// Run the full KW reduction: proper k-coloring -> proper (Delta+1)-coloring
/// in O(Delta log(k/Delta)) rounds.
[[nodiscard]] runtime::IterativeResult kuhn_wattenhofer_reduce(
    graph::GraphView g, std::vector<Color> initial, std::size_t delta,
    const runtime::IterativeOptions& opts = {});

}  // namespace agc::coloring
