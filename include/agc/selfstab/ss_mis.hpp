#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "agc/selfstab/ss_coloring.hpp"

/// \file ss_mis.hpp
/// Self-stabilizing maximal independent set (Section 4.2, Theorems 4.5/4.6).
///
/// Every vertex runs the self-stabilizing coloring and additionally keeps an
/// MIS status in {MIS, NOTMIS, UNDECIDED}.  Per round:
///   * an MIS vertex with an MIS neighbor becomes Undecided;
///   * a NOTMIS vertex with no MIS neighbor becomes Undecided;
///   * an Undecided vertex with an MIS neighbor becomes NOTMIS;
///   * an Undecided vertex with no MIS neighbor whose color is smaller than
///     all Undecided neighbors' joins the MIS.
/// Stabilization takes O(Delta + log* n) rounds after the last fault and the
/// adjustment radius is 2.

namespace agc::selfstab {

enum MisStatus : std::uint64_t { kUndecided = 0, kMis = 1, kNotMis = 2 };

/// Pack (color, status) into one broadcast word.
[[nodiscard]] constexpr std::uint64_t pack_cs(std::uint64_t color,
                                              std::uint64_t status) noexcept {
  return (color << 2) | (status & 3);
}
[[nodiscard]] constexpr std::uint64_t packed_color(std::uint64_t w) noexcept {
  return w >> 2;
}
[[nodiscard]] constexpr MisStatus packed_status(std::uint64_t w) noexcept {
  const auto s = w & 3;
  return s <= 2 ? static_cast<MisStatus>(s) : kUndecided;  // normalize corruption
}

/// One MIS status update (pure; shared with the line-graph MM simulation).
/// `neighbors` are packed (color,status) words of the 1-hop neighborhood.
[[nodiscard]] MisStatus mis_update(std::uint64_t my_color, MisStatus my_status,
                                   std::span<const std::uint64_t> neighbors);

/// The forever-running coloring + MIS program.
/// RAM: word 0 = color, word 1 = status.
class SsMisProgram final : public runtime::VertexProgram {
 public:
  explicit SsMisProgram(const SsConfig& cfg) : cfg_(cfg) {}

  void on_start(const runtime::VertexEnv& env) override {
    ram_[0] = cfg_.reset_color(env.padded_id);
    ram_[1] = kUndecided;
  }
  void on_send(const runtime::VertexEnv&, runtime::OutboxRef& out) override {
    ram_[0] = cfg_.truncate(ram_[0]);
    ram_[1] &= 3;
    out.broadcast(
        runtime::Word{pack_cs(ram_[0], ram_[1]), cfg_.color_bits() + 2});
  }
  void on_receive(const runtime::VertexEnv& env,
                  const runtime::InboxRef& in) override;
  std::span<std::uint64_t> ram() override { return {ram_, 2}; }

  [[nodiscard]] std::uint64_t color() const noexcept { return ram_[0]; }
  [[nodiscard]] MisStatus status() const noexcept {
    return packed_status(ram_[1] & 3);
  }

 private:
  const SsConfig& cfg_;
  std::uint64_t ram_[2] = {0, 0};  ///< [0] color, [1] status
  std::vector<std::uint64_t> colors_;  ///< neighbor colors, reused each round
};

[[nodiscard]] runtime::ProgramFactory ss_mis_factory(const SsConfig& cfg);

/// Read the MIS membership flags out of an engine running SsMisProgram.
[[nodiscard]] std::vector<bool> current_mis(runtime::Engine& engine);

}  // namespace agc::selfstab
