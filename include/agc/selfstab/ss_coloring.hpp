#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "agc/runtime/engine.hpp"
#include "agc/selfstab/ss_config.hpp"

/// \file ss_coloring.hpp
/// The self-stabilizing coloring (ss_config.hpp) on the round engine: one
/// SsColoringProgram per vertex broadcasts its color every round and runs
/// SsConfig::step on what it receives.  This is the path the fault hooks act
/// on — RAM corruption and churn between rounds, channel faults inside them
/// (faultlab, the zoo, campaigns, `agccli selfstab`) — and the one
/// stabilization runner, run_stabilization() / resettle() with
/// coloring_spec() (stabilization.hpp), drives it.  Runs whose faults all
/// land between runs can take the flat rounds of stabilization.hpp instead.

namespace agc::selfstab {

/// The forever-running coloring program.  RAM word 0 is the color.
class SsColoringProgram final : public runtime::VertexProgram {
 public:
  explicit SsColoringProgram(const SsConfig& cfg) : cfg_(cfg) {}

  void on_start(const runtime::VertexEnv& env) override {
    color_ = cfg_.reset_color(env.padded_id);
  }
  void on_send(const runtime::VertexEnv&, runtime::OutboxRef& out) override {
    color_ = cfg_.truncate(color_);
    out.broadcast(runtime::Word{color_, cfg_.color_bits()});
  }
  void on_receive(const runtime::VertexEnv& env,
                  const runtime::InboxRef& in) override {
    const auto nbrs = in.multiset();
    color_ = cfg_.step(env.padded_id, cfg_.truncate(color_), nbrs);
  }
  std::span<std::uint64_t> ram() override { return {&color_, 1}; }

  [[nodiscard]] std::uint64_t color() const noexcept { return color_; }

 private:
  const SsConfig& cfg_;
  std::uint64_t color_ = 0;
};

/// Factory for Engine::install.  `cfg` must outlive the engine.
[[nodiscard]] runtime::ProgramFactory ss_coloring_factory(const SsConfig& cfg);

/// Read the current coloring out of an engine running SsColoringProgram (or
/// any program whose RAM word 0 is the color).
[[nodiscard]] std::vector<Color> current_colors(runtime::Engine& engine);

}  // namespace agc::selfstab
