#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

/// \file phase_timer.hpp
/// Scoped phase timers for the round engine's observability layer.
///
/// A synchronous round decomposes into phases (send, deliver, receive, the
/// executor's barrier waits, plus runner-level work such as the per-round
/// properness check).  When profiling is enabled, each shard accumulates
/// nanoseconds and call counts per phase into its own PhaseStats; the profile
/// folds them in shard order — exactly the deterministic reduce discipline
/// Metrics uses — so a report's phase breakdown is reproducible modulo the
/// clock itself.
///
/// Everything here is allocation-free at steady state: PhaseStats is a pair
/// of fixed arrays, ScopedPhaseTimer is two monotonic-clock reads, and
/// PhaseProfile only allocates when the shard count grows.  A null stats
/// pointer disables a timer entirely (one branch, no clock read), which is
/// how the default run configuration stays out of the hot path.

namespace agc::obs {

/// The phase taxonomy (see docs/OBSERVABILITY.md).  Engine phases are the
/// passes of Engine::step; Barrier is a pass's fork/join idle time
/// (VertexShards::run); Check and Observer are runner-level (properness
/// assertion, on_round callbacks).
enum class Phase : std::uint8_t {
  Send = 0,  ///< on_send + transport validation (compute)
  Deliver,   ///< receiver-sharded accounting over the frozen arena
  Receive,   ///< on_receive state updates (compute)
  Barrier,   ///< executor fork/join idle: shards waiting on the slowest shard
  Check,     ///< per-round properness / stability predicate evaluation
  Observer,  ///< on_round observers (trace recorders, user callbacks)
  Fault,     ///< adversary injection between rounds
  kCount,
};

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

[[nodiscard]] std::string_view phase_name(Phase p) noexcept;

/// Monotonic wall clock in nanoseconds (steady_clock, never adjusted).
[[nodiscard]] inline std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One accumulator set: nanoseconds and invocation counts per phase.
struct PhaseStats {
  std::array<std::uint64_t, kPhaseCount> ns{};
  std::array<std::uint64_t, kPhaseCount> calls{};

  void add(Phase p, std::uint64_t delta_ns) noexcept {
    ns[static_cast<std::size_t>(p)] += delta_ns;
    ++calls[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] std::uint64_t phase_ns(Phase p) const noexcept {
    return ns[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t phase_calls(Phase p) const noexcept {
    return calls[static_cast<std::size_t>(p)];
  }

  /// Deterministic reduce: both counters add (there is no max-typed field),
  /// mirroring Metrics::merge so stage accumulation composes the same way.
  void merge(const PhaseStats& other) noexcept {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      ns[i] += other.ns[i];
      calls[i] += other.calls[i];
    }
  }

  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    std::uint64_t t = 0;
    for (const auto v : ns) t += v;
    return t;
  }

  [[nodiscard]] bool empty() const noexcept {
    for (const auto c : calls) {
      if (c != 0) return false;
    }
    return true;
  }
};

/// RAII phase timer.  A null stats pointer is the disabled state: the
/// constructor and destructor each cost one branch and no clock read.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(PhaseStats* stats, Phase phase) noexcept
      : stats_(stats), phase_(phase), start_(stats ? monotonic_ns() : 0) {}
  ~ScopedPhaseTimer() {
    if (stats_ != nullptr) stats_->add(phase_, monotonic_ns() - start_);
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  PhaseStats* stats_;
  Phase phase_;
  std::uint64_t start_;
};

/// Per-shard phase accumulators plus one extra set for work that is not owned
/// by any shard (executor barriers, runner-level checks and observers).
///
/// Concurrency contract: during a phase, shard s writes only shard(s) — the
/// same ownership discipline the executor already enforces for programs and
/// Metrics — and the pool's join barrier orders those writes before folded()
/// runs on the driving thread.  The extra set is written by the driving
/// thread only.
class PhaseProfile {
 public:
  /// Grow to cover `shards` accumulator sets (never shrinks; no-op and
  /// allocation-free once the executor's shard count is stable).
  void ensure_shards(std::size_t shards) {
    if (shards_.size() < shards) shards_.resize(shards);
  }

  [[nodiscard]] PhaseStats* shard(std::size_t s) noexcept { return &shards_[s]; }
  [[nodiscard]] PhaseStats* extra() noexcept { return &extra_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Sum of `p`-phase busy time over all shards (VertexShards::run derives
  /// barrier idle time from a pass's wall clock with it).
  [[nodiscard]] std::uint64_t busy_ns(Phase p) const noexcept {
    std::uint64_t t = 0;
    for (const auto& s : shards_) t += s.phase_ns(p);
    return t;
  }

  /// Fold in shard order (then the extra set) — deterministic like the
  /// engine's shard-order fold of Metrics.
  [[nodiscard]] PhaseStats folded() const noexcept {
    PhaseStats total;
    for (const auto& s : shards_) total.merge(s);
    total.merge(extra_);
    return total;
  }

  void reset() noexcept {
    for (auto& s : shards_) s = PhaseStats{};
    extra_ = PhaseStats{};
  }

 private:
  std::vector<PhaseStats> shards_;
  PhaseStats extra_;
};

}  // namespace agc::obs
