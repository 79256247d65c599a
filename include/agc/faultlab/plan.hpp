#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "agc/runtime/faults.hpp"

/// \file plan.hpp
/// Recorded fault plans: every injected fault — RAM corruption, topology
/// churn, channel fault — serializes to one JSONL line, and a saved plan
/// replays the exact same trajectory (PlanAdversary for the RAM/topology
/// domain, zoo.hpp's WireFaults for the wire domain).
///
/// Line format (one event per line, keys always in this order):
///
///   {"round":12,"kind":"drop","u":3,"v":7,"word":0,"value":0}
///
/// `kind` is one of ram / add_edge / remove_edge / reset_vertex / add_vertex
/// / drop / corrupt / duplicate / delay / lie (runtime::to_string(FaultKind)).
/// Unknown top-level fields on a line are preserved verbatim (see
/// FaultPlan::extras): a plan recorded by a newer build with extra
/// annotations round-trips through an older parser unchanged, so committed
/// regression plans keep replaying across releases.
/// Rounds anchor per domain: RAM/topology events carry the number of engine
/// rounds completed when they fired (the adversary acts *between* rounds);
/// channel events carry the 0-based engine round they fired *inside*.
///
/// Plans are the currency of the fault-fuzz CI jobs: a failing campaign job
/// saves its plan, and the job replays it anywhere given the same runner and
/// keys (sched::run_stabilization_job; `agccli selfstab <keys> --fault-plan
/// f.jsonl --replay`, `agc-faultplan shrink`).

namespace agc::faultlab {

struct FaultPlan {
  std::vector<runtime::FaultEvent> events;
  /// Raw text of any unknown top-level fields per event line, each a
  /// ready-to-emit `,"key":value` suffix inserted before the closing brace.
  /// Either empty (no line had extras) or exactly events.size() entries;
  /// canonicalize() and the shrinker keep entries attached to their events.
  std::vector<std::string> extras;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }

  /// Deterministic order: by round, RAM/topology domain before channel,
  /// then (u, v, word).  stable_sort, so events of one domain injected in
  /// the same round keep their insertion (= injection) order — which is the
  /// order replay must apply them in.
  void canonicalize();

  [[nodiscard]] std::string to_jsonl() const;
  void save(const std::string& path) const;  ///< throws std::runtime_error

  [[nodiscard]] static FaultPlan parse(std::istream& in);
  [[nodiscard]] static FaultPlan load(const std::string& path);  ///< throws
};

/// Thread-safe FaultEventSink that accumulates a plan.  The engine records
/// RAM/topology mutations from the driving thread; WireFaults records wire
/// faults from executor shards concurrently — hence the mutex
/// (uncontended in sequential runs, and recording is off the steady-state
/// path unless a recorder is installed).
class FaultPlanRecorder final : public runtime::FaultEventSink {
 public:
  void record(const runtime::FaultEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    plan_.events.push_back(event);
  }

  /// The canonicalized plan recorded so far.
  [[nodiscard]] FaultPlan take() {
    std::lock_guard<std::mutex> lock(mu_);
    FaultPlan p = plan_;
    p.canonicalize();
    return p;
  }

 private:
  std::mutex mu_;
  FaultPlan plan_;
};

/// Replays the RAM/topology domain of a plan through the standard
/// FaultAdversary hook: each inject(engine, round) applies, in order, every
/// non-channel event whose recorded round equals the number of rounds the
/// engine has completed.  Pair with a replaying WireFaults for the wire
/// domain.
class PlanAdversary final : public runtime::FaultAdversary {
 public:
  explicit PlanAdversary(FaultPlan plan);

  std::size_t inject(runtime::Engine& engine, std::size_t round) override;

  [[nodiscard]] const char* name() const noexcept override { return "plan"; }
  [[nodiscard]] std::size_t events() const noexcept { return applied_; }
  /// Rounds with at least one RAM/topology event remaining at or after the
  /// cursor; lets a harness know when the plan is exhausted.
  [[nodiscard]] bool exhausted() const noexcept {
    return cursor_ >= events_.size();
  }
  /// The recorded round of the last event in the plan (either domain), or 0
  /// for an empty plan — the "faults stop here" horizon for watchdogs.
  [[nodiscard]] std::uint64_t last_event_round() const noexcept {
    return last_round_;
  }

 private:
  std::vector<runtime::FaultEvent> events_;  ///< non-channel, sorted by round
  std::size_t cursor_ = 0;
  std::size_t applied_ = 0;
  std::uint64_t last_round_ = 0;
};

}  // namespace agc::faultlab
