#include "agc/runtime/hooked_rounds.hpp"

#include "agc/obs/event_sink.hpp"
#include "agc/runtime/faults.hpp"

namespace agc::runtime {

HookedRounds::HookedRounds(Engine& engine, const RunOptions& opts)
    : engine_(engine),
      adversary_(opts.adversary),
      channel_(opts.channel),
      sink_(opts.sink),
      prev_profile_(engine.profile()),
      prev_sink_(engine.sink()),
      prev_channel_(engine.channel()),
      before_(engine.metrics()) {
  if (opts.collect_phase_times) {
    engine.set_profile(&profile_);
    timers_ = profile_.extra();
  }
  if (sink_ != nullptr) engine.set_sink(sink_);
  if (channel_ != nullptr) {
    engine.set_channel(channel_);
    channel_seen_ = channel_->events();
  }
}

HookedRounds::~HookedRounds() {
  engine_.set_profile(prev_profile_);
  engine_.set_sink(prev_sink_);
  engine_.set_channel(prev_channel_);
}

RoundFaults HookedRounds::step(bool with_adversary) {
  engine_.step();
  ++steps_;
  RoundFaults faults;
  if (channel_ != nullptr) {
    const std::uint64_t now = channel_->events();
    faults.channel = now - channel_seen_;
    channel_seen_ = now;
    emit_fault(channel_->name(), faults.channel);
  }
  if (with_adversary && adversary_ != nullptr) {
    {
      obs::ScopedPhaseTimer timer(timers_, obs::Phase::Fault);
      faults.adversary = adversary_->inject(engine_, steps_);
    }
    emit_fault(adversary_->name(), faults.adversary);
  }
  fault_events_ += faults.total();
  return faults;
}

void HookedRounds::emit_fault(const char* label, std::uint64_t count) const {
  if (sink_ == nullptr || count == 0) return;
  obs::Event ev;
  ev.kind = obs::EventKind::Fault;
  ev.round = engine_.rounds();
  ev.label = label;
  ev.value = count;
  sink_->emit(ev);
}

void HookedRounds::finish(RunReport& rep) const {
  const Metrics& now = engine_.metrics();
  rep.metrics.rounds = now.rounds - before_.rounds;
  rep.metrics.messages = now.messages - before_.messages;
  rep.metrics.total_bits = now.total_bits - before_.total_bits;
  rep.metrics.max_edge_bits = now.max_edge_bits;
  rep.fault_events = fault_events_;
  if (timers_ != nullptr) rep.phases = profile_.folded();
}

}  // namespace agc::runtime
