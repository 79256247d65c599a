#include "agc/edge/edge_coloring.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <type_traits>

#include "agc/coloring/cole_vishkin.hpp"
#include "agc/math/primes.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/runtime/hooked_rounds.hpp"

namespace agc::edge {

namespace {
constexpr std::size_t npos = static_cast<std::size_t>(-1);
constexpr std::uint64_t kNoChainNeighbor = 6;  ///< sentinel in shift rounds
}  // namespace

// ---------------------------------------------------------------------------
// EdgeSchedule
// ---------------------------------------------------------------------------

EdgeSchedule::EdgeSchedule(std::uint64_t id_space, std::size_t delta, bool exact)
    : id_space_(std::max<std::uint64_t>(id_space, 2)),
      delta_(std::max<std::size_t>(delta, 1)) {
  slots_.push_back({Phase::Id, 0, runtime::width_of(id_space_ - 1)});
  slots_.push_back({Phase::IJ, 0, runtime::width_of(delta_)});

  // Cole-Vishkin width recurrence from the edge-ID space id_space^2.
  std::uint64_t bound = id_space_ * id_space_;
  std::size_t t = 0;
  while (bound > 6) {
    const std::uint32_t w = runtime::width_of(bound - 1);
    bound = 2 * (w - 1) + 2;
    slots_.push_back({Phase::Cv, t++, runtime::width_of(bound - 1)});
  }
  for (std::size_t c = 0; c < 3; ++c) slots_.push_back({Phase::Shift, c, 3});

  // AG over the line graph: degree bound 2*Delta-2, initial palette 3*Delta^2.
  const std::size_t delta_l = std::max<std::size_t>(2 * delta_ - 2, 1);
  const std::uint64_t palette = 3 * static_cast<std::uint64_t>(delta_) * delta_;
  const auto sqrt_pal = static_cast<std::uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(palette))));
  q_ = math::next_prime(std::max<std::uint64_t>(2 * delta_l + 1, sqrt_pal));
  for (std::size_t r = 0; r <= q_; ++r) slots_.push_back({Phase::Ag, r, 1});

  if (exact) {
    mixed_.emplace(delta_l, q_);
    for (std::size_t r = 0; r < mixed_->round_bound(); ++r) {
      slots_.push_back({Phase::Exact, r, 2});
    }
  }
}

std::size_t EdgeSchedule::total_bits() const {
  std::size_t sum = 0;
  for (const auto& s : slots_) sum += s.width;
  return sum;
}

// ---------------------------------------------------------------------------
// EdgeColoringProgram
// ---------------------------------------------------------------------------

void EdgeColoringProgram::on_start(const runtime::VertexEnv& env) {
  nbrs_.assign(env.neighbors.begin(), env.neighbors.end());
  slots_.assign(nbrs_.size(), EdgeSlot{});
  pending_new_label_.assign(nbrs_.size(), 0);
  // Orientation toward the larger ID; (i,j) = rank in port order per side.
  std::uint32_t out_rank = 0;
  std::uint32_t in_rank = 0;
  for (std::size_t p = 0; p < nbrs_.size(); ++p) {
    slots_[p].out = env.id < nbrs_[p];
    slots_[p].mine = slots_[p].out ? ++out_rank : ++in_rank;
  }
}

void EdgeColoringProgram::sync_ports(const runtime::VertexEnv& env) {
  if (std::ranges::equal(env.neighbors, nbrs_)) return;
  // The adversary added or removed incident edges since the last round.
  // Re-key every per-port vector by neighbor ID: a kept edge keeps its state,
  // a new edge starts fresh, and every index addresses a current port.
  const std::size_t deg = env.neighbors.size();
  std::vector<std::size_t> from(deg, npos);
  for (std::size_t p = 0; p < deg; ++p) {
    const auto it = std::lower_bound(nbrs_.begin(), nbrs_.end(), env.neighbors[p]);
    if (it != nbrs_.end() && *it == env.neighbors[p]) {
      from[p] = static_cast<std::size_t>(it - nbrs_.begin());
    }
  }
  const auto rekey = [&](auto& per_port) {
    std::remove_reference_t<decltype(per_port)> next(deg);
    for (std::size_t p = 0; p < deg; ++p) {
      if (from[p] < per_port.size()) next[p] = per_port[from[p]];
    }
    per_port = std::move(next);
  };
  rekey(slots_);
  rekey(pending_new_label_);
  rekey(pending_out_);
  rekey(in_acc_);
  for (std::size_t p = 0; p < deg; ++p) {
    if (from[p] == npos) slots_[p].out = env.id < env.neighbors[p];
  }
  nbrs_.assign(env.neighbors.begin(), env.neighbors.end());
}

std::size_t EdgeColoringProgram::pred_port(std::size_t p) const {
  // Predecessor of an outgoing edge p: the incoming edge with i == other's i
  // and j == other's j.  At this endpoint an outgoing slot holds (mine=i,
  // other=j); an incoming slot holds (mine=j, other=i).
  assert(slots_[p].out);
  for (std::size_t q = 0; q < slots_.size(); ++q) {
    if (q == p || slots_[q].out) continue;
    if (slots_[q].other == slots_[p].mine && slots_[q].mine == slots_[p].other) {
      return q;
    }
  }
  return npos;
}

std::size_t EdgeColoringProgram::succ_port(std::size_t p) const {
  // Successor of an incoming edge p: the outgoing edge with the same (i,j).
  assert(!slots_[p].out);
  for (std::size_t q = 0; q < slots_.size(); ++q) {
    if (q == p || !slots_[q].out) continue;
    if (slots_[q].mine == slots_[p].other && slots_[q].other == slots_[p].mine) {
      return q;
    }
  }
  return npos;
}

std::optional<std::uint64_t> EdgeColoringProgram::word_for_port(
    const runtime::VertexEnv& env, std::size_t p) {
  const auto& slot = sched_.slot(lr_);
  EdgeSlot& e = slots_[p];
  switch (slot.phase) {
    case EdgeSchedule::Phase::Id:
      return env.padded_id;
    case EdgeSchedule::Phase::IJ:
      return e.mine;
    case EdgeSchedule::Phase::Cv: {
      if (!e.out) return std::nullopt;  // labels travel tail -> head
      const std::size_t pp = pred_port(p);
      const std::uint64_t pred =
          pp == npos ? coloring::cv::virtual_pred(e.label) : slots_[pp].label;
      pending_new_label_[p] = coloring::cv::step(e.label, pred);
      return pending_new_label_[p];
    }
    case EdgeSchedule::Phase::Shift: {
      // The tail contributes the predecessor's label, the head the
      // successor's; both sides then reduce identically.
      const std::size_t cp = e.out ? pred_port(p) : succ_port(p);
      return cp == npos ? kNoChainNeighbor : slots_[cp].label;
    }
    case EdgeSchedule::Phase::Ag: {
      const std::uint64_t q = sched_.q();
      const std::uint64_t b = e.color % q;
      for (std::size_t o = 0; o < slots_.size(); ++o) {
        if (o != p && slots_[o].color % q == b) return 1;
      }
      return 0;
    }
    case EdgeSchedule::Phase::Exact: {
      const auto& mixed = sched_.mixed();
      const std::uint64_t N = mixed.n();
      const std::uint64_t pr = mixed.p();
      bool low_working = false;
      bool conflict = false;
      const std::uint64_t c = e.color;
      for (std::size_t o = 0; o < slots_.size(); ++o) {
        if (o == p) continue;
        const std::uint64_t oc = slots_[o].color;
        if (oc >= N && oc < 2 * N) low_working = true;
        if (c < 2 * N) {
          // Low state: conflicts with low states sharing the value.
          if (oc < 2 * N && oc % N == c % N) conflict = true;
        } else {
          const std::uint64_t a = (c - 2 * N) % pr;
          if (oc >= 2 * N && (oc - 2 * N) % pr == a) conflict = true;
          if (oc < N && oc == a) conflict = true;
        }
      }
      return (static_cast<std::uint64_t>(conflict) << 1) |
             static_cast<std::uint64_t>(low_working);
    }
  }
  return std::nullopt;
}

void EdgeColoringProgram::on_send(const runtime::VertexEnv& env,
                                  runtime::OutboxRef& out) {
  sync_ports(env);
  if (lr_ >= sched_.logical_rounds() || nbrs_.empty()) return;
  const auto& slot = sched_.slot(lr_);
  if (!serialize_ || bit_ == 0) {
    pending_out_.assign(nbrs_.size(), std::nullopt);
    for (std::size_t p = 0; p < nbrs_.size(); ++p) {
      pending_out_[p] = word_for_port(env, p);
    }
  }
  for (std::size_t p = 0; p < nbrs_.size(); ++p) {
    if (!pending_out_[p].has_value()) continue;
    if (serialize_) {
      out.send(p, runtime::Word{(*pending_out_[p] >> bit_) & 1ULL, 1});
    } else {
      out.send(p, runtime::Word{*pending_out_[p], slot.width});
    }
  }
}

void EdgeColoringProgram::on_receive(const runtime::VertexEnv& env,
                                     const runtime::InboxRef& in) {
  if (lr_ >= sched_.logical_rounds()) return;
  const auto& slot = sched_.slot(lr_);

  if (serialize_) {
    if (bit_ == 0) in_acc_.assign(nbrs_.size(), std::nullopt);
    for (std::size_t p = 0; p < nbrs_.size(); ++p) {
      const auto words = in.from_port(p);
      if (words.empty()) continue;
      if (!in_acc_[p]) in_acc_[p] = 0;
      *in_acc_[p] |= (words.front().value & 1ULL) << bit_;
    }
    if (++bit_ < slot.width) return;
    bit_ = 0;
    apply(env, in_acc_);
    ++lr_;
    return;
  }

  std::vector<std::optional<std::uint64_t>> in_words(nbrs_.size());
  for (std::size_t p = 0; p < nbrs_.size(); ++p) {
    const auto words = in.from_port(p);
    if (!words.empty()) in_words[p] = words.front().value;
  }
  apply(env, in_words);
  ++lr_;
}

void EdgeColoringProgram::apply(
    const runtime::VertexEnv& env,
    const std::vector<std::optional<std::uint64_t>>& in_words) {
  const auto& slot = sched_.slot(lr_);
  switch (slot.phase) {
    case EdgeSchedule::Phase::Id:
      // IDs are already in env.neighbors; the exchange exists for honest bit
      // accounting.
      break;

    case EdgeSchedule::Phase::IJ: {
      for (std::size_t p = 0; p < slots_.size(); ++p) {
        if (in_words[p]) slots_[p].other = static_cast<std::uint32_t>(*in_words[p]);
        // Initial Cole-Vishkin label: the edge's globally unique ID.
        const std::uint64_t tail = slots_[p].out ? env.padded_id : nbrs_[p];
        const std::uint64_t head = slots_[p].out ? nbrs_[p] : env.padded_id;
        slots_[p].label = tail * sched_.id_space() + head;
      }
      break;
    }

    case EdgeSchedule::Phase::Cv: {
      for (std::size_t p = 0; p < slots_.size(); ++p) {
        slots_[p].label = slots_[p].out ? pending_new_label_[p]
                                        : in_words[p].value_or(slots_[p].label);
      }
      break;
    }

    case EdgeSchedule::Phase::Shift: {
      const std::uint64_t c = 5 - slot.index;  // removes colors 5, 4, 3
      std::vector<std::uint64_t> next(slots_.size());
      for (std::size_t p = 0; p < slots_.size(); ++p) {
        const EdgeSlot& e = slots_[p];
        const std::size_t local = e.out ? pred_port(p) : succ_port(p);
        const std::uint64_t local_label =
            local == npos ? kNoChainNeighbor : slots_[local].label;
        const std::uint64_t remote_label = in_words[p].value_or(kNoChainNeighbor);
        const std::uint64_t pred = e.out ? local_label : remote_label;
        const std::uint64_t succ = e.out ? remote_label : local_label;
        next[p] = coloring::cv::reduce_step(e.label, pred != kNoChainNeighbor, pred,
                                            succ != kNoChainNeighbor, succ, c);
      }
      for (std::size_t p = 0; p < slots_.size(); ++p) slots_[p].label = next[p];

      if (slot.index == 2) {
        // Defect removed: assemble the proper 3*Delta^2 coloring.
        const std::uint64_t delta = sched_.delta();
        for (std::size_t p = 0; p < slots_.size(); ++p) {
          const EdgeSlot& e = slots_[p];
          const std::uint64_t i = e.out ? e.mine : e.other;
          const std::uint64_t j = e.out ? e.other : e.mine;
          slots_[p].color = ((i - 1) * delta + (j - 1)) * 3 + e.label;
        }
      }
      break;
    }

    case EdgeSchedule::Phase::Ag: {
      const std::uint64_t q = sched_.q();
      std::vector<std::uint64_t> next(slots_.size());
      for (std::size_t p = 0; p < slots_.size(); ++p) {
        const std::uint64_t c = slots_[p].color;
        const std::uint64_t a = c / q;
        const std::uint64_t b = c % q;
        // Conflict anywhere around the edge: at this endpoint (recompute from
        // the same snapshot word_for_port used) or at the other (received bit).
        bool conflict = in_words[p].value_or(0) != 0;
        if (!conflict) {
          for (std::size_t o = 0; o < slots_.size() && !conflict; ++o) {
            conflict = o != p && slots_[o].color % q == b;
          }
        }
        next[p] = conflict ? a * q + (b + a) % q : b;
      }
      for (std::size_t p = 0; p < slots_.size(); ++p) slots_[p].color = next[p];

      if (slot.index == sched_.q() && sched_.exact()) {
        for (auto& e : slots_) e.color = sched_.mixed().lift(e.color);
      }
      break;
    }

    case EdgeSchedule::Phase::Exact: {
      const auto& mixed = sched_.mixed();
      const std::uint64_t N = mixed.n();
      const std::uint64_t pr = mixed.p();
      std::vector<std::uint64_t> next(slots_.size());
      for (std::size_t p = 0; p < slots_.size(); ++p) {
        const std::uint64_t c = slots_[p].color;
        const std::uint64_t remote = in_words[p].value_or(0);
        bool conflict = (remote & 2) != 0;
        bool low_working = (remote & 1) != 0;
        for (std::size_t o = 0; o < slots_.size(); ++o) {
          if (o == p) continue;
          const std::uint64_t oc = slots_[o].color;
          if (oc >= N && oc < 2 * N) low_working = true;
          if (c < 2 * N) {
            if (oc < 2 * N && oc % N == c % N) conflict = true;
          } else {
            const std::uint64_t a = (c - 2 * N) % pr;
            if (oc >= 2 * N && (oc - 2 * N) % pr == a) conflict = true;
            if (oc < N && oc == a) conflict = true;
          }
        }
        next[p] = mixed.transition(c, conflict, low_working);
      }
      for (std::size_t p = 0; p < slots_.size(); ++p) slots_[p].color = next[p];
      break;
    }
  }
}

std::optional<Color> EdgeColoringProgram::edge_color(graph::Vertex w) const {
  const auto it = std::lower_bound(nbrs_.begin(), nbrs_.end(), w);
  if (it == nbrs_.end() || *it != w) return std::nullopt;
  return slots_[static_cast<std::size_t>(it - nbrs_.begin())].color;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

EdgeColoringResult color_edges_distributed(graph::GraphView g,
                                           const EdgeColoringOptions& opts) {
  const std::uint64_t t0 = obs::monotonic_ns();
  EdgeColoringResult result;
  const std::size_t delta = g.max_degree();
  EdgeSchedule sched(g.n(), delta, opts.exact);

  runtime::Transport transport =
      opts.bit_round ? runtime::Transport(runtime::Model::BIT)
                     : runtime::Transport(runtime::Model::CONGEST, opts.congest_bits);
  runtime::Engine engine(g, transport);
  engine.set_executor(opts.executor);
  runtime::HookedRounds rounds(engine, opts);
  if (opts.sink != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunStart;
    ev.label = opts.tag != nullptr ? opts.tag : "edge";
    ev.value = g.n();
    opts.sink->emit(ev);
  }

  engine.install([&](const runtime::VertexEnv&) {
    return std::make_unique<EdgeColoringProgram>(sched, opts.bit_round);
  });

  const std::size_t cap =
      (opts.bit_round ? sched.total_bits() : sched.logical_rounds()) + 2;
  // The schedule length is the worst-case bound; in practice the coloring
  // settles much earlier, so poll for quiescence (a proper coloring within
  // the final palette is a fixed point of every remaining stage).
  const std::uint64_t final_bound = opts.exact ? sched.mixed().n() : sched.q();
  const std::size_t min_rounds =
      opts.bit_round
          ? sched.total_bits() - (opts.exact ? sched.mixed().round_bound() : 0) * 2
          : sched.logical_rounds() -
                (opts.exact ? sched.mixed().round_bound() : 0) - sched.q();
  auto extract = [&] {
    std::vector<Color> colors;
    colors.reserve(g.m());
    for (const auto& e : graph::edge_list(g)) {
      const auto* prog =
          dynamic_cast<const EdgeColoringProgram*>(&engine.program(e.first));
      colors.push_back(prog->edge_color(e.second).value_or(0));
    }
    return colors;
  };
  auto settled = [&](const std::vector<Color>& colors) {
    return graph::max_color(colors) < final_bound &&
           graph::is_proper_edge_coloring(g, colors);
  };
  // The edge program keeps no adversary-visible RAM (a static protocol), so
  // injections exercise churn/accounting paths; the proper / converged flags
  // report whatever damage was done.
  while (result.rounds < cap && !engine.all_halted()) {
    rounds.step();
    ++result.rounds;
    if (result.rounds >= min_rounds && result.rounds % 8 == 0) {
      obs::ScopedPhaseTimer timer(rounds.timers(), obs::Phase::Check);
      result.colors = extract();
      if (settled(result.colors)) break;
    }
  }
  result.colors = extract();
  result.converged = engine.all_halted() || settled(result.colors);
  rounds.finish(result);
  result.palette = graph::palette_size(result.colors);
  result.proper = graph::is_proper_edge_coloring(g, result.colors);
  if (g.m() > 0) {
    result.avg_bits_per_edge =
        static_cast<double>(result.metrics.total_bits) / (2.0 * g.m());
    result.max_bits_per_edge = result.metrics.max_edge_bits;
  }
  result.wall_ns = obs::monotonic_ns() - t0;
  if (opts.sink != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunEnd;
    ev.round = result.rounds;
    ev.label = opts.tag != nullptr ? opts.tag : "edge";
    ev.value = result.rounds;
    ev.ns = result.wall_ns;
    opts.sink->emit(ev);
  }
  return result;
}

}  // namespace agc::edge
