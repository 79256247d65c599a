#include "agc/selfstab/ss_mis.hpp"

namespace agc::selfstab {

MisStatus mis_update(std::uint64_t my_color, MisStatus my_status,
                     std::span<const std::uint64_t> neighbors) {
  bool nbr_mis = false;
  for (std::uint64_t w : neighbors) {
    if (packed_status(w) == kMis) {
      nbr_mis = true;
      break;
    }
  }

  // Transitions into Undecided take effect this round but do NOT permit a
  // same-round join: a joining decision must be based on neighbors that can
  // see us as Undecided, otherwise two NOTMIS neighbors could flip to
  // Undecided and both join on stale information, oscillating forever.
  if (my_status == kMis) return nbr_mis ? kUndecided : kMis;
  if (my_status == kNotMis) return nbr_mis ? kNotMis : kUndecided;

  // Undecided.
  if (nbr_mis) return kNotMis;
  // Join iff strictly locally minimal among undecided neighbors (ties —
  // possible only transiently, while the coloring is still improper — block
  // the join and resolve next round).
  for (std::uint64_t w : neighbors) {
    if (packed_status(w) == kUndecided && packed_color(w) <= my_color) {
      return kUndecided;
    }
  }
  return kMis;
}

void SsMisProgram::on_receive(const runtime::VertexEnv& env,
                              const runtime::InboxRef& in) {
  const auto packed = in.multiset();
  // Color step first, on the color components in the program's scratch (the
  // step may reorder them; mis_update still reads the packed words).
  colors_.clear();
  for (std::uint64_t w : packed) colors_.push_back(packed_color(w));
  ram_[0] = cfg_.step(env.padded_id, ram_[0], colors_);
  ram_[1] = mis_update(ram_[0], packed_status(ram_[1] & 3), packed);
}

runtime::ProgramFactory ss_mis_factory(const SsConfig& cfg) {
  return [&cfg](const runtime::VertexEnv&) {
    return std::make_unique<SsMisProgram>(cfg);
  };
}

std::vector<bool> current_mis(runtime::Engine& engine) {
  std::vector<bool> flags(engine.graph().n(), false);
  for (graph::Vertex v = 0; v < flags.size(); ++v) {
    const auto ram = engine.ram(v);
    flags[v] = ram.size() >= 2 && packed_status(ram[1] & 3) == kMis;
  }
  return flags;
}

}  // namespace agc::selfstab
