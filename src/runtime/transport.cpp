#include "agc/runtime/transport.hpp"

#include <stdexcept>

namespace agc::runtime {

std::string to_string(Model m) {
  switch (m) {
    case Model::LOCAL: return "LOCAL";
    case Model::CONGEST: return "CONGEST";
    case Model::BIT: return "BIT";
    case Model::SET_LOCAL: return "SET-LOCAL";
  }
  return "?";
}

std::uint32_t Transport::width_cap() const noexcept {
  switch (model_) {
    case Model::LOCAL:
    case Model::SET_LOCAL: return 0;  // unbounded
    case Model::CONGEST: return congest_bits_;
    case Model::BIT: return 1;
  }
  return 0;
}

void Transport::check_value(const Word& w) {
  if (w.bits < 64 && (w.value >> w.bits) != 0) {
    throw std::logic_error("message value wider than its declared bit width");
  }
}

void Transport::check_port_bits(std::uint64_t total) const {
  const std::uint32_t cap = width_cap();
  if (cap != 0 && total > cap) {
    throw std::logic_error("message of " + std::to_string(total) +
                           " bits exceeds " + to_string(model_) + " cap of " +
                           std::to_string(cap) + " bits");
  }
}

void Transport::validate(const OutboxRef& out) const {
  if (model_ == Model::SET_LOCAL && !out.used_broadcast_only()) {
    throw std::logic_error(
        "SET-LOCAL model admits broadcast only (no per-port sends)");
  }
  for (std::size_t p = 0; p < out.ports(); ++p) {
    for (const Word& w : out.at(p)) check_value(w);
  }
  if (width_cap() == 0) return;
  for (std::size_t p = 0; p < out.ports(); ++p) {
    std::uint64_t total = 0;
    for (const Word& w : out.at(p)) total += w.bits;
    check_port_bits(total);
  }
}

void Transport::validate_broadcast(const Word& w) const {
  check_value(w);
  check_port_bits(w.bits);
}

}  // namespace agc::runtime
