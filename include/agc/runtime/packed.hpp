#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "agc/graph/graph.hpp"

/// \file packed.hpp
/// Byte-lane color storage for the locally-iterative sweep (iterative.hpp,
/// docs/EXEC.md).
///
/// The engine path stores one 64-bit word per vertex color (plus mailbox
/// state); at n = 10^7 that dominates the resident set.  The sweep instead
/// keeps the colors its neighbor reads touch in a PackedColors, one lane of
/// ceil(bits / 8) bytes per color for the width the rule declares
/// (IterativeRule::color_bits) — Linial's O(Delta^2) fixed point and the AG
/// pair space both fit in three bytes on realistic instances, so the two
/// double-buffered arrays cost a few bytes per vertex instead of 16.  Whole
/// bytes keep every read one unaligned load: the sweep's neighbor gather is
/// its hottest loop.

namespace agc::runtime {

static_assert(std::endian::native == std::endian::little,
              "PackedColors reads a lane as the low bytes of a 64-bit load");

/// A vector of n unsigned values below 2^bits (1 <= bits <= 64), each in a
/// lane of ceil(bits / 8) little-endian bytes.  A read is one unaligned
/// 8-byte load at the lane plus a mask; 7 bytes of padding after the last
/// lane keep that load in bounds.  A write stores exactly the lane's bytes.
///
/// Concurrency contract: concurrent set() calls are safe when no two threads
/// write the same entry — lanes share no byte.  A read also loads up to 7
/// bytes past its lane, so it must not run concurrently with a set() to the
/// next entries of the same buffer: the sweep reads one buffer and writes
/// the other in every pass.
class PackedColors {
 public:
  PackedColors() = default;

  PackedColors(std::size_t n, std::uint32_t bits)
      : n_(n),
        bits_(bits),
        lane_((bits + 7) / 8),
        mask_(bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1),
        bytes_(n * lane_ + kPad, std::byte{0}) {
    assert(bits >= 1 && bits <= 64);
  }

  [[nodiscard]] std::uint64_t get(std::size_t i) const noexcept {
    return load(bytes_.data() + i * lane_);
  }

  void set(std::size_t i, std::uint64_t v) noexcept {
    assert((v & ~mask_) == 0);
    // Two overlapping stores cover any lane of 1..8 bytes: the low half at
    // the front and the high half ending at the lane's last byte.
    std::byte* p = bytes_.data() + i * lane_;
    if (lane_ >= 4) {
      store<std::uint32_t>(p, v);
      store<std::uint32_t>(p + lane_ - 4, v >> (8 * (lane_ - 4)));
    } else if (lane_ >= 2) {
      store<std::uint16_t>(p, v);
      store<std::uint16_t>(p + lane_ - 2, v >> (8 * (lane_ - 2)));
    } else {
      store<std::uint8_t>(p, v);
    }
  }

  /// out[k] = get(at[k]) for every k: a stepped vertex's neighbor colors in
  /// one call.  `out` holds at least at.size() entries.
  void gather(std::span<const graph::Vertex> at, std::uint64_t* out) const noexcept {
    const std::byte* base = bytes_.data();
    for (std::size_t k = 0; k < at.size(); ++k) out[k] = load(base + at[k] * lane_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t bits() const noexcept { return bits_; }

  /// Resident bytes of the lane storage (capacity, like Graph::memory_bytes).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return bytes_.capacity();
  }

 private:
  static constexpr std::size_t kPad = 7;  ///< the last lane's load overhang

  [[nodiscard]] std::uint64_t load(const std::byte* p) const noexcept {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v & mask_;
  }

  template <typename Word>
  static void store(std::byte* p, std::uint64_t v) noexcept {
    const auto w = static_cast<Word>(v);
    std::memcpy(p, &w, sizeof w);
  }

  std::size_t n_ = 0;
  std::uint32_t bits_ = 0;
  std::size_t lane_ = 0;      ///< bytes per entry: ceil(bits / 8)
  std::uint64_t mask_ = 0;    ///< the low `bits` bits
  std::vector<std::byte> bytes_;
};

}  // namespace agc::runtime
