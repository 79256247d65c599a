#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

/// \file packed.hpp
/// Fixed-width bit-packed color storage for the locally-iterative sweep
/// (iterative.hpp, docs/EXEC.md).
///
/// The engine path stores one 64-bit word per vertex color (plus mailbox
/// state); at n = 10^7 that dominates the resident set.  The sweep instead
/// keeps the colors its neighbor reads touch in a PackedColors at exactly
/// the bit width the rule declares (IterativeRule::color_bits) — Linial's
/// O(Delta^2) fixed point and the AG pair space both fit well under 32 bits
/// on realistic instances, so the two double-buffered arrays cost a few bits
/// per vertex per buffer instead of 16 bytes.

namespace agc::runtime {

/// A vector of n unsigned values, each stored in exactly `bits` bits
/// (1..64), packed back to back across 64-bit words.  Entries may straddle a
/// word boundary; get/set handle the split.
///
/// Concurrency contract: concurrent set() calls are safe only when no two
/// threads touch the same underlying word.  Writers that partition the index
/// space must align their cut points to multiples of 64 entries — 64 entries
/// always span exactly `bits` whole words, for every width — which is what
/// the sweep's sharding does.
class PackedColors {
 public:
  PackedColors() = default;

  PackedColors(std::size_t n, std::uint32_t bits)
      : n_(n), bits_(bits), words_((n * bits + 63) / 64 + 1, 0) {
    assert(bits >= 1 && bits <= 64);
    // The +1 sentinel word lets get()/set() read/write the straddle partner
    // unconditionally, keeping the hot path branch-free of bounds checks.
  }

  [[nodiscard]] std::uint64_t get(std::size_t i) const noexcept {
    const std::uint64_t bit = static_cast<std::uint64_t>(i) * bits_;
    const std::size_t w = static_cast<std::size_t>(bit >> 6);
    const std::uint32_t off = static_cast<std::uint32_t>(bit & 63);
    std::uint64_t v = words_[w] >> off;
    if (off != 0) v |= words_[w + 1] << (64 - off);
    return bits_ == 64 ? v : v & mask();
  }

  void set(std::size_t i, std::uint64_t v) noexcept {
    assert(bits_ == 64 || (v & ~mask()) == 0);
    const std::uint64_t bit = static_cast<std::uint64_t>(i) * bits_;
    const std::size_t w = static_cast<std::size_t>(bit >> 6);
    const std::uint32_t off = static_cast<std::uint32_t>(bit & 63);
    const std::uint64_t m = bits_ == 64 ? ~std::uint64_t{0} : mask();
    words_[w] = (words_[w] & ~(m << off)) | (v << off);
    if (off != 0 && off + bits_ > 64) {
      const std::uint32_t spill = 64 - off;
      words_[w + 1] = (words_[w + 1] & ~(m >> spill)) | (v >> spill);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t bits() const noexcept { return bits_; }

  /// Resident bytes of the packed storage (capacity, like Graph::memory_bytes).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  [[nodiscard]] std::uint64_t mask() const noexcept {
    return (std::uint64_t{1} << (bits_ & 63)) - 1;  // bits_ == 64 handled by callers
  }

  std::size_t n_ = 0;
  std::uint32_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace agc::runtime
