#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

/// \file histogram.hpp
/// An HDR-style latency histogram: fixed-size log-linear buckets (32
/// sub-buckets per power of two, exact below 32) covering the full uint64
/// range, so recording is O(1), allocation-free after construction, and
/// quantiles are read without keeping individual samples.  Values are unitful
/// only by convention — the service records one histogram in repair rounds
/// (deterministic) and one in microseconds (timing; excluded from the
/// deterministic aggregate, docs/SERVICE.md).
///
/// Quantiles report the recorded bucket's upper bound, so they are exact
/// below 32 and pessimistic by < 1/32 above — the YCSB-style resolution
/// tradeoff serving benches make (ROADMAP item 2).

namespace agc::svc {

class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t value) {
    ++counts_[bucket_of(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// Value at quantile q in [0, 1]: the upper bound of the smallest bucket
  /// whose cumulative count reaches ceil(q * count).  0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(q * count_ + 0.5);
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) return bucket_upper(b);
    }
    return max_;
  }

  /// Counters add; merging is associative and order-independent.
  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

 private:
  static constexpr unsigned kSubBits = 5;  ///< 32 sub-buckets per octave
  static constexpr std::size_t kBuckets = (64 - kSubBits) << kSubBits;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < (1ull << kSubBits)) return static_cast<std::size_t>(v);
    const unsigned msb = 63 - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    return (static_cast<std::size_t>(msb - kSubBits + 1) << kSubBits) +
           ((v >> shift) & ((1u << kSubBits) - 1));
  }

  static std::uint64_t bucket_upper(std::size_t b) noexcept {
    const std::size_t octave = b >> kSubBits;
    const std::uint64_t sub = b & ((1u << kSubBits) - 1);
    if (octave == 0) return sub;  // exact region
    const unsigned msb = static_cast<unsigned>(octave) + kSubBits - 1;
    const std::uint64_t lo = (1ull << msb) + (sub << (msb - kSubBits));
    return lo + ((1ull << (msb - kSubBits)) - 1);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace agc::svc
