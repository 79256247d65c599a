#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file metrics.hpp
/// Execution accounting: rounds, messages, and bits.  Bits are attributed per
/// directed message using the sender's declared width, so "bits per edge"
/// (Lemma 5.2) is `total_bits / (2 * m)` for a both-directions protocol.

namespace agc::runtime {

struct Metrics {
  std::size_t rounds = 0;
  std::uint64_t messages = 0;     ///< directed messages delivered
  std::uint64_t total_bits = 0;   ///< sum of declared widths
  std::uint64_t max_edge_bits = 0;  ///< max bits sent over a single directed edge, cumulative

  void reset() { *this = Metrics{}; }

  /// Deterministic reduce, used both for per-shard accounting (the parallel
  /// executor folds one Metrics per shard, in shard order) and for stage
  /// accumulation (the pipelines).  Counters add; max_edge_bits
  /// is a maximum — summing it would double-count the heaviest edge.
  void merge(const Metrics& other) {
    rounds += other.rounds;
    messages += other.messages;
    total_bits += other.total_bits;
    max_edge_bits = std::max(max_edge_bits, other.max_edge_bits);
  }

  [[nodiscard]] double bits_per_message() const {
    return messages == 0 ? 0.0 : static_cast<double>(total_bits) / messages;
  }

  [[nodiscard]] std::string summary() const;
};

/// Cumulative bits per directed edge, stored per *receiver*.  Each directed
/// edge u->v lives in the bucket of v, so a parallel executor that shards
/// delivery by receiver updates the ledger without any synchronization: a
/// bucket is only ever touched by the one shard that owns its receiver.
/// Buckets are degree-sized, so the linear sender scan beats a hash map.
class EdgeBitLedger {
 public:
  /// Grow to cover receivers [0, n).  Never shrinks: the ledger is a
  /// cumulative record, entries survive edge removal (as they did when this
  /// was a flat map keyed by directed edge).
  void ensure(std::size_t n) {
    if (by_receiver_.size() < n) by_receiver_.resize(n);
  }

  /// Accumulate `bits` onto the directed edge sender->receiver and return
  /// the new cumulative total for that edge.
  std::uint64_t add(std::uint32_t sender, std::uint32_t receiver,
                    std::uint64_t bits) {
    auto& bucket = by_receiver_[receiver];
    for (auto& [s, acc] : bucket) {
      if (s == sender) return acc += bits;
    }
    bucket.emplace_back(sender, bits);
    return bits;
  }

  [[nodiscard]] std::uint64_t get(std::uint32_t sender,
                                  std::uint32_t receiver) const {
    if (receiver >= by_receiver_.size()) return 0;
    for (const auto& [s, acc] : by_receiver_[receiver]) {
      if (s == sender) return acc;
    }
    return 0;
  }

 private:
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> by_receiver_;
};

}  // namespace agc::runtime
