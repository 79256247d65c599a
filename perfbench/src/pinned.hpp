#pragma once

#include <cstddef>
#include <cstdint>

/// \file pinned.hpp
/// Paper observables of the committed instances (seed 0), copied from
/// BENCH_table1.json and BENCH_scale.json.  The benchmark checks them on
/// every default-seed run; any other seed builds other graphs and is checked
/// only for convergence, properness and the palette bound.

namespace perfbench::pinned {

/// table1: rounds per (Delta, algorithm), algorithms in kTable1Algos order,
/// plus the AG pipeline's message accounting.
struct Table1Row {
  std::size_t delta;
  std::size_t rounds[6];  ///< gps, kw, ag, exact, fyz, luby
  std::uint64_t ag_messages;
  std::uint64_t ag_total_bits;
  std::uint64_t ag_max_edge_bits;
};

inline constexpr Table1Row kTable1[] = {
    {4, {9, 9, 11, 13, 10, 7}, 66000, 402000, 24},
    {8, {14, 14, 14, 19, 10, 6}, 167972, 1199800, 54},
    {16, {28, 24, 20, 20, 11, 7}, 480000, 3624000, 84},
    {32, {69, 40, 34, 36, 13, 7}, 1632000, 14016000, 175},
};

/// scale: gnp:n=1000000,p=1.6e-05,seed=1 on the flat runner.
struct ScaleRow {
  std::uint64_t n;
  std::uint64_t m;
  std::size_t delta;
  std::size_t rounds_linial;
  std::size_t rounds_core;
  std::size_t rounds_finish;
  std::size_t palette;
};

inline constexpr ScaleRow kScale = {1000000, 8001559, 37, 2, 7, 21, 38};

}  // namespace perfbench::pinned
