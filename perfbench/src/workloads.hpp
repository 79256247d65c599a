#pragma once

#include <cstddef>

#include "common.hpp"

/// \file workloads.hpp
/// The three workloads (README.md has the rationale of each).  A workload
/// fills `report` with every metric it measures — the end-to-end metrics
/// untraced, the per-layer metrics when args.trace is set — and counts every
/// checked operation into `checks`.

namespace perfbench {

/// Worker threads each workload runs at (recorded in the env header).
inline constexpr std::size_t kTable1Threads = 1;
inline constexpr std::size_t kScaleThreads = 4;
inline constexpr std::size_t kServiceThreads = 1;

void run_table1(const Args& args, Report& report, Checks& checks);
void run_scale(const Args& args, Report& report, Checks& checks);
void run_service(const Args& args, Report& report, Checks& checks);

}  // namespace perfbench
