// The benchmark's workloads. Each is a closed loop: a round of work starts
// when the previous one returns, until the time budget is spent and every
// reported percentile has its samples. Inputs come from Options::seed.
//
// An untraced run returns the end-to-end metrics (BENCHMARK.json's
// end_to_end list); a traced run returns the per-layer metrics, timed from
// this directory around calls to the layers' public functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  ///< Full pool: sim::default_thread_count().
};

/// Seed at which the frozen fingerprints below apply; at any other seed
/// the output checks fall back to 1-thread replays.
inline constexpr std::uint64_t kPinnedSeed = 1;

[[nodiscard]] RunResult run_metro(const Options& options);
[[nodiscard]] RunResult run_link(const Options& options);
[[nodiscard]] RunResult run_warehouse(const Options& options);

/// The end-to-end metric names every untraced run reports, in order.
[[nodiscard]] const std::vector<std::string>& end_to_end_names();

/// Order `result`'s per-layer metrics as BENCHMARK.json lists them, adding
/// a 0 for each metric whose layer did no work in this workload. Throws
/// std::logic_error on a metric or unit the catalog does not know.
void complete_per_layer(RunResult& result);

}  // namespace perfbench
