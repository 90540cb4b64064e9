// Result model of the repository benchmark: metrics, the sample rules
// behind them, failure accounting, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.hpp"

namespace perfbench {

/// Samples that must lie beyond a tail percentile before it is reported.
inline constexpr std::size_t kTailMargin = 10;

/// The `pct` percentile of `samples` (obs::percentile interpolation), or
/// nullopt when fewer than kTailMargin samples lie strictly beyond its
/// rank — a tail that rests on a handful of samples is not reported.
[[nodiscard]] std::optional<double> tail_percentile(
    std::vector<double> samples, double pct);

/// Smallest sample count for which tail_percentile(·, pct) is defined.
[[nodiscard]] std::size_t samples_for_tail(double pct);

/// Median of `samples` (0 when empty).
[[nodiscard]] double median(std::vector<double> samples);

[[nodiscard]] double sum(const std::vector<double>& samples);

/// 16-digit lowercase hex, the form fingerprints are printed in.
[[nodiscard]] std::string hex64(std::uint64_t value);

struct Interval {
  double lo = 0.0;
  double hi = 1.0;
  [[nodiscard]] bool contains(double p) const { return p >= lo && p <= hi; }
};

/// Wilson score interval for a binomial proportion: `successes` out of
/// `trials` at normal quantile `z`. trials == 0 gives [0, 1].
[[nodiscard]] Interval wilson_interval(std::uint64_t successes,
                                       std::uint64_t trials, double z);

/// Counts units of work (epochs, sweeps, runs) and those that threw or
/// failed their output check. failed_ops_ratio = failed / attempted.
class OpLedger {
 public:
  /// Run one unit. Returns false — and counts a failure with its reason —
  /// when `fn` throws or returns false.
  template <typename Fn>
  bool run(const std::string& what, Fn&& fn) {
    ++attempted_;
    bool ok = false;
    try {
      ok = static_cast<bool>(fn());
    } catch (const std::exception& e) {
      return fail(what + ": threw: " + e.what());
    } catch (...) {
      return fail(what + ": threw");
    }
    return ok ? true : fail(what + ": output check failed");
  }

  /// Count a unit whose outcome is already known.
  bool record(const std::string& what, bool ok) {
    ++attempted_;
    return ok ? true : fail(what + ": output check failed");
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double failed_ratio() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  bool fail(std::string reason) {
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(std::move(reason));
    return false;
  }

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds the end-to-end set for
/// an untraced run and the per-layer set for a traced one; `notes` are
/// human-readable lines (sample counts, computed-vs-measured labels).
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  OpLedger ops;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

/// The result line: {"correct", "attempted", "failed", "metrics":
/// {name: {"value", "unit"}}}. correct is true iff nothing failed.
[[nodiscard]] mmtag::obs::JsonValue result_json(const RunResult& result);

/// Inverse of result_json for the fields it writes (tests, tooling).
/// nullopt when the document does not have the result line's shape.
[[nodiscard]] std::optional<RunResult> parse_result(
    const mmtag::obs::JsonValue& doc);

/// Peak resident set of this process [MB, 10^6 bytes].
[[nodiscard]] double peak_rss_mb();

/// Process CPU time (all threads) [s].
[[nodiscard]] double process_cpu_s();

/// Current value of the obs::Registry counter `name` (0 with MMTAG_OBS off).
[[nodiscard]] std::uint64_t obs_counter(const char* name);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
