#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <numeric>

#include "src/obs/metrics.hpp"
#include "src/obs/stats.hpp"

namespace perfbench {

namespace {

/// Samples ranked strictly above the interpolation interval of the `pct`
/// percentile over `n` samples (obs::percentile_sorted's rank convention).
std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  const double rank = pct / 100.0 * static_cast<double>(n - 1);
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return n - 1 - hi;
}

}  // namespace

std::optional<double> tail_percentile(std::vector<double> samples,
                                      double pct) {
  if (samples_beyond(samples.size(), pct) < kTailMargin) return std::nullopt;
  return mmtag::obs::percentile(std::move(samples), pct);
}

std::size_t samples_for_tail(double pct) {
  std::size_t n = kTailMargin + 1;
  while (samples_beyond(n, pct) < kTailMargin) ++n;
  return n;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  return mmtag::obs::percentile(std::move(samples), 50.0);
}

double sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z) {
  if (trials == 0) return {};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, centre - half), std::min(1.0, centre + half)};
}

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

mmtag::obs::JsonValue result_json(const RunResult& result) {
  using mmtag::obs::JsonValue;
  JsonValue metrics = JsonValue::object();
  for (const Metric& m : result.metrics) {
    JsonValue entry = JsonValue::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  JsonValue doc = JsonValue::object();
  doc.set("correct", result.ops.failed() == 0 && result.ops.attempted() > 0);
  doc.set("attempted", result.ops.attempted());
  doc.set("failed", result.ops.failed());
  doc.set("metrics", std::move(metrics));
  return doc;
}

std::optional<RunResult> parse_result(const mmtag::obs::JsonValue& doc) {
  if (!doc.is_object() || doc.members().size() != 4) return std::nullopt;
  const auto* correct = doc.find("correct");
  const auto* attempted = doc.find("attempted");
  const auto* failed = doc.find("failed");
  const auto* metrics = doc.find("metrics");
  if (correct == nullptr || !correct->is_bool() || attempted == nullptr ||
      !attempted->is_number() || failed == nullptr || !failed->is_number() ||
      metrics == nullptr || !metrics->is_object()) {
    return std::nullopt;
  }
  const double a = attempted->as_double();
  const double f = failed->as_double();
  if (a < 0.0 || f < 0.0 || f > a || a != std::floor(a) ||
      f != std::floor(f)) {
    return std::nullopt;
  }
  RunResult result;
  const auto n_failed = static_cast<std::uint64_t>(f);
  const auto n_attempted = static_cast<std::uint64_t>(a);
  for (std::uint64_t i = 0; i < n_attempted; ++i) {
    result.ops.record("replayed", i >= n_failed);
  }
  if (correct->as_bool() != (n_failed == 0 && n_attempted > 0)) {
    return std::nullopt;
  }
  for (const auto& [name, entry] : metrics->members()) {
    const auto* value = entry.find("value");
    const auto* unit = entry.find("unit");
    if (value == nullptr || !value->is_number() || unit == nullptr ||
        !unit->is_string()) {
      return std::nullopt;
    }
    result.add(name, value->as_double(), unit->as_string());
  }
  return result;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux.
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t obs_counter(const char* name) {
  return mmtag::obs::Registry::instance().counter(name).value();
}

}  // namespace perfbench
