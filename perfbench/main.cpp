// Repository benchmark: one workload, one seed, one result line.
//
//   perfbench --workload metro|link|warehouse --seed N --seconds S
//             --trace 0|1
//
// Runs one workload for S seconds on pools of at most nproc threads,
// checks its outputs, prints a human-readable report (metrics by name and
// unit, host metadata, calibration), and ends with one JSON line:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 once the result line is printed (its "correct" field carries
// the output checks), 1 when a workload aborts, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "host.hpp"
#include "report.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "metro|link|warehouse --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

void print_counters() {
  for (const auto& c : mmtag::obs::Registry::instance().counters()) {
    if (c.value == 0) continue;
    std::printf("  obs.%s = %llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Options options;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &options.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &seconds) || seconds < 1 || seconds > 600) {
        return usage("--seconds must be 1..600");
      }
    } else if (flag == "--trace") {
      if (!parse_u64(value, &trace) || trace > 1) {
        return usage("--trace must be 0 or 1");
      }
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || seconds == 0) {
    return usage("--workload, --seed and --seconds are required");
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.threads = mmtag::sim::default_thread_count();

  RunResult result;
  try {
    if (workload == "metro") {
      result = run_metro(options);
    } else if (workload == "link") {
      result = run_link(options);
    } else if (workload == "warehouse") {
      result = run_warehouse(options);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  // Calibration runs after the workload so its arrays stay out of the
  // workload's peak-RSS reading.
  const HostInfo info = host_info();
  const Calibration cal = calibrate();
  if (options.trace) {
    result.add("host.stream_gbps", cal.stream_gbps, "GB/s");
    result.add("host.fp_gflops", cal.fp_gflops, "GFLOP/s");
    complete_per_layer(result);
  } else {
    std::vector<std::string> names;
    for (const Metric& m : result.metrics) names.push_back(m.name);
    if (names != end_to_end_names()) {
      std::fprintf(stderr, "perfbench: %s reported the wrong metric set\n",
                   workload.c_str());
      return 1;
    }
  }

  std::printf("== perfbench %s (%s, full pool %d threads, %llu s) ==\n",
              workload.c_str(), options.trace ? "traced" : "untraced",
              options.threads, static_cast<unsigned long long>(seconds));
  for (const std::string& line : describe(info, cal, options.seed)) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-38s %16.6g %s  (%llu of %llu units)\n", "failed_ops_ratio",
              result.ops.failed_ratio(), "ratio",
              static_cast<unsigned long long>(result.ops.failed()),
              static_cast<unsigned long long>(result.ops.attempted()));
  for (const std::string& why : result.ops.failures()) {
    std::printf("FAILED: %s\n", why.c_str());
  }
  if (options.trace) {
    std::printf("obs registry snapshot (non-zero counters):\n");
    print_counters();
  }
  std::printf("%s\n", result_json(result).dump().c_str());
  std::fflush(stdout);
  return 0;
}
