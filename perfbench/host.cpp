#include "host.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "report.hpp"
#include "src/kern/kern.hpp"
#include "src/obs/gate.hpp"
#include "src/sim/parallel.hpp"

namespace perfbench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

/// Parse a sysfs cache size such as "307200K" or "2M".
std::uint64_t parse_size(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  std::uint64_t scale = 1;
  if (end != nullptr && (*end == 'K' || *end == 'k')) scale = 1024;
  if (end != nullptr && (*end == 'M' || *end == 'm')) scale = 1024 * 1024;
  return static_cast<std::uint64_t>(v) * scale;
}

// Calibration probe sizes. Three 32 MiB arrays keep the probe inside the
// benchmark's memory budget on a shared host; describe() states how the
// 96 MiB working set compares to the reported LLC.
constexpr std::size_t kStreamElems = std::size_t{4} << 20;
constexpr int kStreamReps = 6;
constexpr int kFpChains = 8;
constexpr std::uint64_t kFpIters = 20'000'000;

/// Independent multiply-add chains, kept scalar: the probe measures one
/// lane's FP rate, the figure the scalar kern backend is bounded by.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
double fp_probe_gflops() {
  volatile double seed = 1.0000001;
  double acc[kFpChains];
  for (int k = 0; k < kFpChains; ++k) acc[k] = seed + k;
  const double m = seed;
  const double add = 1e-9;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kFpIters; ++i) {
    for (int k = 0; k < kFpChains; ++k) acc[k] = acc[k] * m + add;
  }
  const double dt = seconds_since(t0);
  double sum = 0.0;
  for (const double v : acc) sum += v;
  if (sum == 0.0) std::abort();
  return 2.0 * kFpChains * static_cast<double>(kFpIters) / dt / 1e9;
}

}  // namespace

HostInfo host_info() {
  HostInfo info;
  info.cpu_model = cpu_model();
  info.nproc = mmtag::sim::default_thread_count();
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string level = read_line(dir + "/level");
    if (level.empty()) break;
    const int lv = std::atoi(level.c_str());
    if (lv >= info.llc_level) {
      info.llc_level = lv;
      info.llc_bytes = parse_size(read_line(dir + "/size"));
    }
  }
  info.compiler = PERFBENCH_COMPILER;
  info.flags = PERFBENCH_FLAGS;
  info.build_type = PERFBENCH_BUILD_TYPE;
  info.kern_backend =
      std::string(mmtag::kern::backend_name(mmtag::kern::active_backend()));
  info.obs_enabled = mmtag::obs::kObsEnabled;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  info.git_sha = sha != nullptr && *sha != '\0' ? sha : "unknown";
  return info;
}

Calibration calibrate() {
  Calibration cal;
  {
    std::vector<double> a(kStreamElems, 0.0);
    std::vector<double> b(kStreamElems, 1.0);
    std::vector<double> c(kStreamElems, 2.0);
    cal.stream_bytes = 3 * kStreamElems * sizeof(double);
    std::vector<double> rates;
    for (int rep = 0; rep < kStreamReps; ++rep) {
      const double s = 0.5 + rep;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kStreamElems; ++i) a[i] = b[i] + s * c[i];
      const double dt = seconds_since(t0);
      // Keep the stores observable so the loop is not elided.
      if (a[kStreamElems / 2] < 0.0) std::abort();
      rates.push_back(static_cast<double>(cal.stream_bytes) / dt / 1e9);
    }
    // First pass faults the pages in; the rest are the roof.
    rates.erase(rates.begin());
    cal.stream_gbps = median(rates);
  }
  cal.fp_gflops = fp_probe_gflops();
  return cal;
}

std::vector<std::string> describe(const HostInfo& info,
                                  const Calibration& cal,
                                  std::uint64_t seed) {
  std::vector<std::string> lines;
  char buf[512];
  std::snprintf(buf, sizeof buf, "host.cpu: %s", info.cpu_model.c_str());
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "host.nproc: %d", info.nproc);
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "host.llc: L%d %.1f MiB", info.llc_level,
                static_cast<double>(info.llc_bytes) / (1024.0 * 1024.0));
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "build.compiler: %s", info.compiler.c_str());
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "build.flags: %s", info.flags.c_str());
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "build.type: %s", info.build_type.c_str());
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "build.kern_backend: %s",
                info.kern_backend.c_str());
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "build.MMTAG_OBS: %d",
                info.obs_enabled ? 1 : 0);
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "build.git_sha: %s", info.git_sha.c_str());
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "run.seed: %llu",
                static_cast<unsigned long long>(seed));
  lines.emplace_back(buf);
  const double ws_mib =
      static_cast<double>(cal.stream_bytes) / (1024.0 * 1024.0);
  const double llc_mib =
      static_cast<double>(info.llc_bytes) / (1024.0 * 1024.0);
  std::snprintf(buf, sizeof buf,
                "calibration.stream: %.2f GB/s over %.0f MiB (%.2fx the "
                "%.0f MiB LLC)",
                cal.stream_gbps, ws_mib,
                llc_mib > 0.0 ? ws_mib / llc_mib : 0.0, llc_mib);
  lines.emplace_back(buf);
  if (llc_mib > 0.0 && ws_mib < 4.0 * llc_mib) {
    std::snprintf(buf, sizeof buf,
                  "calibration.stream: a 4x-LLC working set (%.0f MiB) is "
                  "infeasible within this benchmark's memory budget; the "
                  "figure may include cache hits and is an upper bound on "
                  "the DRAM roof",
                  4.0 * llc_mib);
    lines.emplace_back(buf);
  }
  std::snprintf(buf, sizeof buf,
                "calibration.fp: %.3f GFLOP/s (%d scalar multiply-add "
                "chains, one thread)",
                cal.fp_gflops, kFpChains);
  lines.emplace_back(buf);
  return lines;
}

}  // namespace perfbench
