// Host metadata and calibration probes carried by every benchmark report,
// so two reports from different machines or builds can be compared.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  int nproc = 1;
  std::uint64_t llc_bytes = 0;  ///< Largest cache level sysfs reports.
  int llc_level = 0;
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string kern_backend;
  bool obs_enabled = false;
  std::string git_sha;  ///< PERFBENCH_GIT_SHA, "unknown" when unset.
};

[[nodiscard]] HostInfo host_info();

struct Calibration {
  double stream_gbps = 0.0;   ///< Triad a = b + s*c, bytes moved / s.
  std::uint64_t stream_bytes = 0;  ///< Working set of the three arrays.
  double fp_gflops = 0.0;     ///< Scalar dependent multiply-add chains.
};

/// Run both probes (about half a second). Call after the workload has
/// taken its peak-RSS reading: the stream arrays are large.
[[nodiscard]] Calibration calibrate();

/// Human-readable report lines for `info` and `cal` (LLC vs stream size
/// stated explicitly).
[[nodiscard]] std::vector<std::string> describe(const HostInfo& info,
                                                const Calibration& cal,
                                                std::uint64_t seed);

}  // namespace perfbench
