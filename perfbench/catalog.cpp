// Names and units of every metric the benchmark reports; BENCHMARK.json
// lists the same names.
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

const std::vector<std::pair<std::string, std::string>>& per_layer_table() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"kern.squared_distance_ns_per_elem", "ns/elem"},
      {"kern.count_below_ns_per_elem", "ns/elem"},
      {"scale.gather_ns_per_candidate", "ns/candidate"},
      {"scale.batch_ns_per_candidate", "ns/candidate"},
      {"scale.candidates_per_epoch", "count/epoch"},
      {"scale.cells_visited_per_epoch", "count/epoch"},
      {"scale.moved_per_epoch", "count/epoch"},
      {"scale.rebuckets_per_epoch", "count/epoch"},
      {"scale.handoffs_per_epoch", "count/epoch"},
      {"scale.detected_per_candidate", "ratio"},
      {"scale.store_mb", "MB"},
      {"scale.achieved_gbps", "GB/s"},
      {"phy.modulate_ns_per_sample", "ns/sample"},
      {"phy.awgn_ns_per_sample", "ns/sample"},
      {"phy.demod_ns_per_sample", "ns/sample"},
      {"impair.tx_ns_per_sample", "ns/sample"},
      {"impair.rx_ns_per_sample", "ns/sample"},
      {"reader.encode_us_per_frame", "us/frame"},
      {"reader.receive_us_per_frame", "us/frame"},
      {"reader.crc_ok_ratio", "ratio"},
      {"sim.pool.cpu_util", "ratio"},
      {"sim.pool.tasks", "tasks/unit"},
      {"sim.pool.speedup", "ratio"},
      {"deploy.epoch_p50_ms", "ms"},
      {"deploy.epoch_p90_ms", "ms"},
      {"deploy.cache.hit_ratio", "ratio"},
      {"deploy.cache.raytrace_evals", "count/run"},
      {"deploy.cache.evictions", "count/run"},
      {"mesh.reconverge_ms_per_epoch", "ms/epoch"},
      {"mesh.forward_us_per_frame", "us/frame"},
      {"mesh.frames_offered", "count/run"},
      {"mesh.delivery_ratio", "ratio"},
      {"mesh.convergence_rounds", "count/run"},
      {"fault.reader_outages", "count/run"},
      {"fault.orphan_handoffs", "count/run"},
      {"fault.quarantines", "count/run"},
      {"net.discovery_s", "s"},
      {"net.flow_s", "s"},
      {"net.retx_ratio", "ratio"},
      {"net.pool_stalls", "count/run"},
      {"net.dup_receives", "count/run"},
      {"host.stream_gbps", "GB/s"},
      {"host.fp_gflops", "GFLOP/s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.coverage_ratio", "ratio"},
  };
  return table;
}

}  // namespace

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s",         "peak_rss_mb", "primary_per_s",
      "secondary_per_s", "unit_p50_ms", "unit_p90_ms"};
  return names;
}

void complete_per_layer(RunResult& result) {
  std::vector<Metric> ordered;
  std::size_t matched = 0;
  for (const auto& [name, unit] : per_layer_table()) {
    const Metric* have = result.find(name);
    if (have == nullptr) {
      ordered.push_back({name, 0.0, unit});
      continue;
    }
    if (have->unit != unit) {
      throw std::logic_error("per-layer metric " + name + " has unit " +
                             have->unit + ", expected " + unit);
    }
    ordered.push_back(*have);
    ++matched;
  }
  if (matched != result.metrics.size()) {
    throw std::logic_error("a per-layer metric is missing from the catalog");
  }
  result.metrics = std::move(ordered);
}

}  // namespace perfbench
