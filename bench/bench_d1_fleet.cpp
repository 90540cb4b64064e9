// Deployment D1: fleet-scale inventory — 16 readers serving 2000 tags.
//
// The paper's endgame (Sec. 1) is batteryless networking at warehouse
// scale; this bench exercises the deploy layer end to end at that scale
// and verifies its two engineering claims:
//   1. determinism under parallelism — fleet aggregates are bit-identical
//      at every thread count (fingerprints compared, hard failure on
//      mismatch), while wall time drops as threads are added;
//   2. the link cache pays — on a static scenario the cached fleet issues
//      >= 10x fewer raytrace evaluations than the uncached baseline for
//      bit-identical physics (hard failure below 10x).
// A third table sweeps fleet size so EXPERIMENTS.md can quote scaling.
//
// Standard harness flags plus --readers M, --tags N, --epochs E.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_main.hpp"
#include "src/deploy/fleet.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/table.hpp"

namespace {

using namespace mmtag;

// ~125 tags per 4x4 m reader cell at every size, matching the dense-RFID
// regime the paper targets.
deploy::FleetConfig fleet_config(int readers, int tags, double width_m,
                                 double height_m, std::uint64_t seed,
                                 int epochs) {
  deploy::FleetConfig config;
  config.layout.width_m = width_m;
  config.layout.height_m = height_m;
  config.layout.readers = readers;
  config.layout.tags = tags;
  config.layout.seed = seed;
  config.epochs = epochs;
  config.epoch_duration_s = 0.4;  // TDM budget fits a scan + polling tail.
  config.seed = seed;
  return config;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return std::string(buf);
}

std::string ms(double seconds) {
  return sim::Table::fmt(seconds * 1e3, 2);
}

}  // namespace

int main(int argc, char** argv) {
  int readers = 16;
  int tags = 2000;
  int epochs = 3;
  bench::Parser parser("d1_fleet",
                       "fleet-scale inventory: determinism, cache, scaling");
  parser.add_count("--readers", &readers, "reader count for the headline run");
  parser.add_count("--tags", &tags, "tag count for the headline run");
  parser.add_count("--epochs", &epochs, "epochs per fleet run");
  std::string kern_name;
  bench::add_kern_flag(parser, &kern_name);
  if (!parser.parse(argc, argv)) return parser.exit_code();
  if (!bench::apply_kern_flag(kern_name)) return 2;
  bench::Harness harness(parser.options());
  const std::uint64_t seed = parser.options().seed;
  bool fail = false;

  // --- 1. Thread scaling on the headline 16-reader / 2000-tag scenario --
  // Grid {1, 2, 4, hw} clipped to the machine (a 1-core container runs
  // just {1}); aggregates must fingerprint-identically at every count.
  const int hw = sim::default_thread_count();
  std::vector<int> grid;
  for (const int t : {1, 2, 4, hw}) {
    if (t >= 1 && t <= hw) grid.push_back(t);
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  // Room sized for 4x4 m cells at the requested reader count.
  const double side = 4.0 * std::max(1.0, std::sqrt(readers));
  const deploy::FleetConfig headline =
      fleet_config(readers, tags, side, side, seed, epochs);

  const std::vector<std::string> scaling_headers = {
      "threads", "wall_s", "sim_reads/s", "tags_read", "coverage",
      "p95_ms", "jain", "fingerprint"};
  sim::Table scaling(scaling_headers);
  deploy::FleetResult headline_result;

  harness.add("thread_scaling", [&](bench::CaseContext& ctx) {
    scaling = sim::Table(scaling_headers);
    std::uint64_t reference = 0;
    double sim_reads = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      deploy::FleetConfig config = headline;
      config.threads = grid[i];
      deploy::FleetResult result = deploy::FleetSimulator(config).run();
      const std::uint64_t print = deploy::fingerprint(result.stats);
      if (i == 0) {
        reference = print;
      } else if (print != reference) {
        std::fprintf(stderr,
                     "FAIL: fingerprint diverged at threads=%d "
                     "(%s vs %s)\n",
                     grid[i], hex64(print).c_str(),
                     hex64(reference).c_str());
        fail = true;
      }
      scaling.add_row({std::to_string(grid[i]),
                       sim::Table::fmt(result.sweep.wall_s, 3),
                       sim::Table::fmt(result.sweep.units_per_s(), 0),
                       std::to_string(result.stats.tags_read),
                       sim::Table::fmt(result.stats.coverage(), 3),
                       ms(result.stats.latency_p95_s),
                       sim::Table::fmt(result.stats.jain, 3),
                       hex64(print)});
      sim_reads += static_cast<double>(result.sweep.units);
      if (i + 1 == grid.size()) headline_result = std::move(result);
    }
    ctx.set_units(sim_reads, "sim reads");
  });

  // --- 2. Link cache vs uncached baseline (static scenario) -------------
  // Channelized keeps every cell on air the full epoch, so polling hammers
  // the link budgets — the workload the cache exists for. Physics must be
  // bit-identical either way; only the raytrace count may differ.
  const std::vector<std::string> cache_headers = {
      "mode", "raytrace_evals", "cache_hit_rate", "wall_s", "fingerprint"};
  sim::Table cache_table(cache_headers);
  double reduction = 0.0;

  harness.add("cache_vs_uncached", [&](bench::CaseContext& ctx) {
    deploy::FleetConfig cache_scenario =
        fleet_config(4, 400, 8.0, 8.0, seed, 2);
    cache_scenario.epoch_duration_s = 0.05;
    cache_scenario.coordination.policy =
        deploy::CoordinationPolicy::kChannelized;
    deploy::FleetConfig uncached_scenario = cache_scenario;
    uncached_scenario.use_link_cache = false;

    const deploy::FleetResult cached =
        deploy::FleetSimulator(cache_scenario).run();
    const deploy::FleetResult uncached =
        deploy::FleetSimulator(uncached_scenario).run();

    cache_table = sim::Table(cache_headers);
    cache_table.add_row({"cached",
                         std::to_string(cached.stats.raytrace_evals),
                         sim::Table::fmt(cached.stats.cache_hit_rate(), 3),
                         sim::Table::fmt(cached.sweep.wall_s, 3),
                         hex64(deploy::fingerprint(cached.stats))});
    cache_table.add_row(
        {"uncached", std::to_string(uncached.stats.raytrace_evals),
         sim::Table::fmt(uncached.stats.cache_hit_rate(), 3),
         sim::Table::fmt(uncached.sweep.wall_s, 3),
         hex64(deploy::fingerprint(uncached.stats))});
    reduction =
        cached.stats.raytrace_evals > 0
            ? static_cast<double>(uncached.stats.raytrace_evals) /
                  static_cast<double>(cached.stats.raytrace_evals)
            : 0.0;
    if (deploy::fingerprint(cached.stats) !=
        deploy::fingerprint(uncached.stats)) {
      std::fprintf(stderr, "FAIL: cache changed the physics\n");
      fail = true;
    }
    if (reduction < 10.0) {
      std::fprintf(stderr, "FAIL: raytrace reduction %.1fx < 10x\n",
                   reduction);
      fail = true;
    }
    ctx.set_units(static_cast<double>(uncached.stats.raytrace_evals),
                  "raytrace evals");
  });

  // --- 3. Fleet size sweep (hw threads) ---------------------------------
  struct SizePoint {
    int readers;
    int tags;
    double w, h;
    double mobile;
  };
  const SizePoint sizes[] = {
      {4, 500, 8.0, 8.0, 0.0},
      {8, 1000, 16.0, 8.0, 0.0},
      {16, 2000, 16.0, 16.0, 0.0},
      {16, 2000, 16.0, 16.0, 0.1},  // 10% of tags walk between epochs.
  };
  const std::vector<std::string> sweep_headers = {
      "readers", "tags", "mobile", "wall_s", "coverage", "p50_ms",
      "p95_ms", "p99_ms", "goodput_mean", "jain", "util", "cache_hit",
      "handoffs"};
  sim::Table sweep(sweep_headers);

  harness.add("size_sweep", [&](bench::CaseContext& ctx) {
    sweep = sim::Table(sweep_headers);
    double sim_reads = 0.0;
    for (const SizePoint& p : sizes) {
      deploy::FleetConfig config =
          fleet_config(p.readers, p.tags, p.w, p.h, seed, epochs);
      config.mobile_fraction = p.mobile;
      const deploy::FleetResult result =
          deploy::FleetSimulator(config).run();
      const deploy::FleetStats& s = result.stats;
      sweep.add_row({std::to_string(p.readers), std::to_string(p.tags),
                     sim::Table::fmt(p.mobile, 1),
                     sim::Table::fmt(result.sweep.wall_s, 3),
                     sim::Table::fmt(s.coverage(), 3), ms(s.latency_p50_s),
                     ms(s.latency_p95_s), ms(s.latency_p99_s),
                     sim::Table::fmt_rate(s.goodput_mean_bps),
                     sim::Table::fmt(s.jain, 3),
                     sim::Table::fmt(s.reader_utilization, 3),
                     sim::Table::fmt(s.cache_hit_rate(), 3),
                     std::to_string(s.handoffs)});
      sim_reads += static_cast<double>(result.sweep.units);
    }
    ctx.set_units(sim_reads, "sim reads");
  });

  const int rc = harness.run();
  if (rc != 0) return rc;

  if (parser.csv()) {
    std::fputs(scaling.to_csv().c_str(), stdout);
    std::fputs(cache_table.to_csv().c_str(), stdout);
    std::fputs(sweep.to_csv().c_str(), stdout);
  } else {
    char title[128];
    std::snprintf(title, sizeof title,
                  "D1 — fleet thread scaling (%d readers / %d tags, "
                  "TDM, hw=%d)",
                  readers, tags, hw);
    scaling.print(title);
    cache_table.print("D1 — link cache vs uncached (static 4x400, "
                      "channelized)");
    std::printf("raytrace reduction: %.1fx (>= 10x required)\n\n",
                reduction);
    sweep.print("D1 — fleet size sweep");
    deploy::fleet_stats_table(headline_result.stats)
        .print("D1 — headline fleet aggregate");
  }
  return fail ? 1 : 0;
}
