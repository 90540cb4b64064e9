// Warehouse fleet: four ceiling readers inventory 200 tags cooperatively.
//
// Scales the single-aisle warehouse_inventory example up to a deployment:
// a 12 x 8 m floor, four readers on a grid each owning a cell of ~50 tags,
// TDM coordination (E6: same-channel readers do not coexist at room
// scale), and a tenth of the tags walking between epochs to exercise
// cache invalidation and inter-cell handoff. Prints per-cell service and
// the fleet aggregate — p50/p95/p99 time-to-first-read, per-tag goodput,
// Jain fairness, reader utilization.
//
// Flags: --threads N (worker threads), --seed S (layout + MAC streams).
// A --threads value outside 0..1024 (sim::kMaxThreads) exits 2 with usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/deploy/fleet.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmtag;

  int threads = 0;  // 0 = sim::default_thread_count().
  std::uint64_t seed = 2026;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc &&
        !sim::parse_thread_count(argv[++i], &threads)) {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--seed S]\n"
                   "  --threads must be 0..%d (0 = default)\n",
                   argv[0], sim::kMaxThreads);
      return 2;
    }
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
  }

  deploy::FleetConfig config;
  config.layout.width_m = 12.0;
  config.layout.height_m = 8.0;
  config.layout.readers = 4;
  config.layout.tags = 200;
  config.layout.seed = seed;
  config.epochs = 4;
  config.epoch_duration_s = 0.1;
  config.mobile_fraction = 0.1;  // Forklifts and pickers keep moving.
  config.seed = seed;
  config.threads = threads;

  deploy::FleetSimulator fleet(config);
  const deploy::FleetResult result = fleet.run();

  sim::Table cells({"cell", "tags", "discovered", "airtime_ms", "util"});
  for (const deploy::CellEpochResult& cell : result.last_epoch) {
    cells.add_row({std::to_string(cell.cell_index),
                   std::to_string(cell.tags_assigned),
                   std::to_string(cell.tags_discovered),
                   sim::Table::fmt(cell.airtime_s * 1e3, 2),
                   sim::Table::fmt(cell.utilization, 3)});
  }
  cells.print("Warehouse fleet — last epoch per cell (TDM, 4 readers)");

  deploy::fleet_stats_table(result.stats)
      .print("Warehouse fleet — aggregate over all epochs");
  std::printf("\n%d/%d tags read in %.1f s simulated "
              "(%.3f s wall on %d threads, %d handoffs)\n",
              result.stats.tags_read, result.stats.tags_total,
              result.stats.duration_s, result.sweep.wall_s,
              result.sweep.threads, result.stats.handoffs);
  return result.stats.tags_read > 0 ? 0 : 1;
}
