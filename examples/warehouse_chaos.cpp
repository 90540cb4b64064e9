// Warehouse chaos: the four-reader fleet under increasing fault pressure.
//
// Takes the warehouse_fleet deployment (12 x 8 m floor, four ceiling
// readers, 200 tags) and sweeps fault intensity from a healthy fleet to
// full chaos(1.0): reader outages, harvester brownouts, stuck RF
// switches, mmWave blockage bursts and clock drift, all injected
// deterministically from the run seed. Recovery is left on (orphan
// re-handoff, restart cache invalidation, poll retry/quarantine), so the
// table shows goodput and Jain fairness degrading gracefully instead of
// cliff-diving — and the availability/MTTR columns quantify what the
// recovery machinery buys at each intensity.
//
// Flags: --threads N (worker threads), --seed S, --steps K (sweep points).
// A --threads value outside 0..1024 (sim::kMaxThreads) exits 2 with usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/deploy/fleet.hpp"
#include "src/fault/engine.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmtag;

  int threads = 0;  // 0 = sim::default_thread_count().
  std::uint64_t seed = 2026;
  int steps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc &&
        !sim::parse_thread_count(argv[++i], &threads)) {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--seed S] [--steps K]\n"
                   "  --threads must be 0..%d (0 = default)\n",
                   argv[0], sim::kMaxThreads);
      return 2;
    }
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc)
      steps = std::atoi(argv[++i]);
  }
  if (steps < 2) steps = 2;

  deploy::FleetConfig base;
  base.layout.width_m = 12.0;
  base.layout.height_m = 8.0;
  base.layout.readers = 4;
  base.layout.tags = 200;
  base.layout.seed = seed;
  base.epochs = 6;
  base.epoch_duration_s = 0.1;
  base.seed = seed;
  base.threads = threads;

  sim::Table table({"intensity", "coverage", "goodput_mean", "jain",
                    "avail", "mttr_ms", "outages", "rehandoffs",
                    "brownouts", "blocked", "quarantines"});
  double healthy_goodput = 0.0;
  double chaos_goodput = 0.0;
  for (int k = 0; k < steps; ++k) {
    const double intensity =
        static_cast<double>(k) / static_cast<double>(steps - 1);
    deploy::FleetConfig config = base;
    config.faults = fault::FaultSchedule::chaos(intensity);
    const deploy::FleetResult result = deploy::FleetSimulator(config).run();
    const deploy::FleetStats& s = result.stats;
    const fault::FaultReport& f = result.fault;
    if (k == 0) healthy_goodput = s.goodput_mean_bps;
    if (k + 1 == steps) chaos_goodput = s.goodput_mean_bps;
    table.add_row({sim::Table::fmt(intensity, 2),
                   sim::Table::fmt(s.coverage(), 3),
                   sim::Table::fmt_rate(s.goodput_mean_bps),
                   sim::Table::fmt(s.jain, 3),
                   sim::Table::fmt(f.availability, 4),
                   sim::Table::fmt(f.mttr_mean_s * 1e3, 2),
                   std::to_string(f.reader_outages),
                   std::to_string(f.orphan_handoffs),
                   std::to_string(f.tag_brownout_epochs),
                   std::to_string(f.tag_blocked_epochs),
                   std::to_string(f.quarantines)});
  }

  table.print(
      "Warehouse chaos — fault intensity sweep (4 readers / 200 tags, "
      "recovery on)");
  if (healthy_goodput > 0.0) {
    std::printf("\ngoodput retained at full chaos: %.1f%%\n",
                100.0 * chaos_goodput / healthy_goodput);
  }
  return healthy_goodput > 0.0 ? 0 : 1;
}
