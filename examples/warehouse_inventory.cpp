// Warehouse inventory: read a shelf of 30 tagged items with one beam-
// scanning reader (paper Sec. 9: SDM + Aloha).
//
// The reader sits at the aisle end, sweeps a 120-degree sector in
// 17-degree beams, and inventories each responding beam with EPC-style
// framed slotted Aloha. A parallel site-survey pass first evaluates every
// tag's link budget on the thread pool (bit-identical at any thread
// count), then the sequential MAC run prints the per-beam breakdown and
// totals — note how gigabit-class links shrink a full inventory to
// milliseconds.
//
// Flags: --threads N (site-survey workers), --seed S (placement + Aloha).
// A --threads value outside 0..1024 (sim::kMaxThreads) exits 2 with usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/channel/geometry.hpp"
#include "src/mac/inventory.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmtag;

  int threads = 0;  // 0 = MMTAG_THREADS / hardware concurrency.
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

  // 30 items on two shelf rows flanking the aisle, 2-9 ft from the reader.
  std::vector<core::MmTag> tags;
  auto rng = sim::make_rng(seed);
  std::uniform_real_distribution<double> along(0.6, 2.8);
  for (int i = 0; i < 30; ++i) {
    const double x = along(rng);
    const double y = (i % 2 == 0) ? 0.9 : -0.9;
    const channel::Vec2 pos{x, y};
    // Tags face across the aisle, not at the reader — retrodirectivity
    // covers the rest.
    tags.push_back(core::MmTag::prototype_at(
        core::Pose{pos, channel::bearing_rad(pos, {0.0, 0.0})},
        static_cast<std::uint32_t>(1000 + i)));
  }

  const auto reader =
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0});
  const auto rates = phy::RateTable::mmtag_standard();
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(60.0), 17.0);

  mac::InventoryConfig config;
  config.payload_bits = 96;
  mac::SdmInventory inventory(reader, rates, config);
  const channel::Environment warehouse;  // Open aisle.

  // Site survey: per-tag link budgets are independent, so shard them
  // across the pool before committing to the MAC schedule.
  sim::ThreadPool pool(threads);
  const auto survey = sim::parallel_sweep(
      pool, tags.size(), [&](std::size_t i) {
        reader::MmWaveReader probe = reader;  // Steer a copy at the tag.
        probe.steer_to_world(channel::bearing_rad(
            probe.pose().position, tags[i].pose().position));
        return probe.evaluate_link(tags[i], warehouse, rates)
            .achievable_rate_bps;
      });
  int reachable = 0;
  double slowest = 0.0;
  for (const double rate : survey) {
    if (rate <= 0.0) continue;
    ++reachable;
    slowest = (reachable == 1) ? rate : std::min(slowest, rate);
  }
  std::printf("site survey (%d threads): %d/%zu tags reachable, "
              "slowest link %s\n\n",
              pool.size(), reachable, tags.size(),
              sim::Table::fmt_rate(slowest).c_str());

  const auto result = inventory.run(codebook, tags, warehouse, rng);

  sim::Table table({"beam_deg", "tags", "rounds", "slots", "collisions",
                    "link_rate", "dwell_ms"});
  for (const auto& beam : result.beams) {
    table.add_row({sim::Table::fmt(
                       phys::rad_to_deg(beam.beam.boresight_rad), 0),
                   std::to_string(beam.tags_in_beam),
                   std::to_string(beam.aloha.rounds),
                   std::to_string(beam.aloha.slots_total),
                   std::to_string(beam.aloha.slots_collision),
                   sim::Table::fmt_rate(beam.link_rate_bps),
                   sim::Table::fmt(beam.dwell_time_s * 1e3, 3)});
  }
  table.print("Warehouse aisle inventory — per-beam breakdown");
  std::printf("\nread %d / %d tags in %.2f ms  (%s of identifiers)\n",
              result.tags_read, result.tags_total,
              result.total_time_s * 1e3,
              sim::Table::fmt_rate(result.aggregate_throughput_bps(
                                       config.payload_bits))
                  .c_str());
  return result.tags_read == result.tags_total ? 0 : 1;
}
