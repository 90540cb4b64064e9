// Metro world: a city-block reader grid serves 100k batteryless tags.
//
// The deploy fleet (warehouse_fleet) tops out around a few thousand tags;
// this example drives the scale layer instead — SoA tag store, uniform
// grid spatial index, and SIMD epoch batching (DESIGN.md Sec. 14) — over
// a 200 x 200 m block with a 4 x 4 reader grid. Each epoch every reader
// gathers its neighbourhood from the index, evaluates the whole slab
// through the kern layer, and polls detected tags under an
// energy-harvesting duty cycle while 5% of tags wander between epochs.
// Prints per-epoch service and the final aggregate with the world state
// fingerprint (bit-identical at any --threads value).
//
// Flags: --tags N, --epochs E, --threads N, --seed S. A tag or epoch
// count below 1, or a --threads value outside 0..1024 (sim::kMaxThreads),
// exits 2 with usage.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/scale/world.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmtag;

  int tags = 100000;
  int epochs = 8;
  int threads = 0;  // 0 = sim::default_thread_count().
  std::uint64_t seed = 2026;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tags") == 0 && i + 1 < argc)
      tags = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc)
      epochs = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc &&
        !sim::parse_thread_count(argv[++i], &threads)) {
      threads = -1;
    }
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
  }
  if (tags < 1 || epochs < 1 || threads < 0) {
    std::fprintf(stderr,
                 "usage: %s [--tags N] [--epochs E] [--threads N] "
                 "[--seed S]\n  --tags and --epochs must be >= 1, "
                 "--threads 0..%d (0 = default)\n",
                 argv[0], sim::kMaxThreads);
    return 2;
  }

  scale::MetroConfig config;
  config.tags = static_cast<std::size_t>(tags);
  config.seed = seed;

  scale::MetroWorld world(config);
  sim::ThreadPool pool(threads);

  sim::Table per_epoch({"epoch", "candidates", "detected", "successes",
                        "new_reads", "moved", "handoffs"});
  for (int e = 0; e < epochs; ++e) {
    const scale::MetroEpochStats stats = world.run_epoch(pool);
    per_epoch.add_row({std::to_string(e), std::to_string(stats.candidates),
                       std::to_string(stats.detected),
                       std::to_string(stats.successes),
                       std::to_string(stats.new_reads),
                       std::to_string(stats.moved),
                       std::to_string(stats.handoffs)});
  }
  char title[96];
  std::snprintf(title, sizeof title,
                "Metro world — %d tags, %dx%d readers, %d threads", tags,
                config.readers_x, config.readers_y, pool.size());
  per_epoch.print(title);

  const scale::MetroStats stats = world.stats();
  std::printf(
      "\n%" PRIu64 "/%zu tags read, %.2f Mbit delivered, %" PRIu64
      " interference pairs, %" PRIu64 " handoffs\n",
      stats.tags_read, config.tags, stats.delivered_bits / 1e6,
      stats.interference_pairs, stats.handoffs);
  std::printf("state fingerprint %016" PRIx64
              " (invariant under --threads)\n",
              world.state_fingerprint());
  return stats.tags_read > 0 ? 0 : 1;
}
