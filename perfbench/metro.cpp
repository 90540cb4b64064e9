// metro: a 1M-tag scale::MetroWorld on a 4x4 reader grid, repeated
// run_epoch calls. The scale layer and its kern batch kernels do nearly all
// the work; phy, impair, deploy, mesh and net do none.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/kern/kern.hpp"
#include "src/scale/world.hpp"
#include "src/sim/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mmtag::scale::MetroConfig;
using mmtag::scale::MetroWorld;

/// The measured world, and a tenfold smaller one on the same ground: the
/// same code at a tenth of the working set (~7 MB against ~70 MB).
constexpr std::size_t kTags = 1'000'000;
constexpr std::size_t kSmallTags = 100'000;
/// Epochs per round. Each round builds fresh worlds, so the fingerprints
/// after epoch kProbeEpoch and after the last epoch are comparable across
/// rounds, pools and runs.
constexpr int kEpochsPerRound = 16;
constexpr int kProbeEpoch = 3;

struct Prints {
  std::uint64_t at_probe = 0;
  std::uint64_t final_state = 0;
  bool operator==(const Prints&) const = default;
};

/// Seed-1 fingerprints. The 1M epoch-3 value is ROADMAP's frozen metro
/// fingerprint and the 100k epoch-3 value is bench_d3_metro's index-margin
/// world; the epoch-16 values are recorded by this benchmark.
constexpr Prints kPinLarge{0x2dc66e999cc0627dULL, 0x2c54bd9dee55d101ULL};
constexpr Prints kPinSmall{0x0633108fcf5e6928ULL, 0xa88df5c15bd9a73bULL};

MetroConfig metro_config(std::size_t tags, std::uint64_t seed) {
  MetroConfig config;
  config.width_m = 200.0;
  config.height_m = 200.0;
  config.readers_x = 4;
  config.readers_y = 4;
  config.tags = tags;
  config.index_cell_m = 5.0;
  config.seed = seed;
  return config;
}

/// Build a world and run one round on `pool`, pushing the set-up time
/// (when `setup_s` is given) and one wall sample per epoch (when `epoch_s`
/// is given). Every epoch is a unit in `ops`.
Prints run_round(const MetroConfig& config, mmtag::sim::ThreadPool& pool,
                 std::vector<double>* setup_s, std::vector<double>* epoch_s,
                 OpLedger& ops) {
  const auto t0 = Clock::now();
  MetroWorld world(config);
  if (setup_s != nullptr) setup_s->push_back(seconds_since(t0));
  Prints prints;
  for (int e = 1; e <= kEpochsPerRound; ++e) {
    ops.run("metro epoch", [&] {
      const auto t = Clock::now();
      (void)world.run_epoch(pool);
      if (epoch_s != nullptr) epoch_s->push_back(seconds_since(t));
      return true;
    });
    if (e == kProbeEpoch) prints.at_probe = world.state_fingerprint();
  }
  prints.final_state = world.state_fingerprint();
  return prints;
}

/// Rounds of (1M world, 100k world) on a 1-thread pool. The first round is
/// replayed on the full pool; every later round must repeat it.
struct UntracedLoop {
  std::vector<double> setup_s, epoch_s, small_epoch_s;
  std::optional<std::pair<Prints, Prints>> first;

  void run(const Options& options, double seconds, std::size_t need,
           RunResult& result) {
    const MetroConfig large = metro_config(kTags, options.seed);
    const MetroConfig small = metro_config(kSmallTags, options.seed);
    mmtag::sim::ThreadPool single(1);
    const auto start = Clock::now();
    while (seconds_since(start) < seconds || epoch_s.size() < need) {
      const Prints big =
          run_round(large, single, &setup_s, &epoch_s, result.ops);
      const Prints little =
          run_round(small, single, nullptr, &small_epoch_s, result.ops);
      if (first) {
        result.ops.record("metro round repeats round 0",
                          big == first->first && little == first->second);
        continue;
      }
      // Bit-identity at any thread count: the full pool must reproduce
      // the 1-thread rounds. At the pinned seed the fingerprints must
      // also equal the frozen values.
      mmtag::sim::ThreadPool wide(options.threads);
      bool ok = run_round(large, wide, nullptr, nullptr, result.ops) == big &&
                run_round(small, wide, nullptr, nullptr, result.ops) == little;
      if (options.seed == kPinnedSeed) {
        ok = ok && big == kPinLarge && little == kPinSmall;
      }
      result.ops.record("metro fingerprints", ok);
      result.notes.push_back("metro.fingerprint_1m: epoch 3 " +
                             hex64(big.at_probe) + ", epoch 16 " +
                             hex64(big.final_state));
      result.notes.push_back("metro.fingerprint_100k: epoch 3 " +
                             hex64(little.at_probe) + ", epoch 16 " +
                             hex64(little.final_state));
      first.emplace(big, little);
    }
  }
};

RunResult run_untraced(const Options& options) {
  RunResult result;
  UntracedLoop loop;
  loop.run(options, options.seconds, samples_for_tail(90.0), result);
  // Rates are the median epoch's (every epoch of a world serves the same
  // tag count), so a few stalled epochs move them no more than the median.
  result.add("setup_s", median(loop.setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("primary_per_s",
             static_cast<double>(kTags) / median(loop.epoch_s), "1/s");
  result.add("secondary_per_s",
             static_cast<double>(kSmallTags) / median(loop.small_epoch_s),
             "1/s");
  result.add("unit_p50_ms", 1e3 * median(loop.epoch_s), "ms");
  result.add("unit_p90_ms", 1e3 * tail_percentile(loop.epoch_s, 90.0).value(),
             "ms");
  result.notes.push_back(
      "metro.samples: " + std::to_string(loop.epoch_s.size()) +
      " 1M-tag epochs, " + std::to_string(loop.small_epoch_s.size()) +
      " 100k-tag epochs, " + std::to_string(loop.setup_s.size()) +
      " set-ups, 1-thread pool");
  return result;
}

/// Per-reader layer probes between epochs: gather_disc, evaluate and the
/// two kern kernels, timed on the world's live state.
struct LayerProbe {
  double gather_ns = 0.0;
  double batch_ns = 0.0;
  double candidates = 0.0;
  double sqdist_ns = 0.0;
  double count_ns = 0.0;

  void run(const MetroWorld& world) {
    const double radius = std::max(std::sqrt(world.link_model().detect_r2_m2),
                                   world.config().interference_radius_m);
    const mmtag::kern::Kernels& k = mmtag::kern::dispatch();
    std::vector<mmtag::scale::TagSlot> cands;
    std::vector<double> sx, sy, d2;
    mmtag::scale::EpochBatcher batcher;
    for (int r = 0; r < world.readers(); ++r) {
      const double rx = world.reader_x(r);
      const double ry = world.reader_y(r);
      cands.clear();
      auto t = Clock::now();
      world.index().gather_disc(rx, ry, radius, cands);
      gather_ns += 1e9 * seconds_since(t);
      candidates += static_cast<double>(cands.size());

      t = Clock::now();
      const auto& batch = batcher.evaluate(world.store(), cands, rx, ry,
                                           world.link_model());
      batch_ns += 1e9 * seconds_since(t);

      const std::size_t n = cands.size();
      sx.resize(n);
      sy.resize(n);
      d2.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        sx[i] = world.store().xs()[cands[i]];
        sy[i] = world.store().ys()[cands[i]];
      }
      t = Clock::now();
      k.squared_distance(sx.data(), sy.data(), rx, ry, n, d2.data());
      sqdist_ns += 1e9 * seconds_since(t);
      t = Clock::now();
      const std::uint64_t below =
          k.count_below(d2.data(), n, world.link_model().detect_r2_m2);
      count_ns += 1e9 * seconds_since(t);
      if (below != batch.detected_count) {
        throw std::runtime_error("kern count_below disagrees with batcher");
      }
    }
  }
};

/// Bytes of the SoA columns and the index buckets, computed from column
/// element sizes (not measured).
double store_bytes(const MetroWorld& world) {
  const double per_slot = 6 * sizeof(double)  // x, y, orientation, energy,
                                              // first_read, delivered
                          + sizeof(std::uint32_t)      // id
                          + 2 * sizeof(std::uint8_t)   // read, alive
                          + sizeof(long);              // polls
  return static_cast<double>(world.store().slots()) * per_slot +
         static_cast<double>(world.index().occupancy()) *
             sizeof(mmtag::scale::TagSlot);
}

RunResult run_traced(const Options& options) {
  RunResult result;
  const MetroConfig config = metro_config(kTags, options.seed);
  const std::size_t need = 2 * kEpochsPerRound;

  // Untraced 1-thread epochs: the overhead baseline.
  UntracedLoop plain;
  plain.run(options, 0.3 * options.seconds, need, result);
  const double epoch_med = median(plain.epoch_s);

  // The same epochs on the full pool: how much the pool buys.
  mmtag::sim::ThreadPool wide(options.threads);
  std::vector<double> wide_s;
  double wide_cpu = 0.0;
  double wide_wall = 0.0;
  double tasks = 0.0;
  for (const auto start = Clock::now();
       seconds_since(start) < 0.2 * options.seconds || wide_s.size() < need;) {
    MetroWorld world(config);
    for (int e = 0; e < kEpochsPerRound; ++e) {
      const double c0 = process_cpu_s();
      const std::uint64_t tasks0 = obs_counter("sim.pool.tasks");
      const auto t = Clock::now();
      (void)world.run_epoch(wide);
      wide_s.push_back(seconds_since(t));
      wide_wall += wide_s.back();
      wide_cpu += process_cpu_s() - c0;
      tasks += static_cast<double>(obs_counter("sim.pool.tasks") - tasks0);
    }
  }

  // Traced 1-thread epochs: layer probes on live state, then the epoch.
  mmtag::sim::ThreadPool single(1);
  LayerProbe probe;
  std::vector<double> cycle_s;
  double candidates = 0, cells = 0, moved = 0, rebuckets = 0, handoffs = 0,
         detected = 0, store = 0;
  for (const auto start = Clock::now();
       seconds_since(start) < 0.4 * options.seconds || cycle_s.size() < need;) {
    MetroWorld world(config);
    for (int e = 0; e < kEpochsPerRound; ++e) {
      const auto t = Clock::now();
      result.ops.run("metro traced epoch", [&] {
        probe.run(world);
        const auto cost0 = world.index().cost();
        const mmtag::scale::MetroEpochStats s = world.run_epoch(single);
        const auto cost1 = world.index().cost();
        candidates += static_cast<double>(cost1.candidates - cost0.candidates);
        cells += static_cast<double>(cost1.cells_visited - cost0.cells_visited);
        moved += static_cast<double>(s.moved);
        rebuckets += static_cast<double>(s.rebuckets);
        handoffs += static_cast<double>(s.handoffs);
        detected += static_cast<double>(s.detected);
        return s.candidates == cost1.candidates - cost0.candidates;
      });
      cycle_s.push_back(seconds_since(t));
    }
    store = store_bytes(world);
  }

  const double n = static_cast<double>(cycle_s.size());
  result.add("kern.squared_distance_ns_per_elem",
             probe.sqdist_ns / probe.candidates, "ns/elem");
  result.add("kern.count_below_ns_per_elem", probe.count_ns / probe.candidates,
             "ns/elem");
  result.add("scale.gather_ns_per_candidate",
             probe.gather_ns / probe.candidates, "ns/candidate");
  result.add("scale.batch_ns_per_candidate", probe.batch_ns / probe.candidates,
             "ns/candidate");
  result.add("scale.candidates_per_epoch", candidates / n, "count/epoch");
  result.add("scale.cells_visited_per_epoch", cells / n, "count/epoch");
  result.add("scale.moved_per_epoch", moved / n, "count/epoch");
  result.add("scale.rebuckets_per_epoch", rebuckets / n, "count/epoch");
  result.add("scale.handoffs_per_epoch", handoffs / n, "count/epoch");
  result.add("scale.detected_per_candidate", detected / candidates, "ratio");
  result.add("scale.store_mb", store / 1e6, "MB");
  result.add("scale.achieved_gbps", store / epoch_med / 1e9, "GB/s");
  result.add("sim.pool.cpu_util",
             wide_cpu / (wide_wall * static_cast<double>(wide.size())),
             "ratio");
  result.add("sim.pool.tasks", tasks / static_cast<double>(wide_s.size()),
             "tasks/unit");
  result.add("sim.pool.speedup", epoch_med / median(wide_s), "ratio");
  result.add("trace.overhead_ratio", median(cycle_s) / epoch_med, "ratio");
  result.add("trace.coverage_ratio",
             1e-9 * (probe.gather_ns + probe.batch_ns) / n / epoch_med,
             "ratio");
  result.notes.push_back(
      "metro.traced: " + std::to_string(cycle_s.size()) + " traced epochs, " +
      std::to_string(plain.epoch_s.size()) + " untraced 1-thread epochs, " +
      std::to_string(wide_s.size()) + " epochs on " +
      std::to_string(wide.size()) + " threads; scale.store_mb is computed "
      "from column element sizes, not measured");
  return result;
}

}  // namespace

RunResult run_metro(const Options& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

}  // namespace perfbench
