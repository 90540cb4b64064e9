// Fleet simulator (src/deploy): layout determinism, end-to-end service,
// thread-count invariance of the aggregates, mobility/handoff, the
// cache's raytrace savings on static scenarios, the frozen fingerprints of
// bench_d1_fleet's small configs, and one cell's poll retry ladder and
// quarantine sentence.
#include "src/deploy/fleet.hpp"

#include <gtest/gtest.h>

#include "src/deploy/cell.hpp"
#include "src/deploy/layout.hpp"
#include "src/fault/schedule.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::deploy {
namespace {

FleetConfig small_fleet() {
  FleetConfig config;
  config.layout.width_m = 10.0;
  config.layout.height_m = 6.0;
  config.layout.readers = 4;
  config.layout.tags = 60;
  config.layout.seed = 42;
  config.epochs = 2;
  config.epoch_duration_s = 0.02;
  config.seed = 42;
  config.threads = 1;
  return config;
}

TEST(Layout, IsDeterministicAndInBounds) {
  LayoutConfig config;
  config.width_m = 10.0;
  config.height_m = 6.0;
  config.readers = 4;
  config.tags = 50;
  config.seed = 7;
  const FleetLayout a = make_layout(config);
  const FleetLayout b = make_layout(config);
  ASSERT_EQ(a.tags.size(), 50u);
  ASSERT_EQ(a.reader_poses.size(), 4u);
  EXPECT_EQ(a.environment.walls().size(), 4u);
  for (std::size_t i = 0; i < a.tags.size(); ++i) {
    const auto pa = a.tags[i].pose().position;
    const auto pb = b.tags[i].pose().position;
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
    EXPECT_GE(pa.x, config.margin_m);
    EXPECT_LE(pa.x, config.width_m - config.margin_m);
    EXPECT_GE(pa.y, config.margin_m);
    EXPECT_LE(pa.y, config.height_m - config.margin_m);
  }
}

TEST(Layout, GridPlacementCoversTheFloor) {
  LayoutConfig config;
  config.width_m = 10.0;
  config.height_m = 6.0;
  config.readers = 2;
  config.tags = 12;
  config.placement = TagPlacement::kGrid;
  const FleetLayout layout = make_layout(config);
  // Grid tags spread across both halves of the room.
  int left = 0;
  for (const auto& tag : layout.tags) {
    if (tag.pose().position.x < config.width_m / 2.0) ++left;
  }
  EXPECT_GT(left, 2);
  EXPECT_LT(left, 10);
}

TEST(FleetSimulator, ReadsMostTagsAndProducesSaneStats) {
  FleetSimulator fleet(small_fleet());
  const FleetResult result = fleet.run();
  const FleetStats& stats = result.stats;

  EXPECT_EQ(stats.tags_total, 60);
  EXPECT_GT(stats.coverage(), 0.8);  // Dense 4-reader cell grid: near-full.
  EXPECT_GT(stats.tags_read, 0);
  EXPECT_GT(stats.goodput_mean_bps, 0.0);
  EXPECT_GT(stats.jain, 0.1);
  EXPECT_LE(stats.jain, 1.0);
  EXPECT_GE(stats.latency_p99_s, stats.latency_p50_s);
  EXPECT_GT(stats.reader_utilization, 0.0);
  EXPECT_LE(stats.reader_utilization, 1.0);
  EXPECT_GT(stats.cache_hit_rate(), 0.5);  // Polling re-hits constantly.
  ASSERT_EQ(result.last_epoch.size(), 4u);
  ASSERT_EQ(result.plans.size(), 4u);
}

TEST(FleetSimulator, AggregatesAreBitIdenticalAcrossThreadCounts) {
  FleetConfig base = small_fleet();
  base.mobile_fraction = 0.2;  // Exercise invalidation + handoff too.

  std::uint64_t reference = 0;
  bool first = true;
  for (const int threads : {1, 4, sim::default_thread_count()}) {
    FleetConfig config = base;
    config.threads = threads;
    const FleetResult result = FleetSimulator(config).run();
    const std::uint64_t print = fingerprint(result.stats);
    if (first) {
      reference = print;
      first = false;
    } else {
      EXPECT_EQ(print, reference) << "threads=" << threads;
    }
  }
}

TEST(FleetSimulator, SeedChangesTheRealization) {
  FleetConfig a = small_fleet();
  FleetConfig b = small_fleet();
  b.seed = 43;
  b.layout.seed = 43;
  EXPECT_NE(fingerprint(FleetSimulator(a).run().stats),
            fingerprint(FleetSimulator(b).run().stats));
}

TEST(FleetSimulator, MobilityTriggersHandoffsAndStaysDeterministic) {
  FleetConfig config = small_fleet();
  config.epochs = 4;
  config.mobile_fraction = 0.5;
  config.mobile_speed_mps = 10.0;  // Fast walkers cross cell borders.
  const FleetResult a = FleetSimulator(config).run();
  const FleetResult b = FleetSimulator(config).run();
  EXPECT_GT(a.stats.handoffs, 0);
  EXPECT_EQ(fingerprint(a.stats), fingerprint(b.stats));
}

TEST(FleetSimulator, StaticScenarioCacheSavesTenfoldRaytraces) {
  FleetConfig cached = small_fleet();
  // Full-airtime policy: cells poll all epoch, so the hot loop hammers the
  // link budgets — the workload the cache exists for.
  cached.coordination.policy = CoordinationPolicy::kChannelized;
  FleetConfig uncached = cached;
  uncached.use_link_cache = false;

  const FleetResult with = FleetSimulator(cached).run();
  const FleetResult without = FleetSimulator(uncached).run();

  // Identical physics either way...
  EXPECT_EQ(fingerprint(with.stats), fingerprint(without.stats));
  // ...but the static scenario re-traces nothing after warmup.
  EXPECT_GT(without.stats.raytrace_evals, 0u);
  EXPECT_GE(without.stats.raytrace_evals, 10 * with.stats.raytrace_evals);
  EXPECT_EQ(without.stats.cache_hits, 0u);
}

TEST(FleetCoordinator, TdmSharesAirtimeWithoutInterference) {
  FleetConfig config = small_fleet();
  config.coordination.policy = CoordinationPolicy::kTdm;
  const FleetResult result = FleetSimulator(config).run();
  ASSERT_EQ(result.plans.size(), 4u);
  for (const CellPlan& plan : result.plans) {
    EXPECT_DOUBLE_EQ(plan.airtime_share, 0.25);
    EXPECT_DOUBLE_EQ(plan.interference_dbm, -300.0);
  }
  // A quarter of the airtime caps reader utilization at a quarter.
  EXPECT_LE(result.stats.reader_utilization, 0.25 + 1e-9);
}

TEST(FleetCoordinator, ChannelizationReducesInterferenceLoad) {
  FleetConfig same = small_fleet();
  same.coordination.policy = CoordinationPolicy::kSimultaneous;
  FleetConfig channelized = small_fleet();
  channelized.coordination.policy = CoordinationPolicy::kChannelized;
  channelized.coordination.channels = 4;

  const FleetResult raw = FleetSimulator(same).run();
  const FleetResult part = FleetSimulator(channelized).run();
  double worst_raw = -400.0;
  double worst_part = -400.0;
  for (std::size_t i = 0; i < raw.plans.size(); ++i) {
    worst_raw = std::max(worst_raw, raw.plans[i].interference_dbm);
    worst_part = std::max(worst_part, part.plans[i].interference_dbm);
  }
  EXPECT_LT(worst_part, worst_raw);
  // Less interference can only help service.
  EXPECT_GE(part.stats.tags_read, raw.stats.tags_read);
}

TEST(FleetFaults, SimultaneousMultiReaderLossEvacuatesEveryTag) {
  FleetConfig config = small_fleet();
  config.epochs = 4;
  // Readers 0-2 all die for epochs 1-2 (D = 0.02 s): one survivor left.
  for (const int r : {0, 1, 2}) {
    config.faults.outages.scripted.push_back(
        fault::ScriptedOutage{r, 0.02, 0.04});
  }
  const FleetResult result = FleetSimulator(config).run();
  // Every orphan re-homed to the survivor: zero orphaned tag-seconds.
  EXPECT_EQ(result.fault.reader_outages, 3);
  EXPECT_GT(result.fault.orphan_handoffs, 0);
  EXPECT_DOUBLE_EQ(result.fault.orphaned_tag_s, 0.0);
  EXPECT_DOUBLE_EQ(result.fault.availability, 1.0);
  EXPECT_GT(result.stats.tags_read, 0);
  // And the evacuation is reproducible bit for bit.
  const FleetResult again = FleetSimulator(config).run();
  EXPECT_EQ(fingerprint(result.stats), fingerprint(again.stats));
  EXPECT_EQ(fault::fingerprint(result.fault),
            fault::fingerprint(again.fault));
}

TEST(FleetFaults, TotalBlackoutHasNowhereToEvacuate) {
  FleetConfig config = small_fleet();
  config.epochs = 3;
  for (int r = 0; r < 4; ++r) {
    config.faults.outages.scripted.push_back(
        fault::ScriptedOutage{r, 0.02, 0.02});  // Epoch 1: all dark.
  }
  const FleetResult result = FleetSimulator(config).run();
  // Re-handoff cannot help when no reader is live: one epoch of total
  // orphanhood for all 60 tags.
  EXPECT_NEAR(result.fault.availability, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(result.fault.orphaned_tag_s, 60.0 * 0.02, 1e-9);
  EXPECT_EQ(result.fault.reader_outages, 4);
}

TEST(FleetFaults, FaultedAggregatesBitIdenticalAcrossThreadCounts) {
  FleetConfig base = small_fleet();
  base.epochs = 3;
  base.faults = fault::FaultSchedule::chaos(0.7);

  std::uint64_t fleet_ref = 0;
  std::uint64_t fault_ref = 0;
  bool first = true;
  for (const int threads : {1, 4, sim::default_thread_count()}) {
    FleetConfig config = base;
    config.threads = threads;
    const FleetResult result = FleetSimulator(config).run();
    const std::uint64_t fleet_fp = fingerprint(result.stats);
    const std::uint64_t fault_fp = fault::fingerprint(result.fault);
    if (first) {
      fleet_ref = fleet_fp;
      fault_ref = fault_fp;
      first = false;
    } else {
      EXPECT_EQ(fleet_fp, fleet_ref) << "threads=" << threads;
      EXPECT_EQ(fault_fp, fault_ref) << "threads=" << threads;
    }
  }
}

// bench_d1_fleet's small configs: 4 readers in an 8 x 8 m room, seed 1,
// 0.4 s epochs unless overridden.
FleetConfig d1_fleet(int tags, int epochs) {
  FleetConfig config;
  config.layout.width_m = 8.0;
  config.layout.height_m = 8.0;
  config.layout.readers = 4;
  config.layout.tags = tags;
  config.layout.seed = 1;
  config.epochs = epochs;
  config.epoch_duration_s = 0.4;
  config.seed = 1;
  return config;
}

TEST(FleetSimulator, FrozenFingerprintsAreBitIdentical) {
  // `bench_d1_fleet --readers 4 --tags 100 --epochs 4` headline.
  EXPECT_EQ(fingerprint(FleetSimulator(d1_fleet(100, 4)).run().stats),
            0x003da708a3c87b83ULL);

  // bench_d1_fleet's cache_vs_uncached scenario, both arms.
  FleetConfig cached = d1_fleet(400, 2);
  cached.epoch_duration_s = 0.05;
  cached.coordination.policy = CoordinationPolicy::kChannelized;
  FleetConfig uncached = cached;
  uncached.use_link_cache = false;
  EXPECT_EQ(fingerprint(FleetSimulator(cached).run().stats),
            0x6deea61e00021d7cULL);
  EXPECT_EQ(fingerprint(FleetSimulator(uncached).run().stats),
            0x6deea61e00021d7cULL);

  // Mobility: tags move and hand off between cells every epoch.
  FleetConfig mobile = small_fleet();
  mobile.epochs = 4;
  mobile.mobile_fraction = 0.5;
  mobile.mobile_speed_mps = 10.0;
  EXPECT_EQ(fingerprint(FleetSimulator(mobile).run().stats),
            0xcd8b75bfd6a9dee2ULL);

  // Chaos: outages, brownouts, stuck switches, blockage and drift.
  FleetConfig chaos = small_fleet();
  chaos.epochs = 3;
  chaos.faults = fault::FaultSchedule::chaos(0.7);
  const FleetResult faulted = FleetSimulator(chaos).run();
  EXPECT_EQ(fingerprint(faulted.stats), 0xc7fcf3f57d474120ULL);
  EXPECT_EQ(fault::fingerprint(faulted.fault), 0xe0fa47d012560948ULL);

  // Scripted outage of readers 0-2 over epochs 1-2: their restart in
  // epoch 3 invalidates the restarted cells' link caches.
  FleetConfig restart = small_fleet();
  restart.epochs = 4;
  for (const int r : {0, 1, 2}) {
    restart.faults.outages.scripted.push_back(
        fault::ScriptedOutage{r, 0.02, 0.04});
  }
  const FleetResult restarted = FleetSimulator(restart).run();
  EXPECT_GT(restarted.fault.cache_evictions, 0u);
  EXPECT_EQ(fingerprint(restarted.stats), 0x0ddfca73fa193da5ULL);
  EXPECT_EQ(fault::fingerprint(restarted.fault), 0xab25fcdd86bc0c50ULL);
}

TEST(ReaderCell, BlockedTagServesItsQuarantineSentence) {
  // Two tags share one beam a metre from the reader; the second sits
  // behind a blockage that swallows every poll. The cell's retry ladder must burn
  // the original poll plus poll_retry_budget retries, then bench the tag
  // for exactly quarantine_epochs epochs.
  const channel::Environment env;
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  CellConfig config;
  config.recovery.poll_retry_budget = 2;
  config.recovery.quarantine_epochs = 2;
  ReaderCell cell(
      0, reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
      &env, &rates, config);
  const std::vector<core::MmTag> tags = {
      core::MmTag::prototype_at(core::Pose{{1.0, 0.0}, 3.14159}, 1),
      core::MmTag::prototype_at(core::Pose{{1.0, 0.05}, 3.14159}, 2)};
  const std::vector<std::size_t> roster = {0, 1};
  const std::vector<std::uint8_t> brownout(2, 0);
  const std::vector<double> loss_db(2, 0.0);
  const std::vector<std::uint8_t> blocked = {0, 1};
  CellFaultContext faults;
  faults.tag_brownout = &brownout;
  faults.tag_loss_db = &loss_db;
  faults.tag_blocked = &blocked;
  faults.block_probability = 1.0;
  auto rng = sim::make_rng(2024);
  int epoch = 0;
  const auto run = [&] {
    const double start_s = 0.02 * epoch++;
    return cell.run_epoch(tags, roster, CellPlan{}, start_s, 0.02, rng,
                          &faults);
  };
  const long burn = 1 + config.recovery.poll_retry_budget;

  const CellEpochResult first = run();
  EXPECT_EQ(first.polls_timed_out, burn);
  EXPECT_EQ(first.quarantines, 1);
  EXPECT_EQ(first.service[1].polls, burn);
  EXPECT_GT(first.service[0].delivered_bits, 0.0);  // Neighbour unharmed.

  // Two epochs of sentence: the tag is neither discovered nor polled.
  for (int sitting = 0; sitting < config.recovery.quarantine_epochs;
       ++sitting) {
    const CellEpochResult benched = run();
    EXPECT_EQ(benched.polls_timed_out, 0) << "sitting=" << sitting;
    EXPECT_EQ(benched.quarantines, 0) << "sitting=" << sitting;
    EXPECT_FALSE(benched.service[1].read) << "sitting=" << sitting;
    EXPECT_EQ(benched.service[1].polls, 0) << "sitting=" << sitting;
  }

  // Sentence served: retried, still dark, quarantined again.
  const CellEpochResult retried = run();
  EXPECT_TRUE(retried.service[1].read);
  EXPECT_EQ(retried.polls_timed_out, burn);
  EXPECT_EQ(retried.quarantines, 1);

  // A reader restart clears the sentence: retried in the very next epoch.
  (void)cell.on_reader_restarted();
  const CellEpochResult restarted = run();
  EXPECT_EQ(restarted.polls_timed_out, burn);
  EXPECT_EQ(restarted.quarantines, 1);

  // A flaky tag that answers in between failures restarts its count each
  // time, so it burns more timeouts than one budget before its sentence.
  (void)cell.on_reader_restarted();
  faults.block_probability = 0.5;
  const CellEpochResult flaky = run();
  EXPECT_GT(flaky.polls_timed_out, burn);
  EXPECT_GT(flaky.service[1].delivered_bits, 0.0);
}

}  // namespace
}  // namespace mmtag::deploy
