// Cross-module integration tests: the full mmTag story, end to end.
//
// Each test exercises a scenario from the paper through multiple layers at
// once: scan -> align -> link budget -> waveform -> frame, plus the
// mobility and NLOS narratives of Secs. 1 and 4.
#include <cmath>

#include <gtest/gtest.h>

#include "src/antenna/codebook.hpp"
#include "src/baselines/fixed_beam_tag.hpp"
#include "src/mac/inventory.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/reader/receive_chain.hpp"
#include "src/reader/scanner.hpp"
#include "src/sim/rng.hpp"

namespace mmtag {
namespace {

// Scenario 1: the Fig. 2 loop — the reader scans, finds the tag's beam,
// then pulls a CRC-checked frame through the waveform pipeline at the SNR
// the link budget predicts for that beam.
TEST(EndToEnd, ScanAlignDecode) {
  auto rng = sim::make_rng(71);
  const channel::Environment env;
  const auto rates = phy::RateTable::mmtag_standard();

  core::MmTag tag = core::MmTag::prototype_at(
      core::Pose{{1.0, 0.6}, channel::bearing_rad({1.0, 0.6}, {0.0, 0.0})},
      7);
  reader::BeamScanner scanner(
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
      reader::PowerDetector::mmtag_default());

  // Scan.
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(60.0), 18.0);
  const auto scan = scanner.scan(codebook, tag, env, rates, rng);
  ASSERT_TRUE(scan.found_tag());
  const auto& winner =
      scan.probes[static_cast<std::size_t>(scan.best_beam_index)];

  // Link through the winning beam.
  scanner.reader().steer_to_world(winner.beam.boresight_rad);
  const auto link = scanner.reader().evaluate_link(tag, env, rates);
  ASSERT_GT(link.achievable_rate_bps, 0.0);

  // Waveform exchange at the link's SNR in the chosen tier's bandwidth.
  const auto tier = rates.best_tier(link.received_power_dbm);
  ASSERT_TRUE(tier.has_value());
  const double snr_db = link.received_power_dbm -
                        rates.noise().power_dbm(tier->bandwidth_hz);
  const reader::ReceiveChain chain(reader::ReceiveChain::Params{8, true});
  phy::TagFrame frame;
  frame.tag_id = tag.id();
  frame.payload = phy::BitVector(96, true);
  phy::Waveform wave = chain.encode(frame, link.modulation_depth_db);
  phy::add_awgn(wave, phy::noise_power_for_snr(phy::mean_power(wave), snr_db),
                rng);
  const auto received = chain.receive(wave);
  ASSERT_TRUE(received.frame.has_value());
  EXPECT_EQ(received.frame->tag_id, tag.id());
}

// Scenario 2: mobility (paper Sec. 1). A tag orbits the reader at constant
// range. The Van Atta tag keeps a usable link at every step once the
// reader tracks the bearing; the fixed-beam baseline dies as soon as its
// orientation swings away.
TEST(EndToEnd, OrbitingTagStaysConnectedWhereFixedBeamDies) {
  const channel::Environment env;
  const auto rates = phy::RateTable::mmtag_standard();
  auto reader = reader::MmWaveReader::prototype_at(
      core::Pose{{0.0, 0.0}, 0.0});

  const double radius = phys::feet_to_m(4.0);

  int van_atta_alive = 0;
  int fixed_alive = 0;
  constexpr int kSteps = 12;
  for (int step = 0; step < kSteps; ++step) {
    const double t = step * 0.5;
    const double angle = -0.6 + 0.2 * t;  // Orbit at 0.2 rad/s.
    const channel::Vec2 pos =
        channel::Vec2{std::cos(angle), std::sin(angle)} * radius;
    // The tag keeps a FIXED world orientation while it orbits — exactly the
    // situation where a fixed-beam tag loses alignment.
    const core::Pose pose{pos, phys::kPi};
    const double bearing = channel::bearing_rad({0.0, 0.0}, pos);
    reader.steer_to_world(bearing);

    core::MmTag tag(core::VanAttaArray::mmtag_prototype(), pose);
    if (reader.evaluate_link(tag, env, rates).achievable_rate_bps > 0.0) {
      ++van_atta_alive;
    }

    // Fixed-beam baseline at the same pose: local incidence angle is the
    // same; its monostatic gain replaces the Van Atta's in the budget.
    const double local = pose.to_local(channel::bearing_rad(pos, {0.0, 0.0}));
    const double fixed_gain =
        baselines::FixedBeamTag::like_mmtag_prototype().monostatic_gain_db(
            local);
    const auto link = reader.evaluate_link(tag, env, rates);
    const double van_atta_gain = tag.monostatic_gain_db(
        channel::bearing_rad(pos, {0.0, 0.0}));
    const double fixed_power =
        link.received_power_dbm - van_atta_gain + fixed_gain;
    if (rates.achievable_rate_bps(fixed_power) > 0.0) ++fixed_alive;
  }
  EXPECT_EQ(van_atta_alive, kSteps);   // Passive alignment never breaks.
  EXPECT_LT(fixed_alive, kSteps / 2);  // The fixed beam mostly misses.
}

// Scenario 3: NLOS fallback (paper Sec. 4). A blocker walks through the
// LOS; the reader re-aims at the wall bounce and the link survives.
TEST(EndToEnd, BlockerForcesNlosAndLinkSurvives) {
  const auto rates = phy::RateTable::mmtag_standard();
  // Corridor: a smooth side wall parallel to the link keeps the bounce
  // within the tag's field of view.
  channel::Environment env;
  env.add_wall(channel::Wall{channel::Segment{{-2, 0.3}, {2, 0.3}}, 0.15});

  core::MmTag tag = core::MmTag::prototype_at(core::Pose{{0.0, 0.0}, 0.0});
  auto reader = reader::MmWaveReader::prototype_at(
      core::Pose{{phys::feet_to_m(3.0), 0.0}, phys::kPi});

  // Phase A: clear LOS.
  reader.steer_to_world(phys::kPi);
  const auto los_link = reader.evaluate_link(tag, env, rates);
  EXPECT_EQ(los_link.path.kind, channel::PathKind::kLineOfSight);
  EXPECT_DOUBLE_EQ(los_link.achievable_rate_bps, 1e9);

  // Phase B: a person steps into the LOS (short enough to miss the
  // wall-bounce legs, which pass above y = 0.15 near x = 0.45).
  env.add_obstacle(
      channel::Obstacle{channel::Segment{{0.45, -0.1}, {0.45, 0.1}}});
  const auto paths =
      channel::trace_paths(env, reader.pose().position, tag.pose().position);
  ASSERT_GE(paths.size(), 2u);
  EXPECT_EQ(paths[0].kind, channel::PathKind::kReflected);

  // The reader re-aims at the bounce and keeps a (slower but alive) link.
  reader.steer_to_world(paths[0].departure_rad);
  const auto nlos_link = reader.evaluate_link(tag, env, rates);
  EXPECT_EQ(nlos_link.path.kind, channel::PathKind::kReflected);
  EXPECT_GT(nlos_link.achievable_rate_bps, 0.0);
  EXPECT_LE(nlos_link.achievable_rate_bps, los_link.achievable_rate_bps);
}

// Scenario 4: a small warehouse aisle — inventory over multiple tags via
// SDM + Aloha, all layers live at once.
TEST(EndToEnd, WarehouseAisleInventory) {
  auto rng = sim::make_rng(72);
  const auto rates = phy::RateTable::mmtag_standard();
  channel::Environment env;

  std::vector<core::MmTag> tags;
  for (int i = 0; i < 10; ++i) {
    const channel::Vec2 pos{0.8 + 0.25 * i, (i % 2 == 0) ? 0.8 : -0.8};
    tags.push_back(core::MmTag::prototype_at(
        core::Pose{pos, channel::bearing_rad(pos, {0.0, 0.0})},
        static_cast<std::uint32_t>(100 + i)));
  }
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-75.0), phys::deg_to_rad(75.0), 15.0);
  mac::SdmInventory inventory(
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
      rates, mac::InventoryConfig{});
  const auto result = inventory.run(codebook, tags, env, rng);
  EXPECT_EQ(result.tags_read, 10);
  // Gigabit-class links make the whole inventory sub-second.
  EXPECT_LT(result.total_time_s, 1.0);
}

}  // namespace
}  // namespace mmtag
