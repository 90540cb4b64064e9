// Scenario-engine tests (src/sim/scenario).
#include "src/sim/scenario.hpp"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::sim {
namespace {

/// Circular orbit around the reader at the origin.
class Orbit final : public channel::Mobility {
 public:
  Orbit(double radius_m, double rate_rad_per_s, double start_rad)
      : radius_(radius_m), rate_(rate_rad_per_s), start_(start_rad) {}

  [[nodiscard]] channel::Vec2 position(double t_s) const override {
    const double angle = start_ + rate_ * t_s;
    return channel::Vec2{std::cos(angle), std::sin(angle)} * radius_;
  }

 private:
  double radius_;
  double rate_;
  double start_;
};

LinkScenario basic_scenario(LinkScenario::Config config = {}) {
  return LinkScenario(
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
      phy::RateTable::mmtag_standard(), config);
}

TEST(Scenario, StaticTagStaysConnectedAtGigabit) {
  LinkScenario scenario = basic_scenario();
  scenario.set_tag_trajectory(std::make_shared<channel::StaticMobility>(
      channel::Vec2{phys::feet_to_m(4.0), 0.0}));
  const ScenarioResult result = scenario.run(5.0, 1);
  EXPECT_DOUBLE_EQ(result.connectivity, 1.0);
  EXPECT_EQ(result.full_scans, 1);  // Acquisition only.
  // The hysteresis controller needs a few steps to ramp up, then holds
  // 1 Gbps: mean within 10% of the top tier.
  EXPECT_GT(result.mean_rate_bps, 0.9e9);
  EXPECT_GT(result.delivered_bits, 4.0e9);
}

TEST(Scenario, OrbitingTagTracked) {
  LinkScenario::Config config;
  config.orientation = TagOrientation::kFaceReader;
  LinkScenario scenario = basic_scenario(config);
  scenario.set_tag_trajectory(
      std::make_shared<Orbit>(phys::feet_to_m(4.0), 0.25, -0.5));
  const ScenarioResult result = scenario.run(4.0, 2);
  EXPECT_DOUBLE_EQ(result.connectivity, 1.0);
  EXPECT_EQ(result.full_scans, 1);
}

TEST(Scenario, MovingBlockerCausesNlosSteps) {
  // The wall bounce departs ~33 degrees off the LOS — outside the
  // tracker's cheap 3-probe window — so recovery goes through
  // re-acquisition. A miss budget of 1 makes the tracker re-scan on the
  // first blocked step; a slow blocker keeps the LOS down long enough for
  // several NLOS steps.
  LinkScenario::Config config;
  config.tracking.miss_budget = 1;
  LinkScenario scenario = basic_scenario(config);
  channel::Environment corridor;
  corridor.add_wall(
      channel::Wall{channel::Segment{{-2.0, 0.3}, {2.0, 0.3}}, 0.1});
  scenario.set_static_environment(corridor);
  scenario.set_tag_trajectory(std::make_shared<channel::StaticMobility>(
      channel::Vec2{phys::feet_to_m(3.0), 0.0}));
  scenario.add_moving_blocker(
      std::make_shared<channel::LinearMobility>(
          channel::Vec2{0.45, -0.4}, channel::Vec2{0.0, 0.25}),
      0.1);
  const ScenarioResult result = scenario.run(3.2, 3);
  int nlos_steps = 0;
  for (const TimelineRecord& record : result.timeline) {
    if (record.path_kind == channel::PathKind::kReflected) ++nlos_steps;
  }
  EXPECT_GT(nlos_steps, 0);
  // At most the one re-acquisition step is lost.
  EXPECT_GT(result.connectivity, 0.9);
}

TEST(Scenario, ControlledRateNeverExceedsInstantaneous) {
  LinkScenario scenario = basic_scenario();
  scenario.set_tag_trajectory(std::make_shared<channel::LinearMobility>(
      channel::Vec2{0.7, 0.0}, channel::Vec2{0.25, 0.0}));  // Walks away.
  const ScenarioResult result = scenario.run(10.0, 5);
  for (const TimelineRecord& record : result.timeline) {
    EXPECT_LE(record.controlled_rate_bps,
              record.instantaneous_rate_bps + 1e-9);
  }
  // Walking from 0.7 m out to 3.2 m crosses at least one tier boundary.
  EXPECT_GE(result.rate_switches, 1);
}

TEST(Scenario, DeterministicUnderSeed) {
  for (int run = 0; run < 2; ++run) {
    LinkScenario scenario = basic_scenario();
    scenario.set_tag_trajectory(std::make_shared<Orbit>(1.0, 0.3, 0.1));
    const ScenarioResult a = scenario.run(2.0, 42);
    LinkScenario scenario_b = basic_scenario();
    scenario_b.set_tag_trajectory(std::make_shared<Orbit>(1.0, 0.3, 0.1));
    const ScenarioResult b = scenario_b.run(2.0, 42);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.timeline[i].received_power_dbm,
                       b.timeline[i].received_power_dbm);
    }
  }
}

}  // namespace
}  // namespace mmtag::sim
