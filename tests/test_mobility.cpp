// Mobility-model tests (src/channel/mobility).
#include "src/channel/mobility.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"

namespace mmtag::channel {
namespace {

TEST(StaticMobility, NeverMoves) {
  const StaticMobility fixed({1.0, 2.0});
  EXPECT_DOUBLE_EQ(fixed.position(0.0).x, 1.0);
  EXPECT_DOUBLE_EQ(fixed.position(100.0).y, 2.0);
}

TEST(LinearMobility, ConstantVelocity) {
  const LinearMobility walker({0.0, 0.0}, {1.0, -0.5});
  EXPECT_DOUBLE_EQ(walker.position(0.0).x, 0.0);
  EXPECT_DOUBLE_EQ(walker.position(4.0).x, 4.0);
  EXPECT_DOUBLE_EQ(walker.position(4.0).y, -2.0);
}

TEST(WaypointMobility, VisitsWaypointsAtComputedTimes) {
  const WaypointMobility route({{0, 0}, {3, 0}, {3, 4}}, 1.0);
  EXPECT_DOUBLE_EQ(route.total_duration_s(), 7.0);  // 3 m + 4 m at 1 m/s.
  EXPECT_DOUBLE_EQ(route.position(0.0).x, 0.0);
  EXPECT_DOUBLE_EQ(route.position(3.0).x, 3.0);
  EXPECT_DOUBLE_EQ(route.position(3.0).y, 0.0);
  EXPECT_DOUBLE_EQ(route.position(7.0).y, 4.0);
  // Midway along the second leg.
  EXPECT_DOUBLE_EQ(route.position(5.0).y, 2.0);
}

TEST(WaypointMobility, ClampsOutsideSchedule) {
  const WaypointMobility route({{1, 1}, {2, 1}}, 2.0);
  EXPECT_DOUBLE_EQ(route.position(-5.0).x, 1.0);
  EXPECT_DOUBLE_EQ(route.position(50.0).x, 2.0);
}

TEST(WaypointMobility, SinglePointActsStatic) {
  const WaypointMobility route({{4, 2}}, 1.0);
  EXPECT_DOUBLE_EQ(route.position(0.0).x, 4.0);
  EXPECT_DOUBLE_EQ(route.position(9.0).y, 2.0);
  EXPECT_DOUBLE_EQ(route.total_duration_s(), 0.0);
}

}  // namespace
}  // namespace mmtag::channel
