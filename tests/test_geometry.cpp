// Planar-geometry tests (src/channel/geometry).
#include "src/channel/geometry.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"

namespace mmtag::channel {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_DOUBLE_EQ((a + b).x, 4.0);
  EXPECT_DOUBLE_EQ((a - b).y, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).x, 2.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
}

TEST(Vec2, NormAndNormalize) {
  const Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  const Vec2 u = v.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_NEAR(u.x, 0.6, 1e-12);
}

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({-1, -1}, {-1, -1}), 0.0);
}

TEST(Bearing, Cardinals) {
  EXPECT_NEAR(bearing_rad({0, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(bearing_rad({0, 0}, {0, 1}), phys::kPi / 2.0, 1e-12);
  EXPECT_NEAR(bearing_rad({0, 0}, {-1, 0}), phys::kPi, 1e-12);
  EXPECT_NEAR(bearing_rad({2, 2}, {3, 3}), phys::kPi / 4.0, 1e-12);
}

TEST(Segment, DirectionAndLength) {
  const Segment s{{0, 0}, {2, 0}};
  EXPECT_DOUBLE_EQ(s.length(), 2.0);
  EXPECT_DOUBLE_EQ(s.direction().x, 1.0);
}

TEST(Intersect, CrossingSegments) {
  const auto hit = intersect(Segment{{0, -1}, {0, 1}},
                             Segment{{-1, 0}, {1, 0}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->x, 0.0, 1e-12);
  EXPECT_NEAR(hit->y, 0.0, 1e-12);
}

TEST(Intersect, NonCrossingAndParallel) {
  EXPECT_FALSE(intersect(Segment{{0, 0}, {1, 0}},
                         Segment{{0, 1}, {1, 1}}).has_value());
  EXPECT_FALSE(intersect(Segment{{0, 0}, {1, 0}},
                         Segment{{2, -1}, {2, -2}}).has_value());
}

TEST(Intersect, SharedEndpointCounts) {
  const auto hit =
      intersect(Segment{{0, 0}, {1, 1}}, Segment{{1, 1}, {2, 0}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->x, 1.0, 1e-12);
}

TEST(Blocks, CrossingBlockerBlocks) {
  const Segment wall{{1, -1}, {1, 1}};
  EXPECT_TRUE(blocks(wall, {0, 0}, {2, 0}));
}

TEST(Blocks, MissingBlockerDoesNot) {
  const Segment wall{{1, 1}, {1, 2}};
  EXPECT_FALSE(blocks(wall, {0, 0}, {2, 0}));
}

TEST(Blocks, TouchingPathEndpointDoesNotBlock) {
  // A wall through the path's start point must not block the path — the
  // reader standing against a wall still sees the room.
  const Segment wall{{0, -1}, {0, 1}};
  EXPECT_FALSE(blocks(wall, {0, 0}, {2, 0}));
}

TEST(Mirror, AcrossHorizontalLine) {
  const Segment wall{{0, 1}, {5, 1}};
  const Vec2 image = mirror_across(wall, {2, 3});
  EXPECT_NEAR(image.x, 2.0, 1e-12);
  EXPECT_NEAR(image.y, -1.0, 1e-12);
}

TEST(Mirror, PointOnLineIsFixed) {
  const Segment wall{{0, 0}, {1, 1}};
  const Vec2 image = mirror_across(wall, {0.5, 0.5});
  EXPECT_NEAR(image.x, 0.5, 1e-12);
  EXPECT_NEAR(image.y, 0.5, 1e-12);
}

// Property: mirroring twice is the identity.
class MirrorInvolutionTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(MirrorInvolutionTest, TwiceIsIdentity) {
  const auto [x, y] = GetParam();
  const Segment wall{{-1.0, 2.0}, {4.0, 0.5}};
  const Vec2 p{x, y};
  const Vec2 back = mirror_across(wall, mirror_across(wall, p));
  EXPECT_NEAR(back.x, x, 1e-9);
  EXPECT_NEAR(back.y, y, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Points, MirrorInvolutionTest,
    ::testing::Values(std::pair{0.0, 0.0}, std::pair{3.0, 3.0},
                      std::pair{-2.0, 1.0}, std::pair{10.0, -4.0}));

}  // namespace
}  // namespace mmtag::channel
