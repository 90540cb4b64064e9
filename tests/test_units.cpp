// Unit-conversion substrate tests (src/phys/units).
#include "src/phys/units.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"

namespace mmtag::phys {
namespace {

TEST(UnitsDb, RatioRoundTrip) {
  EXPECT_DOUBLE_EQ(ratio_to_db(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio_to_db(10.0), 10.0);
  EXPECT_DOUBLE_EQ(ratio_to_db(100.0), 20.0);
  EXPECT_NEAR(db_to_ratio(3.0), 1.995262, 1e-6);
  EXPECT_NEAR(ratio_to_db(db_to_ratio(-17.3)), -17.3, 1e-12);
}

TEST(UnitsDb, AmplitudeUsesTwentyLog) {
  EXPECT_DOUBLE_EQ(amplitude_ratio_to_db(10.0), 20.0);
  EXPECT_NEAR(db_to_amplitude_ratio(-15.0), 0.177828, 1e-6);
  EXPECT_NEAR(amplitude_ratio_to_db(db_to_amplitude_ratio(-5.0)), -5.0,
              1e-12);
}

TEST(UnitsPower, DbmConversions) {
  EXPECT_DOUBLE_EQ(watts_to_dbm(1e-3), 0.0);    // 1 mW = 0 dBm.
  EXPECT_DOUBLE_EQ(watts_to_dbm(1.0), 30.0);    // 1 W = 30 dBm.
  EXPECT_NEAR(watts_to_dbm(20e-3), 13.0103, 1e-4);  // Paper: 20 mW reader.
  EXPECT_NEAR(dbm_to_watts(-30.0), 1e-6, 1e-15);
}

TEST(UnitsFrequency, WavelengthAt24GHz) {
  // 24 GHz -> 12.49 mm: the "millimetre" in mmWave.
  EXPECT_NEAR(wavelength_m(24e9), 0.012491, 1e-6);
  EXPECT_NEAR(wavelength_m(60e9), 0.004997, 1e-6);
  EXPECT_NEAR(wavenumber_rad_per_m(24e9), kTwoPi / 0.0124913524, 1e-3);
}

TEST(UnitsFrequency, Prefixes) {
  EXPECT_DOUBLE_EQ(ghz(24.0), 24e9);
  EXPECT_DOUBLE_EQ(mhz(200.0), 2e8);
  EXPECT_DOUBLE_EQ(khz(500.0), 5e5);
}

TEST(UnitsLength, FeetRoundTrip) {
  EXPECT_DOUBLE_EQ(feet_to_m(10.0), 3.048);
  EXPECT_NEAR(m_to_feet(feet_to_m(4.0)), 4.0, 1e-12);
}

TEST(UnitsAngle, DegreesRadians) {
  EXPECT_NEAR(deg_to_rad(180.0), kPi, 1e-12);
  EXPECT_NEAR(rad_to_deg(kPi / 2.0), 90.0, 1e-12);
}

// Property: wrap_angle_rad always lands in (-pi, pi] and preserves the
// angle modulo 2*pi.
class WrapAngleTest : public ::testing::TestWithParam<double> {};

TEST_P(WrapAngleTest, StaysInPrincipalRangeAndPreservesValue) {
  const double angle = GetParam();
  const double wrapped = wrap_angle_rad(angle);
  EXPECT_GT(wrapped, -kPi - 1e-12);
  EXPECT_LE(wrapped, kPi + 1e-12);
  EXPECT_NEAR(std::remainder(angle - wrapped, kTwoPi), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WrapAngleTest,
                         ::testing::Values(-25.0, -7.0, -kPi, -1.0, 0.0, 0.5,
                                           kPi, 4.0, 9.42, 63.0));

}  // namespace
}  // namespace mmtag::phys
