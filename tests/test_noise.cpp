// Thermal-noise model tests (src/phys/noise) — pins the paper's noise
// floors (Fig. 7, footnote 4).
#include "src/phys/noise.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::phys {
namespace {

TEST(Noise, DensityAt290KelvinIsMinus174) {
  // The classic -174 dBm/Hz figure is defined at T0 = 290 K, NF = 0.
  const NoiseModel ideal(kStandardNoiseTemperatureK, 0.0);
  EXPECT_NEAR(ideal.power_dbm(1.0), -173.98, 0.01);
}

TEST(Noise, PaperNoiseFloors) {
  // Footnote 4: NF = 5 dB, T = 300 K. Fig. 7 plots floors near -76 dBm
  // (2 GHz), -86 dBm (200 MHz) and -96 dBm (20 MHz).
  const NoiseModel reader = NoiseModel::mmtag_reader();
  EXPECT_NEAR(reader.power_dbm(ghz(2.0)), -75.8, 0.3);
  EXPECT_NEAR(reader.power_dbm(mhz(200.0)), -85.8, 0.3);
  EXPECT_NEAR(reader.power_dbm(mhz(20.0)), -95.8, 0.3);
}

TEST(Noise, TenXBandwidthCostsTenDb) {
  const NoiseModel reader = NoiseModel::mmtag_reader();
  EXPECT_NEAR(reader.power_dbm(mhz(200.0)) - reader.power_dbm(mhz(20.0)),
              10.0, 1e-9);
}

TEST(Noise, NoiseFigureAddsDirectly) {
  const NoiseModel quiet(kRoomTemperatureK, 0.0);
  const NoiseModel noisy(kRoomTemperatureK, 5.0);
  EXPECT_NEAR(noisy.power_dbm(mhz(20.0)) - quiet.power_dbm(mhz(20.0)), 5.0,
              1e-9);
}

TEST(Noise, LinearPowerMatchesKtb) {
  const NoiseModel quiet(300.0, 0.0);
  EXPECT_NEAR(quiet.power_w(1e6), kBoltzmann * 300.0 * 1e6, 1e-25);
}

// Property: floor grows monotonically with bandwidth.
class NoiseBandwidthTest : public ::testing::TestWithParam<double> {};

TEST_P(NoiseBandwidthTest, MonotoneInBandwidth) {
  const NoiseModel reader = NoiseModel::mmtag_reader();
  const double b = GetParam();
  EXPECT_LT(reader.power_dbm(b), reader.power_dbm(b * 2.0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, NoiseBandwidthTest,
                         ::testing::Values(1e3, 1e5, 2e7, 2e8, 2e9, 5e9));

}  // namespace
}  // namespace mmtag::phys
