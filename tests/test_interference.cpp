// Reader-to-reader interference tests (src/reader/interference).
#include "src/reader/interference.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::reader {
namespace {

MmWaveReader reader_at(double x, double y, double facing_rad) {
  return MmWaveReader::prototype_at(core::Pose{{x, y}, facing_rad});
}

TEST(Interference, FacingReadersInterfereStrongly) {
  // Two readers staring at each other from 3 m: both horns at boresight.
  MmWaveReader a = reader_at(0.0, 0.0, 0.0);
  MmWaveReader b = reader_at(3.0, 0.0, phys::kPi);
  a.steer_to_world(0.0);
  b.steer_to_world(phys::kPi);
  const double i_dbm =
      cross_reader_interference_dbm(a, b, channel::Environment{});
  // 13 dBm + 40 dBi - FSPL(3m, 24GHz) ~ 13 + 40 - 69.6 = -16.6 dBm: huge.
  EXPECT_NEAR(i_dbm, -16.6, 1.0);
}

TEST(Interference, DirectionalityBuysIsolation) {
  // Same geometry, but both readers aim 50 degrees away: two sidelobe
  // floors (~ -10 dBi each) instead of two 20 dBi mains = ~60 dB relief.
  MmWaveReader a = reader_at(0.0, 0.0, 0.0);
  MmWaveReader b = reader_at(3.0, 0.0, phys::kPi);
  a.steer_to_world(phys::deg_to_rad(50.0));
  b.steer_to_world(phys::kPi - phys::deg_to_rad(50.0));
  const double averted =
      cross_reader_interference_dbm(a, b, channel::Environment{});
  a.steer_to_world(0.0);
  b.steer_to_world(phys::kPi);
  const double facing =
      cross_reader_interference_dbm(a, b, channel::Environment{});
  EXPECT_LT(averted, facing - 50.0);
}

TEST(Interference, TotalAddsLinearly) {
  std::vector<MmWaveReader> readers = {
      reader_at(0.0, 0.0, 0.0),
      reader_at(3.0, 0.0, phys::kPi),
      reader_at(0.0, 3.0, -phys::kPi / 2.0),
  };
  const channel::Environment env;
  const double total = total_interference_dbm(readers, 0, env);
  const double from_b =
      cross_reader_interference_dbm(readers[1], readers[0], env);
  const double from_c =
      cross_reader_interference_dbm(readers[2], readers[0], env);
  EXPECT_NEAR(total,
              phys::watts_to_dbm(phys::dbm_to_watts(from_b) +
                                 phys::dbm_to_watts(from_c)),
              1e-9);
}

TEST(Interference, SingleReaderHasNoInterference) {
  std::vector<MmWaveReader> readers = {reader_at(0.0, 0.0, 0.0)};
  EXPECT_LE(total_interference_dbm(readers, 0, channel::Environment{}),
            -299.0);
}

TEST(Interference, SinrLimitedRateDegradesGracefully) {
  const auto rates = phy::RateTable::mmtag_standard();
  const double tag_dbm = -63.7;  // The 4 ft operating point.
  // No interference: full gigabit.
  EXPECT_DOUBLE_EQ(sinr_limited_rate_bps(tag_dbm, -300.0, rates), 1e9);
  // Interference at the 2 GHz noise floor: ~3 dB SINR loss, gigabit holds
  // (12 dB margin at 4 ft).
  EXPECT_DOUBLE_EQ(sinr_limited_rate_bps(tag_dbm, -75.8, rates), 1e9);
  // Strong interference (-60 dBm): gigabit dies, narrower tiers survive
  // only if the interferer is out of *their* band... our model loads every
  // tier, so the rate falls to zero once I >> tag power.
  EXPECT_LT(sinr_limited_rate_bps(tag_dbm, -60.0, rates), 1e9);
  EXPECT_DOUBLE_EQ(sinr_limited_rate_bps(tag_dbm, -40.0, rates), 0.0);
}

TEST(Interference, WallReflectionCanCarryInterference) {
  // Two readers facing away from each other but sharing a smooth wall:
  // the bounce path couples them.
  channel::Environment env;
  env.add_wall(channel::Wall{channel::Segment{{-5, 2}, {5, 2}}, 0.1});
  MmWaveReader a = reader_at(-1.0, 0.0, 0.0);
  MmWaveReader b = reader_at(1.0, 0.0, phys::kPi);
  // Aim both at the wall-bounce bearings toward each other.
  a.steer_to_world(channel::bearing_rad({-1.0, 0.0}, {0.0, 2.0}));
  b.steer_to_world(channel::bearing_rad({1.0, 0.0}, {0.0, 2.0}));
  const double with_wall = cross_reader_interference_dbm(a, b, env);
  const double no_wall =
      cross_reader_interference_dbm(a, b, channel::Environment{});
  EXPECT_GT(with_wall, no_wall + 10.0);
}

}  // namespace
}  // namespace mmtag::reader
