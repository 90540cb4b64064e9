// Van Atta array tests — the paper's core contribution (Sec. 5.2).
//
// The headline property: the array re-radiates toward the direction of
// arrival for *any* incidence angle (Eq. 5 vs Eq. 3), with no active parts.
#include "src/core/van_atta.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::core {
namespace {

TEST(VanAtta, PrototypeShape) {
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  EXPECT_EQ(array.size(), 6);
  EXPECT_DOUBLE_EQ(array.config().frequency_hz, phys::kMmTagCarrierHz);
  EXPECT_NEAR(array.geometry().spacing_m(),
              phys::wavelength_m(phys::kMmTagCarrierHz) / 2.0, 1e-12);
}

TEST(VanAtta, PairingIsMirrored) {
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  EXPECT_EQ(array.pair_of(0), 5);
  EXPECT_EQ(array.pair_of(2), 3);
  EXPECT_EQ(array.pair_of(5), 0);
}

TEST(VanAtta, PrototypeBeamwidthNearPaperTwentyDegrees) {
  // Paper Sec. 7: "6 antenna elements which creates a directional reflector
  // with 20 degree beam width". Six elements at lambda/2 give the closed
  // form 0.886 * 2 / 6 rad = 16.9 deg, which the paper rounds to 20.
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double bw = array.retro_beamwidth_deg(0.0);
  EXPECT_GT(bw, 14.0);
  EXPECT_LT(bw, 22.0);
  EXPECT_NEAR(bw, 16.9, 0.2);
}

TEST(VanAtta, SwitchesKillTheReflection) {
  // Paper Sec. 6: switches on => "the tag does not receive nor reflect".
  VanAttaArray array = VanAttaArray::mmtag_prototype();
  array.set_all_switches(em::SwitchState::kOff);
  const double reflect_db = array.monostatic_gain_db(0.0);
  array.set_all_switches(em::SwitchState::kOn);
  const double absorb_db = array.monostatic_gain_db(0.0);
  EXPECT_GT(reflect_db - absorb_db, 8.0);
}

TEST(VanAtta, GainScalesWithElementCountSquared) {
  // Monostatic field ~ N  =>  power gain ~ N^2: +6 dB per doubling. This is
  // the knob behind "range and data-rate ... can be further increased by
  // using more antenna elements" (paper Sec. 8).
  const double g6 = VanAttaArray::with_elements(6).monostatic_gain_db(0.0);
  const double g12 = VanAttaArray::with_elements(12).monostatic_gain_db(0.0);
  const double g24 = VanAttaArray::with_elements(24).monostatic_gain_db(0.0);
  EXPECT_NEAR(g12 - g6, 6.0, 0.3);
  EXPECT_NEAR(g24 - g12, 6.0, 0.3);
}

TEST(VanAtta, BeamwidthShrinksWithElements) {
  EXPECT_GT(VanAttaArray::with_elements(4).retro_beamwidth_deg(0.0),
            VanAttaArray::with_elements(8).retro_beamwidth_deg(0.0));
  EXPECT_GT(VanAttaArray::with_elements(8).retro_beamwidth_deg(0.0),
            VanAttaArray::with_elements(16).retro_beamwidth_deg(0.0));
}

TEST(VanAtta, OddElementCountSelfPairsCentre) {
  const VanAttaArray array = VanAttaArray::with_elements(5);
  EXPECT_EQ(array.pair_of(2), 2);  // Centre element self-paired.
  // Retrodirectivity still holds.
  const double peak =
      array.peak_reradiation_direction_rad(phys::deg_to_rad(25.0));
  EXPECT_NEAR(phys::rad_to_deg(peak), 25.0, 3.0);
}

TEST(VanAtta, BistaticPeakIsNotSpecular) {
  // A mirror would send 30 deg -> -30 deg. The Van Atta must NOT.
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double incidence = phys::deg_to_rad(30.0);
  const double retro = array.bistatic_gain_db(incidence, incidence);
  const double specular = array.bistatic_gain_db(incidence, -incidence);
  EXPECT_GT(retro, specular + 10.0);
}

TEST(VanAtta, MismatchedLineLengthsBreakRetrodirectivity) {
  // Eq. (4) requires equal line phases; deliberately unequal lines must
  // scatter the beam. Build 6 elements with pair lines of very different
  // lengths.
  VanAttaArray::Config config;
  config.elements = 6;
  config.frequency_hz = phys::kMmTagCarrierHz;
  std::vector<em::TransmissionLine> lines;
  const em::TransmissionLine ref = em::TransmissionLine::mmtag_interconnect(0.0);
  const double lambda_g = ref.guided_wavelength_m(config.frequency_hz);
  // Phases spread over ~2/3 turn between pairs.
  lines.push_back(em::TransmissionLine::mmtag_interconnect(lambda_g));
  lines.push_back(em::TransmissionLine::mmtag_interconnect(lambda_g * 1.33));
  lines.push_back(em::TransmissionLine::mmtag_interconnect(lambda_g * 1.66));
  VanAttaArray broken(config, em::PatchElement::mmtag(), std::move(lines));

  const VanAttaArray good = VanAttaArray::mmtag_prototype();
  EXPECT_LT(broken.monostatic_gain_db(0.0),
            good.monostatic_gain_db(0.0) - 3.0);
}

TEST(VanAtta, CommonExtraLinePhaseIsHarmless) {
  // Any *common* phi drops out of the retro property (it is a global phase
  // in Eq. 5). Two prototypes with different but equal-per-pair line
  // lengths must have identical monostatic |gain|.
  VanAttaArray::Config config;
  config.elements = 6;
  config.frequency_hz = phys::kMmTagCarrierHz;
  const em::TransmissionLine ref = em::TransmissionLine::mmtag_interconnect(0.0);
  const double lambda_g = ref.guided_wavelength_m(config.frequency_hz);

  // Compare loss-free variants so only phase differs.
  const auto make = [&](double length) {
    em::TransmissionLine::Params p;
    p.attenuation_db_per_m = 0.0;
    p.length_m = length;
    std::vector<em::TransmissionLine> lines(3, em::TransmissionLine(p));
    return VanAttaArray(config, em::PatchElement::mmtag(), std::move(lines));
  };
  const VanAttaArray a = make(lambda_g * 0.25);
  const VanAttaArray b = make(lambda_g * 0.8);
  for (const double deg : {0.0, 20.0, 40.0}) {
    const double theta = phys::deg_to_rad(deg);
    EXPECT_NEAR(a.monostatic_gain_db(theta), b.monostatic_gain_db(theta),
                1e-6);
  }
}

TEST(VanAtta, LinkSideGainMatchesElementPlusArray) {
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  EXPECT_NEAR(array.link_side_gain_dbi(),
              5.0 + phys::ratio_to_db(6.0), 1e-9);
}

// THE core property (paper Eq. 5): for any incidence angle in the visible
// region, the re-radiated beam peaks back at the incidence angle.
class RetrodirectivityTest : public ::testing::TestWithParam<double> {};

TEST_P(RetrodirectivityTest, PeakReturnsToSource) {
  const double incidence_deg = GetParam();
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double peak_rad = array.peak_reradiation_direction_rad(
      phys::deg_to_rad(incidence_deg));
  // The element pattern skews the peak slightly toward boresight at wide
  // angles (about an eighth of the incidence angle at 60 degrees); within
  // that skew the beam still covers the reader, since the retro lobe is
  // ~17 degrees wide.
  const double tolerance_deg = 1.0 + 0.14 * std::abs(incidence_deg);
  EXPECT_NEAR(phys::rad_to_deg(peak_rad), incidence_deg, tolerance_deg);
}

INSTANTIATE_TEST_SUITE_P(Angles, RetrodirectivityTest,
                         ::testing::Values(-60.0, -45.0, -30.0, -15.0, -5.0,
                                           0.0, 5.0, 15.0, 30.0, 45.0,
                                           60.0));

// Property: the monostatic response stays strong across the field of view
// (within 13 dB of boresight out to +/-45 deg), which is what "solves the
// beam alignment problem" (the fixed-beam baseline drops > 25 dB by 15
// degrees — see test_baselines.cpp).
class MonostaticFlatnessTest : public ::testing::TestWithParam<double> {};

TEST_P(MonostaticFlatnessTest, StaysWithinWindow) {
  const double deg = GetParam();
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double boresight = array.monostatic_gain_db(0.0);
  const double here = array.monostatic_gain_db(phys::deg_to_rad(deg));
  EXPECT_GT(here, boresight - 13.0);
}

INSTANTIATE_TEST_SUITE_P(Angles, MonostaticFlatnessTest,
                         ::testing::Values(-45.0, -30.0, -15.0, 15.0, 30.0,
                                           45.0));

}  // namespace
}  // namespace mmtag::core
