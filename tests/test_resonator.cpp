// Patch-resonator model tests (src/em/resonator).
#include "src/em/resonator.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::em {
namespace {

TEST(Resonator, RealImpedanceAtResonance) {
  const PatchResonator patch = PatchResonator::mmtag_element();
  const Complex z = patch.impedance(patch.resonant_frequency_hz());
  EXPECT_NEAR(z.imag(), 0.0, 1e-9);
  EXPECT_NEAR(z.real(), patch.resonant_resistance_ohm(), 1e-9);
}

TEST(Resonator, MmtagElementDipDepth) {
  // R chosen for a -15.3 dB match against 50 ohm (Fig. 6 "switch off" dip).
  const PatchResonator patch = PatchResonator::mmtag_element();
  EXPECT_NEAR(s11_db(patch.impedance(patch.resonant_frequency_hz()),
                     phys::kReferenceImpedanceOhm),
              -15.0, 0.4);
}

TEST(Resonator, DetuningRaisesS11) {
  const PatchResonator patch = PatchResonator::mmtag_element();
  const double f0 = patch.resonant_frequency_hz();
  const double dip = s11_db(patch.impedance(f0), 50.0);
  EXPECT_GT(s11_db(patch.impedance(f0 * 1.02), 50.0), dip + 5.0);
  EXPECT_GT(s11_db(patch.impedance(f0 * 0.98), 50.0), dip + 5.0);
}

TEST(Resonator, ImpedanceMagnitudeFallsOffResonance) {
  const PatchResonator patch(24e9, 70.0, 30.0);
  EXPECT_GT(std::abs(patch.impedance(24e9)),
            std::abs(patch.impedance(25e9)));
  EXPECT_GT(std::abs(patch.impedance(24e9)),
            std::abs(patch.impedance(23e9)));
}

// Property: tuned_against_shunt really cancels the shunt susceptance —
// the combined admittance is purely real at the target frequency, for a
// range of switch off-capacitances.
class ShuntTuningTest : public ::testing::TestWithParam<double> {};

TEST_P(ShuntTuningTest, CombinedResonanceLandsOnTarget) {
  const double c_off = GetParam();
  const double f_target = phys::kMmTagCarrierHz;
  const PatchResonator tuned =
      PatchResonator::tuned_against_shunt(f_target, 70.0, 40.0, c_off);
  const Complex y_total = 1.0 / tuned.impedance(f_target) +
                          1.0 / capacitor(c_off, f_target);
  EXPECT_NEAR(y_total.imag(), 0.0, 1e-8);
  // The pre-tuned bare resonance sits above the loaded target.
  EXPECT_GE(tuned.resonant_frequency_hz(), f_target);
}

INSTANTIATE_TEST_SUITE_P(Capacitances, ShuntTuningTest,
                         ::testing::Values(5e-15, 15e-15, 25e-15, 50e-15,
                                           100e-15));

}  // namespace
}  // namespace mmtag::em
