// Complex-impedance algebra tests (src/em/impedance).
#include "src/em/impedance.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"

namespace mmtag::em {
namespace {

constexpr double kZ0 = 50.0;

TEST(Impedance, LumpedElements) {
  EXPECT_EQ(resistor(75.0), Complex(75.0, 0.0));
  // 1 nH at 1 GHz: jwL = j6.283 ohm.
  const Complex l = inductor(1e-9, 1e9);
  EXPECT_NEAR(l.imag(), 6.2832, 1e-3);
  EXPECT_DOUBLE_EQ(l.real(), 0.0);
  // 1 pF at 1 GHz: 1/jwC = -j159.15 ohm.
  const Complex c = capacitor(1e-12, 1e9);
  EXPECT_NEAR(c.imag(), -159.155, 1e-2);
}

TEST(Impedance, SeriesAndParallel) {
  EXPECT_EQ(series(resistor(20.0), resistor(30.0)), Complex(50.0, 0.0));
  const Complex p = parallel(resistor(100.0), resistor(100.0));
  EXPECT_NEAR(p.real(), 50.0, 1e-12);
  EXPECT_NEAR(p.imag(), 0.0, 1e-12);
}

TEST(Impedance, ParallelWithShortIsShort) {
  const Complex p = parallel(Complex(0.0, 0.0), resistor(100.0));
  EXPECT_EQ(p, Complex(0.0, 0.0));
}

TEST(Impedance, ParallelResonance) {
  // At resonance, L and C in parallel cancel (|Z| -> huge).
  const double f = 1.0 / (phys::kTwoPi * std::sqrt(1e-9 * 1e-12));
  const Complex z = parallel(inductor(1e-9, f), capacitor(1e-12, f));
  EXPECT_GT(std::abs(z), 1e6);
}

TEST(Reflection, MatchedLoadHasNoReflection) {
  const Complex gamma = reflection_coefficient(resistor(kZ0), kZ0);
  EXPECT_NEAR(std::abs(gamma), 0.0, 1e-15);
  EXPECT_LE(s11_db(resistor(kZ0), kZ0), -79.0);  // Clamped deep floor.
}

TEST(Reflection, ShortAndOpenReflectFully) {
  EXPECT_NEAR(std::abs(reflection_coefficient(Complex(0, 0), kZ0)), 1.0,
              1e-12);
  EXPECT_NEAR(std::abs(reflection_coefficient(resistor(1e12), kZ0)), 1.0,
              1e-9);
  // Short reflects with 180-degree phase; open with 0.
  EXPECT_NEAR(reflection_coefficient(Complex(0, 0), kZ0).real(), -1.0, 1e-12);
  EXPECT_NEAR(reflection_coefficient(resistor(1e12), kZ0).real(), 1.0, 1e-9);
}

TEST(Reflection, KnownMismatch) {
  // 100 ohm on 50: Gamma = 1/3, S11 = -9.54 dB.
  EXPECT_NEAR(std::abs(reflection_coefficient(resistor(100.0), kZ0)),
              1.0 / 3.0, 1e-12);
  EXPECT_NEAR(s11_db(resistor(100.0), kZ0), -9.542, 1e-3);
}

}  // namespace
}  // namespace mmtag::em
