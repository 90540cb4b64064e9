// Uniform-linear-array tests (src/antenna/ula) — validates the paper's
// Eqs. (1)-(3) directly.
#include "src/antenna/ula.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::antenna {
namespace {

constexpr double kF = 24e9;

TEST(Ula, HalfWavelengthSpacing) {
  const auto array = UniformLinearArray::half_wavelength(6, kF);
  EXPECT_NEAR(array.spacing_m(), phys::wavelength_m(kF) / 2.0, 1e-12);
  EXPECT_EQ(array.size(), 6);
}

TEST(Ula, ElementPhaseMatchesPaperEq2) {
  // d = lambda/2 => psi = pi * sin(theta) (paper Eq. 2).
  const auto array = UniformLinearArray::half_wavelength(6, kF);
  for (const double deg : {-60.0, -30.0, 0.0, 17.0, 45.0}) {
    const double theta = phys::deg_to_rad(deg);
    EXPECT_NEAR(array.element_phase_rad(theta),
                phys::kPi * std::sin(theta), 1e-9);
  }
}

TEST(Ula, ConjugateWeightsPeakAtSteerAngle) {
  // Transmitting toward theta takes the conjugate phases (paper Eq. 3):
  // with unit-power weights |AF|^2 at theta is N (coherent gain).
  const auto array = UniformLinearArray::half_wavelength(8, kF);
  const double steer = phys::deg_to_rad(20.0);
  const double psi = array.element_phase_rad(steer);
  std::vector<Complex> w;
  for (int n = 0; n < 8; ++n) {
    w.push_back(std::polar(1.0 / std::sqrt(8.0), psi * n));
  }
  EXPECT_NEAR(std::norm(array.array_factor(w, steer)), 8.0, 1e-9);
  EXPECT_LT(std::norm(array.array_factor(w, steer + 0.3)), 4.0);
}

TEST(Ula, BroadsideUniformWeightsGainIsN) {
  const auto array = UniformLinearArray::half_wavelength(6, kF);
  const auto w = uniform_weights(6);
  EXPECT_NEAR(std::norm(array.array_factor(w, 0.0)), 6.0, 1e-9);
}

TEST(Ula, SingleElementIsOmni) {
  const auto array = UniformLinearArray::half_wavelength(1, kF);
  const auto w = uniform_weights(1);
  for (const double theta : {-1.0, 0.0, 0.7}) {
    EXPECT_NEAR(std::norm(array.array_factor(w, theta)), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace mmtag::antenna
