// Uniform linear arrays: element phase and array factor.
//
// This implements Sec. 5.1 of the paper verbatim. For an N-element array
// with spacing d, the signal received by the n-th element from azimuth
// theta is (paper Eq. 1):
//
//   x_n = x_0 * exp(-j * K0 * n * d * sin(theta)),   n in [0, N-1]
//
// which for the conventional d = lambda/2 reduces to Eq. (2),
// x_n = x_0 * exp(-j * pi * n * sin(theta)). Transmitting toward theta
// requires the conjugate phases (Eq. 3). The Van Atta model in src/core
// builds directly on this element phase.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace mmtag::antenna {

using Complex = std::complex<double>;

class UniformLinearArray {
 public:
  /// `elements` >= 1, `spacing_m` > 0, `frequency_hz` > 0.
  UniformLinearArray(int elements, double spacing_m, double frequency_hz);

  /// Conventional half-wavelength-spaced array at `frequency_hz`.
  [[nodiscard]] static UniformLinearArray half_wavelength(int elements,
                                                          double frequency_hz);

  [[nodiscard]] int size() const { return elements_; }
  [[nodiscard]] double spacing_m() const { return spacing_m_; }
  [[nodiscard]] double frequency_hz() const { return frequency_hz_; }

  /// Per-element phase K0 * d * sin(theta) [rad] — pi * sin(theta) for
  /// half-wavelength spacing.
  [[nodiscard]] double element_phase_rad(double angle_rad) const;

  /// Complex array factor AF(theta) = sum_n w_n * exp(-j * n * psi(theta)).
  [[nodiscard]] Complex array_factor(std::span<const Complex> weights,
                                     double angle_rad) const;

 private:
  int elements_;
  double spacing_m_;
  double frequency_hz_;
};

/// Uniform (unsteered, equal-amplitude) weights of length `n`, normalized to
/// unit total power: w_n = 1/sqrt(n).
[[nodiscard]] std::vector<Complex> uniform_weights(int n);

}  // namespace mmtag::antenna
