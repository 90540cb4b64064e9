#include "src/antenna/ula.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::antenna {

UniformLinearArray::UniformLinearArray(int elements, double spacing_m,
                                       double frequency_hz)
    : elements_(elements), spacing_m_(spacing_m), frequency_hz_(frequency_hz) {
  assert(elements_ >= 1);
  assert(spacing_m_ > 0.0);
  assert(frequency_hz_ > 0.0);
}

UniformLinearArray UniformLinearArray::half_wavelength(int elements,
                                                       double frequency_hz) {
  return UniformLinearArray(elements, phys::wavelength_m(frequency_hz) / 2.0,
                            frequency_hz);
}

double UniformLinearArray::element_phase_rad(double angle_rad) const {
  const double k0 = phys::wavenumber_rad_per_m(frequency_hz_);
  return k0 * spacing_m_ * std::sin(angle_rad);
}

Complex UniformLinearArray::array_factor(std::span<const Complex> weights,
                                         double angle_rad) const {
  assert(static_cast<int>(weights.size()) == elements_);
  const double psi = element_phase_rad(angle_rad);
  Complex af(0.0, 0.0);
  for (int n = 0; n < elements_; ++n) {
    af += weights[static_cast<std::size_t>(n)] * std::polar(1.0, -psi * n);
  }
  return af;
}

std::vector<Complex> uniform_weights(int n) {
  assert(n >= 1);
  return std::vector<Complex>(static_cast<std::size_t>(n),
                              Complex(1.0 / std::sqrt(n), 0.0));
}

}  // namespace mmtag::antenna
