#include "src/em/resonator.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"

namespace mmtag::em {

PatchResonator::PatchResonator(double resonant_frequency_hz,
                               double resonant_resistance_ohm,
                               double quality_factor)
    : f0_hz_(resonant_frequency_hz),
      r_ohm_(resonant_resistance_ohm),
      q_(quality_factor) {
  assert(f0_hz_ > 0.0);
  assert(r_ohm_ > 0.0);
  assert(q_ > 0.0);
}

PatchResonator PatchResonator::mmtag_element() {
  // R = Z0 * (1 + |G|) / (1 - |G|) with |G| = 10^(-15/20) gives the -15 dB
  // resonant dip of Fig. 6; Q = 40 is typical for a 0.18 mm Rogers patch and
  // keeps the whole 24.0-24.25 GHz ISM band inside the matched region.
  const double gamma = std::pow(10.0, -15.0 / 20.0);
  const double r =
      phys::kReferenceImpedanceOhm * (1.0 + gamma) / (1.0 - gamma);
  return PatchResonator(phys::kMmTagCarrierHz, r, 40.0);
}

PatchResonator PatchResonator::tuned_against_shunt(
    double f_target_hz, double resonant_resistance_ohm,
    double quality_factor, double c_shunt_f) {
  assert(f_target_hz > 0.0);
  assert(c_shunt_f >= 0.0);
  // Parallel-RLC admittance: Y = (1/R) * (1 + jQ d), d = f/f0 - f0/f.
  // The shunt adds j*w*C; cancellation at f_target needs
  //   d = -w * C * R / Q.
  // With u = f0 / f_target:  1/u - u = d  =>  u^2 + d*u - 1 = 0.
  const double omega = phys::kTwoPi * f_target_hz;
  const double d = -omega * c_shunt_f * resonant_resistance_ohm /
                   quality_factor;
  const double u = (-d + std::sqrt(d * d + 4.0)) / 2.0;
  return PatchResonator(u * f_target_hz, resonant_resistance_ohm,
                        quality_factor);
}

Complex PatchResonator::impedance(double frequency_hz) const {
  assert(frequency_hz > 0.0);
  const double detuning = frequency_hz / f0_hz_ - f0_hz_ / frequency_hz;
  return r_ohm_ / Complex(1.0, q_ * detuning);
}

}  // namespace mmtag::em
