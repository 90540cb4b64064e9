#include "src/antenna/pattern.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::antenna {

double Pattern::amplitude(double angle_rad) const {
  // Field amplitude is the square root of linear power gain, i.e.
  // 10^(dBi / 20).
  return phys::db_to_amplitude_ratio(gain_dbi(angle_rad));
}

double IsotropicPattern::gain_dbi(double /*angle_rad*/) const { return 0.0; }

PatchPattern::PatchPattern(double boresight_gain_dbi, double exponent)
    : boresight_dbi_(boresight_gain_dbi),
      exponent_(exponent),
      floor_dbi_(boresight_gain_dbi - 25.0) {
  assert(exponent_ > 0.0);
}

double PatchPattern::gain_dbi(double angle_rad) const {
  const double wrapped = phys::wrap_angle_rad(angle_rad);
  // Behind the ground plane: only the leakage floor radiates.
  if (std::abs(wrapped) >= phys::kPi / 2.0) return floor_dbi_;
  const double shape = std::pow(std::cos(wrapped), exponent_);
  if (shape <= 0.0) return floor_dbi_;
  const double gain = boresight_dbi_ + phys::ratio_to_db(shape);
  return gain > floor_dbi_ ? gain : floor_dbi_;
}

HornPattern::HornPattern(double boresight_gain_dbi,
                         double half_power_beamwidth_deg,
                         double sidelobe_floor_dbi)
    : boresight_dbi_(boresight_gain_dbi),
      hpbw_deg_(half_power_beamwidth_deg),
      floor_dbi_(sidelobe_floor_dbi) {
  assert(hpbw_deg_ > 0.0);
  assert(floor_dbi_ < boresight_dbi_);
}

HornPattern HornPattern::mmtag_reader_horn() {
  return HornPattern(/*boresight_gain_dbi=*/20.0,
                     /*half_power_beamwidth_deg=*/18.0);
}

double HornPattern::gain_dbi(double angle_rad) const {
  const double wrapped_deg =
      phys::rad_to_deg(phys::wrap_angle_rad(angle_rad));
  // Gaussian main lobe: G(theta) = G0 - 12 * (theta / HPBW)^2 dB gives the
  // -3 dB point exactly at theta = HPBW / 2.
  const double rolloff_db = 12.0 * std::pow(wrapped_deg / hpbw_deg_, 2.0);
  const double gain = boresight_dbi_ - rolloff_db;
  return gain > floor_dbi_ ? gain : floor_dbi_;
}

}  // namespace mmtag::antenna
