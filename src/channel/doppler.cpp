#include "src/channel/doppler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::channel {

std::vector<double> backscatter_phase_series(const Mobility& path,
                                             Vec2 observer,
                                             double frequency_hz,
                                             double duration_s,
                                             double sample_rate_hz) {
  assert(duration_s > 0.0);
  assert(sample_rate_hz > 0.0);
  const double k0 = phys::wavenumber_rad_per_m(frequency_hz);
  const std::size_t samples =
      static_cast<std::size_t>(duration_s * sample_rate_hz) + 1;
  std::vector<double> phase(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / sample_rate_hz;
    const double d = distance(path.position(t), observer);
    phase[i] = -2.0 * k0 * d;  // Two-way electrical length.
  }
  return phase;
}

double displacement_from_phase_m(const std::vector<double>& phase_rad,
                                 double frequency_hz) {
  if (phase_rad.empty()) return 0.0;
  const auto [min_it, max_it] =
      std::minmax_element(phase_rad.begin(), phase_rad.end());
  const double span_rad = *max_it - *min_it;
  const double k0 = phys::wavenumber_rad_per_m(frequency_hz);
  return span_rad / (2.0 * k0);
}

}  // namespace mmtag::channel
