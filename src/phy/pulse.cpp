#include "src/phy/pulse.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"

namespace mmtag::phy {

std::vector<double> raised_cosine_taps(double beta, int samples_per_symbol,
                                       int span_symbols) {
  assert(beta >= 0.0 && beta <= 1.0);
  assert(samples_per_symbol >= 2);
  assert(span_symbols >= 1);
  const int half = span_symbols * samples_per_symbol;
  std::vector<double> taps(static_cast<std::size_t>(2 * half + 1));
  for (int i = -half; i <= half; ++i) {
    const double t = static_cast<double>(i) / samples_per_symbol;  // In T.
    double value;
    const double denom_arg = 2.0 * beta * t;
    if (std::abs(t) < 1e-12) {
      value = 1.0;
    } else if (beta > 0.0 && std::abs(std::abs(denom_arg) - 1.0) < 1e-9) {
      // The removable singularity at t = +-T/(2 beta).
      value = (phys::kPi / 4.0) *
              std::sin(phys::kPi * t) / (phys::kPi * t);
    } else {
      const double sinc = std::sin(phys::kPi * t) / (phys::kPi * t);
      const double cosine = std::cos(phys::kPi * beta * t) /
                            (1.0 - denom_arg * denom_arg);
      value = sinc * cosine;
    }
    taps[static_cast<std::size_t>(i + half)] = value;
  }
  return taps;
}

double isi_at_symbol_instants(std::span<const double> taps,
                              int samples_per_symbol) {
  assert(!taps.empty());
  const std::size_t center = taps.size() / 2;
  const double peak = std::abs(taps[center]);
  assert(peak > 0.0);
  double isi = 0.0;
  for (std::size_t i = samples_per_symbol; center >= i;
       i += static_cast<std::size_t>(samples_per_symbol)) {
    isi += std::abs(taps[center - i]);
  }
  for (std::size_t i = static_cast<std::size_t>(samples_per_symbol);
       center + i < taps.size();
       i += static_cast<std::size_t>(samples_per_symbol)) {
    isi += std::abs(taps[center + i]);
  }
  return isi / peak;
}

double symbol_rate_for_channel_hz(double beta, double channel_hz) {
  assert(channel_hz > 0.0);
  return channel_hz / (1.0 + beta);
}

}  // namespace mmtag::phy
