#include "src/core/van_atta.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::core {

VanAttaArray::VanAttaArray(Config config, em::PatchElement element_model,
                           std::vector<em::TransmissionLine> pair_lines)
    : config_(config),
      element_model_(element_model),
      pair_lines_(std::move(pair_lines)),
      geometry_(antenna::UniformLinearArray::half_wavelength(
          config.elements, config.frequency_hz)),
      element_pattern_() {
  assert(config_.elements >= 1);
  assert(config_.frequency_hz > 0.0);
  [[maybe_unused]] const std::size_t pairs =
      (static_cast<std::size_t>(config_.elements) + 1) / 2;
  assert(pair_lines_.size() == pairs &&
         "one transmission line per mirrored element pair");
}

VanAttaArray VanAttaArray::mmtag_prototype() {
  return with_elements(phys::kMmTagPrototypeElements);
}

VanAttaArray VanAttaArray::with_elements(int elements) {
  Config config;
  config.elements = elements;
  config.frequency_hz = phys::kMmTagCarrierHz;
  // Equal-length interconnects, one guided wavelength each: the common
  // phase phi of paper Eq. (4). (Any equal length works; one lambda_g keeps
  // losses realistic for the 60 x 45 mm board.)
  const std::size_t pairs = (static_cast<std::size_t>(elements) + 1) / 2;
  em::TransmissionLine reference = em::TransmissionLine::mmtag_interconnect(0.0);
  const double length = reference.guided_wavelength_m(config.frequency_hz);
  std::vector<em::TransmissionLine> lines;
  lines.reserve(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    lines.push_back(em::TransmissionLine::mmtag_interconnect(length));
  }
  return VanAttaArray(config, em::PatchElement::mmtag(), std::move(lines));
}

int VanAttaArray::pair_of(int n) const {
  assert(n >= 0 && n < config_.elements);
  return config_.elements - 1 - n;
}

Complex VanAttaArray::reradiated_field(double theta_in_rad,
                                       double theta_out_rad,
                                       double frequency_hz) const {
  // Vectorized signal flow:
  //   incident pickup -> switch/feed coupling -> mirrored line routing ->
  //   switch/feed coupling -> far-field projection toward theta_out.
  const double k0 = phys::wavenumber_rad_per_m(frequency_hz);
  const double psi_in = k0 * geometry_.spacing_m() * std::sin(theta_in_rad);
  const double psi_out = k0 * geometry_.spacing_m() * std::sin(theta_out_rad);
  const double a_in = element_pattern_.amplitude(theta_in_rad);
  const double a_out = element_pattern_.amplitude(theta_out_rad);
  const int n_elems = config_.elements;
  const std::size_t size = static_cast<std::size_t>(n_elems);

  // Incident pickup per element (paper Eq. 1): x_n = e^{-j psi_in n}.
  std::vector<Complex> v(size);
  for (int n = 0; n < n_elems; ++n) {
    v[static_cast<std::size_t>(n)] = std::polar(1.0, -psi_in * n);
  }

  // Into the feeds (the switch state gates every element)...
  const Complex feed = element_model_.feed_coupling(switches_, frequency_hz);
  for (int n = 0; n < n_elems; ++n) v[static_cast<std::size_t>(n)] *= feed;

  // ... through the mirrored interconnects (paper Eq. 4:
  // y'_n = e^{j phi} x_{N-1-n}, with per-pair loss included) ...
  std::vector<Complex> y(size);
  for (int rx = 0; rx < n_elems; ++rx) {
    const int tx = pair_of(rx);
    const std::size_t pair_index =
        static_cast<std::size_t>(rx < tx ? rx : tx);
    const Complex line =
        pair_lines_[pair_index].matched_transfer(frequency_hz);
    y[static_cast<std::size_t>(tx)] =
        v[static_cast<std::size_t>(rx)] * line;
  }

  // ... out through the feeds again ...
  for (int n = 0; n < n_elems; ++n) y[static_cast<std::size_t>(n)] *= feed;

  // ... and projected onto the far field toward theta_out.
  Complex total(0.0, 0.0);
  for (int n = 0; n < n_elems; ++n) {
    total += y[static_cast<std::size_t>(n)] * std::polar(1.0, -psi_out * n);
  }
  return total * a_in * a_out;
}

Complex VanAttaArray::reradiated_field(double theta_in_rad,
                                       double theta_out_rad) const {
  return reradiated_field(theta_in_rad, theta_out_rad, config_.frequency_hz);
}

double VanAttaArray::monostatic_gain_db(double theta_rad) const {
  return bistatic_gain_db(theta_rad, theta_rad);
}

double VanAttaArray::bistatic_gain_db(double theta_in_rad,
                                      double theta_out_rad) const {
  const double power =
      std::norm(reradiated_field(theta_in_rad, theta_out_rad));
  constexpr double kFloorDb = -100.0;
  if (power <= 1e-10) return kFloorDb;
  return phys::ratio_to_db(power);
}

double VanAttaArray::peak_reradiation_direction_rad(
    double theta_in_rad) const {
  const auto power_at = [&](double theta_out) {
    return std::norm(reradiated_field(theta_in_rad, theta_out));
  };
  // Coarse sweep across the visible half-plane...
  const double lo_limit = -phys::kPi / 2.0;
  const double hi_limit = phys::kPi / 2.0;
  constexpr int kSteps = 720;
  double best_theta = 0.0;
  double best_power = -1.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double theta = lo_limit + (hi_limit - lo_limit) * i / kSteps;
    const double p = power_at(theta);
    if (p > best_power) {
      best_power = p;
      best_theta = theta;
    }
  }
  // ... then golden-section refinement in the winning bracket.
  const double span = (hi_limit - lo_limit) / kSteps;
  double lo = best_theta - span;
  double hi = best_theta + span;
  constexpr double kGolden = 0.381966011250105;  // 2 - golden ratio.
  for (int i = 0; i < 60; ++i) {
    const double m1 = lo + kGolden * (hi - lo);
    const double m2 = hi - kGolden * (hi - lo);
    if (power_at(m1) > power_at(m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return (lo + hi) / 2.0;
}

double VanAttaArray::retro_beamwidth_deg(double theta_in_rad) const {
  const double peak_dir = peak_reradiation_direction_rad(theta_in_rad);
  const double peak_power =
      std::norm(reradiated_field(theta_in_rad, peak_dir));
  assert(peak_power > 0.0);
  const double half_power = peak_power / 2.0;
  const auto power_at = [&](double theta_out) {
    return std::norm(reradiated_field(theta_in_rad, theta_out));
  };
  const auto find_crossing = [&](double direction) {
    const double step = phys::deg_to_rad(0.05);
    double theta = peak_dir;
    while (std::abs(theta - peak_dir) < phys::kPi / 2.0) {
      const double next = theta + direction * step;
      if (power_at(next) < half_power) {
        double lo = theta;
        double hi = next;
        for (int i = 0; i < 40; ++i) {
          const double mid = (lo + hi) / 2.0;
          if (power_at(mid) >= half_power) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        return (lo + hi) / 2.0;
      }
      theta = next;
    }
    return theta;
  };
  const double left = find_crossing(-1.0);
  const double right = find_crossing(+1.0);
  return phys::rad_to_deg(right - left);
}

double VanAttaArray::link_side_gain_dbi() const {
  return element_pattern_.boresight_gain_dbi() +
         phys::ratio_to_db(static_cast<double>(config_.elements));
}

}  // namespace mmtag::core
