// Azimuth radiation patterns.
//
// The paper's tag is a *linear* array scanned in one plane, and its reader
// steers in azimuth (Fig. 2), so the whole simulator works in the azimuth
// plane. A pattern maps an azimuth angle (radians, 0 = boresight, positive
// counter-clockwise) to a power gain in dBi. Out-of-plane behaviour is
// folded into the boresight gain figure.
#pragma once

namespace mmtag::antenna {

/// Interface: azimuth power-gain pattern of a single radiator.
class Pattern {
 public:
  virtual ~Pattern() = default;

  /// Power gain at azimuth `angle_rad` [dBi].
  [[nodiscard]] virtual double gain_dbi(double angle_rad) const = 0;

  /// Linear *amplitude* (field) gain at `angle_rad`: sqrt of linear power
  /// gain. Convenience used by array superposition.
  [[nodiscard]] double amplitude(double angle_rad) const;
};

/// Isotropic radiator (0 dBi everywhere). Reference for tests.
class IsotropicPattern final : public Pattern {
 public:
  [[nodiscard]] double gain_dbi(double /*angle_rad*/) const override;
};

/// Single microstrip patch: broadside beam with a cos^q(theta) power shape,
/// no radiation behind the ground plane. Default boresight gain 5 dBi and
/// q = 2 are typical for a thin-substrate rectangular patch.
class PatchPattern final : public Pattern {
 public:
  explicit PatchPattern(double boresight_gain_dbi = 5.0, double exponent = 2.0);

  [[nodiscard]] double gain_dbi(double angle_rad) const override;

  [[nodiscard]] double boresight_gain_dbi() const { return boresight_dbi_; }

 private:
  double boresight_dbi_;
  double exponent_;
  double floor_dbi_;  ///< Back-lobe floor (ground-plane leakage).
};

/// Directional horn approximated by a Gaussian main lobe of a given
/// half-power beamwidth plus a side-lobe floor. This models the reader's
/// standard-gain horns (paper Sec. 7).
class HornPattern final : public Pattern {
 public:
  HornPattern(double boresight_gain_dbi, double half_power_beamwidth_deg,
              double sidelobe_floor_dbi = -10.0);

  /// 20 dBi / 18 degree horn typical of 24 GHz standard-gain horns.
  [[nodiscard]] static HornPattern mmtag_reader_horn();

  [[nodiscard]] double gain_dbi(double angle_rad) const override;

  [[nodiscard]] double boresight_gain_dbi() const { return boresight_dbi_; }
  [[nodiscard]] double half_power_beamwidth_deg() const { return hpbw_deg_; }

 private:
  double boresight_dbi_;
  double hpbw_deg_;
  double floor_dbi_;
};

}  // namespace mmtag::antenna
