// Thermal-noise model for the reader's receive chain.
//
// The paper (footnote 4) computes the reader's noise floor from thermal
// noise at room temperature (300 K), the receiver bandwidth, and a typical
// mmWave noise figure of NF = 5 dB:
//
//     N = k * T * B * F
//
// i.e. in dBm:  N_dbm = -174 dBm/Hz (approx, at 290 K) + 10 log10(B) + NF.
// We keep temperature explicit instead of hard-coding -174 so tests can
// check the 300 K value the paper actually uses.
#pragma once

namespace mmtag::phys {

/// Receiver noise model: thermal floor plus noise figure.
class NoiseModel {
 public:
  /// `temperature_k` — physical temperature of the source resistance.
  /// `noise_figure_db` — receiver noise figure, >= 0 dB.
  NoiseModel(double temperature_k, double noise_figure_db);

  /// Noise model with the paper's parameters: T = 300 K, NF = 5 dB.
  [[nodiscard]] static NoiseModel mmtag_reader();

  /// Total noise power in a bandwidth of `bandwidth_hz` [W].
  [[nodiscard]] double power_w(double bandwidth_hz) const;

  /// Total noise power in a bandwidth of `bandwidth_hz` [dBm].
  [[nodiscard]] double power_dbm(double bandwidth_hz) const;

  [[nodiscard]] double temperature_k() const { return temperature_k_; }
  [[nodiscard]] double noise_figure_db() const { return noise_figure_db_; }

 private:
  double temperature_k_;
  double noise_figure_db_;
};

}  // namespace mmtag::phys
