// Complex-baseband sample buffers and AWGN.
//
// The waveform layer lets the benches validate, at sample level, the
// shortcut the paper takes analytically: "ASK modulation requires SNR of
// 7 dB to achieve BER of 1e-3" (Sec. 8). Signals are equivalent-baseband
// complex samples at the symbol-processing rate.
#pragma once

#include <complex>
#include <random>
#include <span>
#include <vector>

namespace mmtag::phy {

using Complex = std::complex<double>;
using Waveform = std::vector<Complex>;

/// Mean sample power of `samples` (sum |x|^2 / N). Empty input returns 0.
[[nodiscard]] double mean_power(std::span<const Complex> samples);

/// Add circularly-symmetric complex Gaussian noise of total power
/// `noise_power` (variance split evenly over I and Q) in place.
void add_awgn(Waveform& samples, double noise_power, std::mt19937_64& rng);

/// Noise power that yields `snr_db` against a signal of power
/// `signal_power`.
[[nodiscard]] double noise_power_for_snr(double signal_power, double snr_db);

}  // namespace mmtag::phy
