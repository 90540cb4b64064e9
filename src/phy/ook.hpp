// On-off-keying modem — the tag-to-reader modulation (paper Sec. 6).
//
// Tag side: bit '0' = reflect (carrier present at the reader), bit '1' =
// absorb (no carrier). The modulator emits `samples_per_symbol` samples per
// bit; the demodulator is an integrate-and-dump matched filter followed by
// a threshold, with the threshold either fixed or estimated from the
// received waveform (the reader has no pilot — it splits the observed
// amplitude clusters, as a spectrum-analyzer-based reader would).
//
// NOTE on polarity: the paper maps '0' -> reflect; `OokModulator` follows
// that convention via `kReflectAmplitudeForZero`.
#pragma once

#include <vector>

#include "src/phy/waveform.hpp"

namespace mmtag::phy {

using BitVector = std::vector<bool>;

class OokModulator {
 public:
  /// `samples_per_symbol` >= 1; `modulation_depth_db` is the finite on/off
  /// amplitude contrast of a real tag (60 dB ~ ideal; Fig. 6's element gives
  /// ~20-30 dB). Depth is applied to the absorb state's residual amplitude.
  explicit OokModulator(int samples_per_symbol = 8,
                        double modulation_depth_db = 60.0);

  /// Map bits to unit-amplitude baseband samples ('0' -> reflect = high).
  [[nodiscard]] Waveform modulate(const BitVector& bits) const;

  [[nodiscard]] int samples_per_symbol() const { return samples_per_symbol_; }
  [[nodiscard]] double residual_amplitude() const { return residual_; }

 private:
  int samples_per_symbol_;
  double residual_;  ///< Absorb-state amplitude (10^(-depth/20)).
};

/// Decision statistic of the OOK receiver.
enum class OokDetection {
  /// Real part of the matched-filter output: assumes carrier phase
  /// recovery, achieves the textbook Pb = Q(sqrt(SNR)).
  kCoherent,
  /// Magnitude of the matched-filter output: what a spectrum-analyzer
  /// (power-detecting) reader actually does; ~1-2 dB worse.
  kEnvelope,
};

class OokDemodulator {
 public:
  explicit OokDemodulator(int samples_per_symbol = 8,
                          OokDetection detection = OokDetection::kCoherent);

  /// Demodulate `samples` into bits. The decision statistic per symbol is
  /// the magnitude of the integrate-and-dump output; the threshold is the
  /// midpoint between the means of the upper and lower halves of the
  /// statistics (blind two-cluster split).
  [[nodiscard]] BitVector demodulate(std::span<const Complex> samples) const;

  [[nodiscard]] int samples_per_symbol() const { return samples_per_symbol_; }
  [[nodiscard]] OokDetection detection() const { return detection_; }

 private:
  /// Integrate-and-dump decision statistics, one per complete symbol.
  [[nodiscard]] std::vector<double> symbol_statistics(
      std::span<const Complex> samples) const;

  int samples_per_symbol_;
  OokDetection detection_;
};

/// Count bit positions where `a` and `b` differ (up to the shorter length),
/// plus any length mismatch counted as errors.
[[nodiscard]] std::size_t hamming_distance(const BitVector& a,
                                           const BitVector& b);

}  // namespace mmtag::phy
