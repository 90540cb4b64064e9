// Hardware impairment stages (DESIGN.md Sec. 16, docs/IMPAIRMENTS.md).
//
// Each stage mutates a complex-baseband waveform in place. The contracts
// that make a pipeline of stages deterministic:
//
//   * Fixed stream ordinals. Each stochastic stage owns a compile-time
//     ordinal (phase noise = 1, ADC = 3; 0 and 2 belong to the
//     deterministic PA and IQ stages) and draws randomness only from
//     mt19937_64(sim::derive_seed(seed, ordinal)). Toggling a stage on
//     or off therefore never shifts another stage's stream.
//   * Seed-pure application. apply() is const and uses no state other
//     than the ctor parameters and the passed seed, so the same
//     (waveform, seed) pair always yields the same bits regardless of
//     thread, call order, or how many other entities were processed.
//   * Kernel-exact arithmetic. Each stage precomputes its derived
//     constants in the constructor (the only place transcendentals like
//     tan/exp10 run for the deterministic stages) and applies the
//     per-sample math through kern::dispatch() kernels restricted to
//     exactly-rounded IEEE ops, so enabled runs are bit-identical across
//     scalar/SSE4.2/AVX2 backends.
//
// A disabled stage's apply() is a guaranteed no-op: no RNG draws, no
// sample writes. Each stage's evm_squared() feeds the loss decomposition
// in loss.hpp.
#pragma once

#include <cstdint>

#include "src/impair/config.hpp"
#include "src/phy/waveform.hpp"

namespace mmtag::impair {

/// Rapp AM/AM (p = 2) + rational AM/PM power-amplifier stage.
/// Transmit side, deterministic.
class PaStage {
 public:
  /// Precomputes 1/Asat^2 from the backoff and the AM/PM curve
  /// coefficients from the rotation-at-saturation spec.
  explicit PaStage(const PaParams& params);

  /// Mutate `samples` in place.
  void apply(phy::Waveform& samples) const;
  /// Small-signal EVM^2 against a unit-power signal (linear ratio).
  [[nodiscard]] double evm_squared() const { return evm_squared_; }

  /// Compressive gain g(A) of the Rapp curve at amplitude `amplitude`
  /// (reference helper for tests; the kernel computes the same bits).
  [[nodiscard]] double gain_at(double amplitude) const;
  /// AM/PM rotation [radians] at amplitude `amplitude`.
  [[nodiscard]] double phase_at(double amplitude) const;

 private:
  PaParams params_;
  double inv_sat2_ = 0.0;     ///< 1 / Asat^2 for a unit-power input.
  double k_pm_ = 0.0;         ///< AM/PM tangent-half-angle numerator gain.
  double b_pm_ = 0.0;         ///< AM/PM denominator bend (= 1/Asat^2).
  double evm_squared_ = 0.0;  ///< |g(1) e^{j theta(1)} - 1|^2.
};

/// Wiener + white LO phase-noise stage. Receive side, stream ordinal 1,
/// stochastic: coefficients cos/sin(phi_n) are generated in scalar code
/// from the stage's derived stream, then applied with the exact
/// mul_complex kernel.
class PhaseNoiseStage {
 public:
  /// Precomputes the per-sample Wiener increment sigma and the white
  /// floor sigma from the linewidth and sample rate.
  explicit PhaseNoiseStage(const PhaseNoiseParams& params);

  /// Mutate `samples` in place, drawing from the stream derived from the
  /// per-(epoch, entity) base `seed` and ordinal 1.
  void apply(phy::Waveform& samples, std::uint64_t seed) const;
  /// Small-signal EVM^2 against a unit-power signal (linear ratio).
  [[nodiscard]] double evm_squared() const { return evm_squared_; }

 private:
  PhaseNoiseParams params_;
  double wiener_sigma_ = 0.0;
  double white_sigma_ = 0.0;
  double evm_squared_ = 0.0;
};

/// Receive IQ-imbalance stage y = mu x + nu conj(x). Receive side,
/// deterministic.
class IqImbalanceStage {
 public:
  /// Precomputes mu and nu from the gain/phase mismatch.
  explicit IqImbalanceStage(const IqImbalanceParams& params);

  /// Mutate `samples` in place.
  void apply(phy::Waveform& samples) const;
  /// Small-signal EVM^2 against a unit-power signal (linear ratio).
  [[nodiscard]] double evm_squared() const { return evm_squared_; }

  /// Direct-path coefficient mu.
  [[nodiscard]] phy::Complex mu() const { return mu_; }
  /// Image-path coefficient nu (|nu/mu|^2 is the image power ratio).
  [[nodiscard]] phy::Complex nu() const { return nu_; }

 private:
  IqImbalanceParams params_;
  phy::Complex mu_{1.0, 0.0};
  phy::Complex nu_{0.0, 0.0};
  double evm_squared_ = 0.0;
};

/// ADC mid-tread quantization + aperture-jitter stage. Receive side,
/// stream ordinal 3; stochastic only when jitter_ps_rms > 0.
class AdcStage {
 public:
  /// Precomputes the quantizer step from bits/full-scale and the
  /// jitter-noise sigma from the slew-rate model.
  explicit AdcStage(const AdcParams& params);

  /// Mutate `samples` in place; the jitter draws come from the stream
  /// derived from `seed` and ordinal 3.
  void apply(phy::Waveform& samples, std::uint64_t seed) const;
  /// Small-signal EVM^2 against a unit-power signal (linear ratio).
  [[nodiscard]] double evm_squared() const { return evm_squared_; }

  /// Quantizer step per I/Q rail.
  [[nodiscard]] double step() const { return step_; }

 private:
  AdcParams params_;
  double step_ = 0.0;
  double inv_step_ = 0.0;
  double jitter_sigma_ = 0.0;
  double evm_squared_ = 0.0;
};

}  // namespace mmtag::impair
