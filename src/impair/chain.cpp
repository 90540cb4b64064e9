#include "src/impair/chain.hpp"

#include <string_view>

#include "src/obs/metrics.hpp"

namespace mmtag::impair {
namespace {

obs::Counter& counter(std::string_view name) {
  return obs::Registry::instance().counter(name);
}

// Per-stage application counters, one per call site. Only enabled stages
// record, so bypass runs leave the obs export bit-identical to the legacy
// chain.
void record_stage(obs::Counter& applies, std::size_t samples) {
  applies.add();
  static obs::Counter& total = counter("impair.stage.samples");
  total.add(static_cast<std::uint64_t>(samples));
}

}  // namespace

ImpairmentChain::ImpairmentChain() : ImpairmentChain(ImpairmentConfig::off()) {}

ImpairmentChain::ImpairmentChain(const ImpairmentConfig& config)
    : config_(config),
      pa_(config.pa),
      phase_noise_(config.phase_noise),
      iq_(config.iq),
      adc_(config.adc) {}

void ImpairmentChain::apply_tx(phy::Waveform& samples,
                               std::uint64_t /*seed*/) const {
  if (!config_.pa.enabled || samples.empty()) {
    return;
  }
  pa_.apply(samples);
  static obs::Counter& applies = counter("impair.stage.pa.applies");
  record_stage(applies, samples.size());
  static obs::Counter& calls = counter("impair.apply.tx");
  calls.add();
}

void ImpairmentChain::apply_rx(phy::Waveform& samples,
                               std::uint64_t seed) const {
  if (samples.empty()) {
    return;
  }
  bool any = false;
  if (config_.phase_noise.enabled) {
    phase_noise_.apply(samples, seed);
    static obs::Counter& applies = counter("impair.stage.phase_noise.applies");
    record_stage(applies, samples.size());
    any = true;
  }
  if (config_.iq.enabled) {
    iq_.apply(samples);
    static obs::Counter& applies = counter("impair.stage.iq.applies");
    record_stage(applies, samples.size());
    any = true;
  }
  if (config_.adc.enabled) {
    adc_.apply(samples, seed);
    static obs::Counter& applies = counter("impair.stage.adc.applies");
    record_stage(applies, samples.size());
    any = true;
  }
  if (any) {
    static obs::Counter& calls = counter("impair.apply.rx");
    calls.add();
  }
}

void ImpairmentChain::apply(phy::Waveform& samples, std::uint64_t seed) const {
  apply_tx(samples, seed);
  apply_rx(samples, seed);
}

double ImpairmentChain::evm_squared_total() const {
  double total = 0.0;
  if (config_.pa.enabled) total += pa_.evm_squared();
  if (config_.phase_noise.enabled) total += phase_noise_.evm_squared();
  if (config_.iq.enabled) total += iq_.evm_squared();
  if (config_.adc.enabled) total += adc_.evm_squared();
  return total;
}

}  // namespace mmtag::impair
