#include "src/impair/loss.hpp"

#include <cmath>

#include "src/impair/stages.hpp"
#include "src/obs/metrics.hpp"

namespace mmtag::impair {

double stage_loss_db(double evm_squared, double required_snr_db) {
  if (evm_squared <= 0.0) {
    return 0.0;
  }
  const double gamma = std::pow(10.0, required_snr_db / 10.0);
  const double floor = gamma * evm_squared;
  if (floor >= 1.0) {
    return kFloorLossDb;
  }
  const double loss = -10.0 * std::log10(1.0 - floor);
  return loss < kFloorLossDb ? loss : kFloorLossDb;
}

LossReport decompose(const ImpairmentConfig& config, double required_snr_db) {
  const double gamma = std::pow(10.0, required_snr_db / 10.0);

  LossReport report;
  report.required_snr_db = required_snr_db;
  report.residual_db = config.residual_db;

  double evm_total = 0.0;
  // Disabled stages report zeros; the chain skips them too.
  const auto add_stage = [&](std::string_view name, bool enabled,
                             double evm_squared) {
    StageLoss entry;
    entry.stage = name;
    entry.enabled = enabled;
    if (enabled) {
      entry.evm_squared = evm_squared;
      entry.loss_db = stage_loss_db(evm_squared, required_snr_db);
      entry.floor_limited = gamma * evm_squared >= 1.0;
      evm_total += evm_squared;
    }
    report.stages.push_back(entry);
  };
  add_stage("pa", config.pa.enabled, PaStage(config.pa).evm_squared());
  add_stage("phase_noise", config.phase_noise.enabled,
            PhaseNoiseStage(config.phase_noise).evm_squared());
  add_stage("iq", config.iq.enabled, IqImbalanceStage(config.iq).evm_squared());
  add_stage("adc", config.adc.enabled, AdcStage(config.adc).evm_squared());

  report.floor_limited = gamma * evm_total >= 1.0;
  report.modelled_db = stage_loss_db(evm_total, required_snr_db);
  report.total_db = report.modelled_db + report.residual_db;
  return report;
}

void record(const LossReport& report) {
  if constexpr (obs::kObsEnabled) {
    auto& registry = obs::Registry::instance();
    static obs::Counter& reports = registry.counter("impair.loss.reports");
    reports.add();
    for (const StageLoss& entry : report.stages) {
      if (!entry.enabled) {
        continue;
      }
      obs::Histogram* hist = nullptr;
      if (entry.stage == "pa") {
        static obs::Histogram& h = registry.histogram("impair.loss_mdb.pa");
        hist = &h;
      } else if (entry.stage == "phase_noise") {
        static obs::Histogram& h =
            registry.histogram("impair.loss_mdb.phase_noise");
        hist = &h;
      } else if (entry.stage == "iq") {
        static obs::Histogram& h = registry.histogram("impair.loss_mdb.iq");
        hist = &h;
      } else {
        static obs::Histogram& h = registry.histogram("impair.loss_mdb.adc");
        hist = &h;
      }
      hist->record(entry.loss_db * 1000.0);
    }
    static obs::Histogram& modelled =
        registry.histogram("impair.loss_mdb.modelled");
    modelled.record(report.modelled_db * 1000.0);
    static obs::Histogram& total = registry.histogram("impair.loss_mdb.total");
    total.record(report.total_db * 1000.0);
  } else {
    (void)report;
  }
}

phys::BackscatterLinkBudget impaired_budget(
    const phys::BackscatterLinkBudget& base, const ImpairmentConfig& config,
    double required_snr_db) {
  // Bypass contract: an all-off config with no residual changes nothing
  // and records nothing.
  if (!config.any_enabled() && config.residual_db == 0.0) {
    return base;
  }
  const LossReport report = decompose(config, required_snr_db);
  record(report);
  phys::BackscatterLinkBudget budget = base;
  budget.implementation_loss_db = report.total_db;
  return budget;
}

}  // namespace mmtag::impair
