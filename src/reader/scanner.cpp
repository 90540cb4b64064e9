#include "src/reader/scanner.hpp"

#include <utility>

#include "src/phys/units.hpp"

namespace mmtag::reader {

BeamScanner::BeamScanner(MmWaveReader reader, PowerDetector detector)
    : reader_(std::move(reader)), detector_(std::move(detector)) {}

BeamProbe BeamScanner::probe_beam(const antenna::Beam& beam,
                                  const core::MmTag& tag,
                                  const channel::Environment& env,
                                  const phy::RateTable& rates,
                                  std::mt19937_64& rng) {
  reader_.steer_to_world(beam.boresight_rad);
  const LinkReport link = reader_.evaluate_link(tag, env, rates);

  BeamProbe probe;
  probe.beam = beam;
  const double true_reflect_dbm = link.received_power_dbm;
  const double true_absorb_dbm =
      link.received_power_dbm - link.modulation_depth_db;
  probe.reflect_power_dbm = detector_.measure_dbm(true_reflect_dbm, rng);
  probe.absorb_power_dbm = detector_.measure_dbm(true_absorb_dbm, rng);
  probe.tag_detected = detector_.detects_modulation(probe.reflect_power_dbm,
                                                    probe.absorb_power_dbm);
  probe.achievable_rate_bps =
      probe.tag_detected ? rates.achievable_rate_bps(probe.reflect_power_dbm)
                         : 0.0;
  return probe;
}

ScanResult BeamScanner::scan(const std::vector<antenna::Beam>& codebook,
                             const core::MmTag& tag,
                             const channel::Environment& env,
                             const phy::RateTable& rates,
                             std::mt19937_64& rng) {
  ScanResult result;
  result.probes.reserve(codebook.size());
  double best_excursion_w = 0.0;
  for (const antenna::Beam& beam : codebook) {
    BeamProbe probe = probe_beam(beam, tag, env, rates, rng);
    ++result.probes_used;
    if (probe.tag_detected) {
      const double excursion_w =
          phys::dbm_to_watts(probe.reflect_power_dbm) -
          phys::dbm_to_watts(probe.absorb_power_dbm);
      if (excursion_w > best_excursion_w) {
        best_excursion_w = excursion_w;
        result.best_beam_index = static_cast<int>(result.probes.size());
      }
    }
    result.probes.push_back(std::move(probe));
  }
  return result;
}

}  // namespace mmtag::reader
