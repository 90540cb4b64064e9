#include "src/phys/noise.hpp"

#include <cassert>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::phys {

NoiseModel::NoiseModel(double temperature_k, double noise_figure_db)
    : temperature_k_(temperature_k), noise_figure_db_(noise_figure_db) {
  assert(temperature_k > 0.0);
  assert(noise_figure_db >= 0.0);
}

NoiseModel NoiseModel::mmtag_reader() {
  return NoiseModel(kRoomTemperatureK, kMmTagReaderNoiseFigureDb);
}

double NoiseModel::power_w(double bandwidth_hz) const {
  assert(bandwidth_hz > 0.0);
  const double thermal = kBoltzmann * temperature_k_ * bandwidth_hz;
  return thermal * db_to_ratio(noise_figure_db_);
}

double NoiseModel::power_dbm(double bandwidth_hz) const {
  return watts_to_dbm(power_w(bandwidth_hz));
}


}  // namespace mmtag::phys
