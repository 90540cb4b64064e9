#include "src/net/rate_control.hpp"

#include <cassert>
#include <cmath>

#include "src/phy/ber.hpp"

namespace mmtag::net {

AckRateController::AckRateController(const phy::RateTable* table,
                                     Params params,
                                     double received_power_dbm)
    : table_(table), params_(params), power_dbm_(received_power_dbm) {
  assert(table_ != nullptr && !table_->tiers().empty());
  assert(params_.history_alpha > 0.0 && params_.history_alpha <= 1.0);
  assert(params_.down_threshold <= params_.up_threshold);
  assert(params_.up_dwell_rounds >= 1);
  // Open-loop start: fastest tier the link budget clears, else the
  // slowest one (tiers are sorted by descending bit rate).
  const std::size_t tiers = table_->tiers().size();
  tier_ = tiers - 1;
  for (std::size_t i = 0; i < tiers; ++i) {
    if (power_dbm_ >= table_->required_power_dbm(table_->tiers()[i])) {
      tier_ = i;
      break;
    }
  }
}

const phy::RateTier& AckRateController::tier() const {
  return table_->tiers()[tier_];
}

bool AckRateController::on_ack_round(int delivered, int transmitted) {
  if (transmitted <= 0) return false;
  const double ratio =
      static_cast<double>(delivered) / static_cast<double>(transmitted);
  ewma_ = (1.0 - params_.history_alpha) * ewma_ +
          params_.history_alpha * ratio;

  if (ewma_ < params_.down_threshold) {
    dwell_ = 0;
    if (tier_ + 1 < table_->tiers().size()) {
      ++tier_;
      ++switches_;
      // A fresh tier gets a fresh record — inheriting the failed tier's
      // EWMA would immediately downshift again through every tier.
      ewma_ = 1.0;
      return true;
    }
    return false;
  }

  if (ewma_ >= params_.up_threshold && tier_ > 0) {
    const phy::RateTier& faster = table_->tiers()[tier_ - 1];
    const bool snr_clears =
        power_dbm_ >=
        table_->required_power_dbm(faster) + params_.snr_margin_db;
    if (snr_clears) {
      if (++dwell_ >= params_.up_dwell_rounds) {
        --tier_;
        ++switches_;
        dwell_ = 0;
        // Probing a faster tier starts from a clean slate too: the first
        // bad rounds should demote it on their own evidence.
        ewma_ = 1.0;
        return true;
      }
      return false;
    }
  }
  dwell_ = 0;
  return false;
}

double packet_success_probability(const phy::RateTable& table,
                                  const phy::RateTier& tier,
                                  double received_power_dbm,
                                  std::size_t on_air_chips) {
  const double snr_db =
      received_power_dbm - table.noise().power_dbm(tier.bandwidth_hz);
  const double chip_error = phy::ook_coherent_ber(snr_db);
  return std::pow(1.0 - chip_error, static_cast<double>(on_air_chips));
}

}  // namespace mmtag::net
