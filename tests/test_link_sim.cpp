// Monte-Carlo link-simulation tests (src/sim/link_sim) — experiment E4's
// machinery: the sample-level modem must agree with the closed forms.
#include "src/sim/link_sim.hpp"

#include <gtest/gtest.h>

#include "src/phy/ber.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::sim {
namespace {

TEST(MonteCarloLink, VeryHighSnrIsErrorFree) {
  auto rng = make_rng(61);
  const MonteCarloLink link{MonteCarloLink::Params{}};
  const BerMeasurement m = link.measure_ber(30.0, rng);
  EXPECT_EQ(m.bit_errors, 0u);
  EXPECT_GE(m.bits_sent, link.params().min_bits);
}

TEST(MonteCarloLink, VeryLowSnrApproachesCoinFlip) {
  auto rng = make_rng(62);
  const MonteCarloLink link{MonteCarloLink::Params{}};
  const BerMeasurement m = link.measure_ber(-15.0, rng);
  EXPECT_GT(m.ber(), 0.2);
  EXPECT_LT(m.ber(), 0.55);
}

TEST(MonteCarloLink, BerMonotoneInSnr) {
  auto rng = make_rng(63);
  const MonteCarloLink link{MonteCarloLink::Params{}};
  const double low = link.measure_ber(2.0, rng).ber();
  const double mid = link.measure_ber(6.0, rng).ber();
  const double high = link.measure_ber(10.0, rng).ber();
  EXPECT_GT(low, mid);
  EXPECT_GT(mid, high);
}

TEST(MonteCarloLink, FrameErrorRateEdges) {
  const MonteCarloLink link{MonteCarloLink::Params{}};
  EXPECT_DOUBLE_EQ(link.measure_fer_point(30.0, 20, 96, 64).fer(), 0.0);
  EXPECT_GT(link.measure_fer_point(-10.0, 20, 96, 65).fer(), 0.9);
}

TEST(MonteCarloLink, EnvelopeDetectionCostsSnr) {
  // The spectrum-analyzer-style envelope detector is measurably worse than
  // coherent detection at the same symbol SNR.
  auto rng_a = make_rng(66);
  auto rng_b = make_rng(66);
  MonteCarloLink::Params params;
  params.min_bits = 100'000;
  const MonteCarloLink link{params};
  const double coherent = link.measure_ber(6.0, rng_a).ber();

  // Re-run the same experiment with an envelope demodulator, inline.
  const phy::OokModulator mod(params.samples_per_symbol,
                              params.modulation_depth_db);
  const phy::OokDemodulator envelope(params.samples_per_symbol,
                                     phy::OokDetection::kEnvelope);
  std::bernoulli_distribution coin(0.5);
  std::size_t errors = 0;
  std::size_t sent = 0;
  while (sent < params.min_bits) {
    phy::BitVector bits(params.block_bits);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng_b);
    phy::Waveform wave = mod.modulate(bits);
    phy::add_awgn(wave,
                  phy::noise_power_for_snr(phy::mean_power(wave), 6.0) *
                      params.samples_per_symbol,
                  rng_b);
    errors += phy::hamming_distance(bits, envelope.demodulate(wave));
    sent += bits.size();
  }
  const double envelope_ber =
      static_cast<double>(errors) / static_cast<double>(sent);
  EXPECT_GT(envelope_ber, coherent);
}

// The E4 agreement test: the measured waveform-level BER must track the
// coherent-OOK closed form within Monte-Carlo tolerance across the
// threshold region. This validates the analytic shortcut the paper's
// Fig. 7 rate labels rely on.
struct BerPoint {
  double snr_db;
  double tolerance_factor;  ///< Allowed multiplicative deviation.
};

class BerAgreementTest : public ::testing::TestWithParam<BerPoint> {};

TEST_P(BerAgreementTest, MatchesClosedForm) {
  const BerPoint point = GetParam();
  auto rng = make_rng(65 + static_cast<unsigned>(point.snr_db * 10));
  MonteCarloLink::Params params;
  params.min_bits = 200'000;
  const MonteCarloLink link{params};
  const double measured = link.measure_ber(point.snr_db, rng).ber();
  const double predicted = phy::ook_coherent_ber(point.snr_db);
  EXPECT_GT(measured, predicted / point.tolerance_factor);
  EXPECT_LT(measured, predicted * point.tolerance_factor);
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdRegion, BerAgreementTest,
    ::testing::Values(BerPoint{2.0, 1.4}, BerPoint{4.0, 1.4},
                      BerPoint{6.0, 1.5}, BerPoint{8.0, 1.8}));

}  // namespace
}  // namespace mmtag::sim
