// Pulse-shaping tests (src/phy/pulse).
#include "src/phy/pulse.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace mmtag::phy {
namespace {

TEST(RaisedCosine, PeakIsUnityAndSymmetric) {
  const auto taps = raised_cosine_taps(0.5, 8, 6);
  const std::size_t center = taps.size() / 2;
  EXPECT_DOUBLE_EQ(taps[center], 1.0);
  for (std::size_t k = 1; k <= center; ++k) {
    EXPECT_NEAR(taps[center - k], taps[center + k], 1e-12);
  }
}

TEST(RaisedCosine, SingularityHandled) {
  // beta = 0.5: the t = +-1/(2*0.5) = +-1 T points hit the removable
  // singularity; the taps must be finite there.
  const auto taps = raised_cosine_taps(0.5, 8, 6);
  for (const double tap : taps) {
    EXPECT_TRUE(std::isfinite(tap));
  }
}

TEST(RaisedCosine, BetaZeroIsSinc) {
  const auto taps = raised_cosine_taps(0.0, 4, 8);
  const std::size_t center = taps.size() / 2;
  // sinc(0.5) = 2/pi at half a symbol.
  EXPECT_NEAR(taps[center + 2], 2.0 / 3.14159265358979, 1e-6);
}

TEST(Bandwidth, PaperCornerIsBetaOne) {
  // Rs = B/(1+beta); beta = 1 gives the paper's rate = B/2 (OOK, 1 b/sym).
  EXPECT_DOUBLE_EQ(symbol_rate_for_channel_hz(1.0, 2e9), 1e9);
  EXPECT_DOUBLE_EQ(symbol_rate_for_channel_hz(0.25, 2e9), 1.6e9);
}

// Nyquist criterion: the raised cosine has (numerically) zero ISI at
// symbol-spaced sampling instants for every roll-off.
class NyquistTest : public ::testing::TestWithParam<double> {};

TEST_P(NyquistTest, ZeroIsiAtSymbolInstants) {
  const double beta = GetParam();
  const auto taps = raised_cosine_taps(beta, 8, 10);
  EXPECT_LT(isi_at_symbol_instants(taps, 8), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Betas, NyquistTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 1.0));

// Half-symbol-offset sampling has plenty of ISI — the metric is sharp.
TEST(Isi, OffsetSamplingIsBad) {
  const auto taps = raised_cosine_taps(0.25, 8, 10);
  // Shift by half a symbol: treat the half-offset grid as "symbol
  // instants" by using a misaligned sps.
  double off_grid = 0.0;
  const std::size_t center = taps.size() / 2 + 4;  // +T/2.
  for (std::size_t i = 8; center >= i; i += 8) {
    off_grid += std::abs(taps[center - i]);
  }
  EXPECT_GT(off_grid, 0.1);
}

}  // namespace
}  // namespace mmtag::phy
