// Pulse shaping: what "rate = B/2" actually assumes.
//
// The paper maps reader bandwidth B to bit rate B/2 (2 GHz -> 1 Gbps).
// That is OOK with a raised-cosine pulse at full excess bandwidth
// (beta = 1): occupied bandwidth = (1 + beta) * Rs for a symbol rate Rs,
// so Rs = B / 2. Sharper filters (smaller beta) fit a faster symbol rate
// into the same channel at the cost of longer, more ISI-sensitive pulses
// and tighter timing. This module provides the raised-cosine pulse and an
// ISI metric so bench_a6 can quantify the trade.
#pragma once

#include <vector>

#include "src/phy/ook.hpp"
#include "src/phy/waveform.hpp"

namespace mmtag::phy {

/// Raised-cosine pulse taps: roll-off `beta` in [0, 1], `samples_per_symbol`
/// >= 2, spanning `span_symbols` symbols each side of the peak. Normalized
/// to unit peak.
[[nodiscard]] std::vector<double> raised_cosine_taps(double beta,
                                                     int samples_per_symbol,
                                                     int span_symbols = 6);

/// Worst-case inter-symbol interference of the pulse at symbol-spaced
/// sampling instants: sum |p(kT)| / p(0) over k != 0. Zero (numerically)
/// for any valid raised cosine — the Nyquist criterion.
[[nodiscard]] double isi_at_symbol_instants(std::span<const double> taps,
                                            int samples_per_symbol);

/// Symbol rate that fits in `channel_hz` at roll-off `beta`:
/// Rs = B / (1 + beta). beta = 1 reproduces the paper's B/2.
[[nodiscard]] double symbol_rate_for_channel_hz(double beta,
                                                double channel_hz);

}  // namespace mmtag::phy
