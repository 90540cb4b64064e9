#include "src/phy/ook.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "src/kern/kern.hpp"
#include "src/phys/units.hpp"

namespace mmtag::phy {

OokModulator::OokModulator(int samples_per_symbol, double modulation_depth_db)
    : samples_per_symbol_(samples_per_symbol),
      residual_(phys::db_to_amplitude_ratio(-modulation_depth_db)) {
  assert(samples_per_symbol_ >= 1);
  assert(modulation_depth_db >= 0.0);
}

Waveform OokModulator::modulate(const BitVector& bits) const {
  Waveform out;
  out.reserve(bits.size() * static_cast<std::size_t>(samples_per_symbol_));
  for (const bool bit : bits) {
    // Paper convention: '0' -> switches off -> reflect -> high amplitude.
    const double amplitude = bit ? residual_ : 1.0;
    for (int s = 0; s < samples_per_symbol_; ++s) {
      out.emplace_back(amplitude, 0.0);
    }
  }
  return out;
}

OokDemodulator::OokDemodulator(int samples_per_symbol,
                               OokDetection detection)
    : samples_per_symbol_(samples_per_symbol), detection_(detection) {
  assert(samples_per_symbol_ >= 1);
}

std::vector<double> OokDemodulator::symbol_statistics(
    std::span<const Complex> samples) const {
  const std::size_t symbols =
      samples.size() / static_cast<std::size_t>(samples_per_symbol_);
  std::vector<double> stats(symbols);
  if (symbols == 0) return stats;
  // Integrate-and-dump on the dispatch kernels, then reduce each symbol
  // sum to its soft statistic.
  const kern::Kernels& kernels = kern::dispatch();
  std::vector<Complex> sums(symbols);
  kernels.block_sum_complex(samples.data(), symbols,
                            static_cast<std::size_t>(samples_per_symbol_),
                            sums.data());
  if (detection_ == OokDetection::kCoherent) {
    for (std::size_t k = 0; k < symbols; ++k) {
      stats[k] = sums[k].real() / samples_per_symbol_;
    }
  } else {
    kernels.abs_complex(sums.data(), stats.data(), symbols);
    for (std::size_t k = 0; k < symbols; ++k) {
      stats[k] /= samples_per_symbol_;
    }
  }
  return stats;
}

BitVector OokDemodulator::demodulate(std::span<const Complex> samples) const {
  const std::vector<double> stats = symbol_statistics(samples);
  if (stats.empty()) return {};
  // Blind threshold: midpoint between the means of the lower and upper
  // halves of the sorted statistics. Works for any reasonably balanced bit
  // stream (framing guarantees preamble symbols of both kinds).
  std::vector<double> sorted = stats;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t half = sorted.size() / 2;
  const double low_mean =
      std::accumulate(sorted.begin(), sorted.begin() + half, 0.0) /
      std::max<std::size_t>(1, half);
  const double high_mean =
      std::accumulate(sorted.begin() + half, sorted.end(), 0.0) /
      std::max<std::size_t>(1, sorted.size() - half);
  const double threshold = (low_mean + high_mean) / 2.0;
  // Branch-free hard slicer.
  std::vector<std::uint8_t> hard(stats.size());
  kern::dispatch().threshold_below(stats.data(), stats.size(), threshold,
                                   hard.data());
  BitVector bits(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) bits[i] = hard[i] != 0;
  return bits;
}

std::size_t hamming_distance(const BitVector& a, const BitVector& b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t errors = std::max(a.size(), b.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) ++errors;
  }
  return errors;
}

}  // namespace mmtag::phy
