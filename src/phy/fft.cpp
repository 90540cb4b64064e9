#include "src/phy/fft.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/kern/kern.hpp"
#include "src/phys/constants.hpp"

namespace mmtag::phy {

namespace {

// Process-wide twiddle cache. A table for an n-point transform is the
// concatenation of the per-stage twiddles (stage `len` contributes
// w_k = exp(sign*2*pi*i*k/len) for k < len/2), n-1 entries total, laid
// out contiguously in stage order so the butterfly kernel streams them.
// Tables are immutable once published; shared_ptr keeps a table alive
// for callers that grabbed it before a concurrent clear().
struct TwiddleCache {
  std::mutex mutex;
  std::map<std::pair<std::size_t, bool>,
           std::shared_ptr<const std::vector<Complex>>>
      tables;
  std::atomic<std::uint64_t> builds{0};
};

TwiddleCache& twiddle_cache() {
  static TwiddleCache cache;
  return cache;
}

std::shared_ptr<const std::vector<Complex>> twiddles_for(std::size_t n,
                                                         bool inverse) {
  TwiddleCache& cache = twiddle_cache();
  const auto key = std::make_pair(n, inverse);
  std::lock_guard<std::mutex> lock(cache.mutex);
  if (const auto it = cache.tables.find(key); it != cache.tables.end()) {
    return it->second;
  }
  auto table = std::make_shared<std::vector<Complex>>();
  table->reserve(n - 1);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      table->push_back(std::polar(
          1.0, sign * phys::kTwoPi * static_cast<double>(k) /
                   static_cast<double>(len)));
    }
  }
  cache.builds.fetch_add(1, std::memory_order_relaxed);
  cache.tables.emplace(key, table);
  return table;
}

}  // namespace

void fft(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  assert(n >= 1 && (n & (n - 1)) == 0 && "size must be a power of two");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterfly stages on the dispatch table, twiddles from the cache.
  const auto twiddles = twiddles_for(n, inverse);
  const kern::Kernels& kernels = kern::dispatch();
  std::size_t stage_offset = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    kernels.butterfly_pass(data.data(), n, len,
                           twiddles->data() + stage_offset);
    stage_offset += len / 2;
  }

  if (inverse) {
    kernels.scale_real(data.data(), 1.0 / static_cast<double>(n), n);
  }
}

void fft_twiddle_cache_clear() {
  TwiddleCache& cache = twiddle_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.tables.clear();
}

std::uint64_t fft_twiddle_cache_builds() {
  return twiddle_cache().builds.load(std::memory_order_relaxed);
}

std::size_t fft_twiddle_cache_entries() {
  TwiddleCache& cache = twiddle_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.tables.size();
}

std::size_t next_pow2(std::size_t n) {
  assert(n >= 1);
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<double> power_spectrum(std::span<const Complex> samples,
                                   double sample_rate_hz,
                                   std::vector<double>& frequencies_hz) {
  assert(!samples.empty());
  assert(sample_rate_hz > 0.0);
  const std::size_t n = next_pow2(samples.size());
  std::vector<Complex> padded(n, Complex(0.0, 0.0));
  // Hann window over the real sample span.
  const std::size_t m = samples.size();
  for (std::size_t i = 0; i < m; ++i) {
    // The Hann taper is zero at both endpoints, so for m <= 2 every
    // sample is an endpoint and the window would erase the signal; fall
    // back to a rectangular window there to keep the energy.
    const double window =
        m <= 2 ? 1.0
               : 0.5 * (1.0 - std::cos(phys::kTwoPi * i /
                                       static_cast<double>(m - 1)));
    padded[i] = samples[i] * window;
  }
  fft(padded);

  // Reorder to ascending frequency: [-fs/2, fs/2).
  std::vector<double> spectrum(n);
  frequencies_hz.resize(n);
  double peak = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t source = (i + n / 2) % n;
    spectrum[i] = std::norm(padded[source]);
    frequencies_hz[i] =
        (static_cast<double>(i) - static_cast<double>(n / 2)) *
        sample_rate_hz / static_cast<double>(n);
    peak = std::max(peak, spectrum[i]);
  }
  if (peak > 0.0) {
    for (double& s : spectrum) s /= peak;
  }
  return spectrum;
}

}  // namespace mmtag::phy
