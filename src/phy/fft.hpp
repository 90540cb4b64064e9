// Radix-2 FFT and spectrum estimation.
//
// The prototype's reader *is* a spectrum analyzer; this gives the library
// one too. Used to inspect modulated tag signals the way the paper's bench
// instrument displayed them.
#pragma once

#include <cstdint>
#include <vector>

#include "src/phy/waveform.hpp"

namespace mmtag::phy {

/// In-place iterative radix-2 decimation-in-time FFT. `data.size()` must
/// be a power of two. `inverse` applies the conjugate transform and 1/N
/// scaling, so fft(fft(x), true) == x.
///
/// Twiddle factors come from a process-wide size-keyed cache (built once
/// per (size, direction) and reused by every later transform of that
/// size); the butterfly stages run on the kern:: dispatch table.
void fft(std::vector<Complex>& data, bool inverse = false);

/// Drop every cached twiddle table (test hook; thread-safe — tables in
/// use by a concurrent fft() stay alive until it finishes).
void fft_twiddle_cache_clear();

/// Number of twiddle tables built since process start (monotonic; not
/// reset by fft_twiddle_cache_clear). Two same-size transforms must
/// leave this unchanged between them — see test_kern.cpp.
[[nodiscard]] std::uint64_t fft_twiddle_cache_builds();

/// Tables currently cached (one per (size, direction) seen).
[[nodiscard]] std::size_t fft_twiddle_cache_entries();

/// Next power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// Power spectrum of `samples` at `sample_rate_hz`: Hann-windowed,
/// zero-padded to a power of two. Returns |X(f)|^2 normalized so the peak
/// bin is 1, with `frequencies_hz` filled with the two-sided bin centres
/// in ascending order (-fs/2 .. +fs/2), spectrum reordered to match.
[[nodiscard]] std::vector<double> power_spectrum(
    std::span<const Complex> samples, double sample_rate_hz,
    std::vector<double>& frequencies_hz);

}  // namespace mmtag::phy
