// SSE4.2 backend: 128-bit lanes, two doubles / one complex per op.
// Reductions keep the scalar reference's 4-lane tree by running two
// 2-wide accumulators (lanes {0,1} and {2,3}); complex math uses the
// SSE3 addsub idiom with the same operand order as the scalar cmul, so
// results are bit-identical to every other backend (see kern.hpp).
#include "src/kern/backends.hpp"

#if defined(__SSE4_2__)

#include <nmmintrin.h>

#include <cmath>
#include <cstring>

namespace mmtag::kern::detail {
namespace {

using Complexd = std::complex<double>;

inline const double* as_doubles(const Complexd* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* as_doubles(Complexd* p) {
  return reinterpret_cast<double*>(p);
}

// (l0+l2)+(l1+l3) from the two partial accumulators.
inline double hsum_tree(__m128d acc01, __m128d acc23) {
  const __m128d pair = _mm_add_pd(acc01, acc23);  // [l0+l2, l1+l3]
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

// One complex product [ar*br - ai*bi, ai*br + ar*bi].
inline __m128d cmul1(__m128d a, __m128d b) {
  const __m128d br = _mm_unpacklo_pd(b, b);
  const __m128d bi = _mm_unpackhi_pd(b, b);
  const __m128d a_swap = _mm_shuffle_pd(a, a, 0x1);
  return _mm_addsub_pd(_mm_mul_pd(a, br), _mm_mul_pd(a_swap, bi));
}

double sum_sse42(const double* x, std::size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc01 = _mm_add_pd(acc01, _mm_loadu_pd(x + i));
    acc23 = _mm_add_pd(acc23, _mm_loadu_pd(x + i + 2));
  }
  double total = hsum_tree(acc01, acc23);
  for (std::size_t i = n4; i < n; ++i) total += x[i];
  return total;
}

double dot_sse42(const double* a, const double* b, std::size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc01 = _mm_add_pd(acc01,
                       _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc23 = _mm_add_pd(
        acc23, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
  }
  double total = hsum_tree(acc01, acc23);
  for (std::size_t i = n4; i < n; ++i) total += a[i] * b[i];
  return total;
}

void centered_dot_energy_sse42(const double* x, const double* t, double mean,
                               std::size_t n, double* dot_out,
                               double* energy_out) {
  const __m128d mean_v = _mm_set1_pd(mean);
  __m128d dot01 = _mm_setzero_pd();
  __m128d dot23 = _mm_setzero_pd();
  __m128d en01 = _mm_setzero_pd();
  __m128d en23 = _mm_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m128d c01 = _mm_sub_pd(_mm_loadu_pd(x + i), mean_v);
    const __m128d c23 = _mm_sub_pd(_mm_loadu_pd(x + i + 2), mean_v);
    dot01 = _mm_add_pd(dot01, _mm_mul_pd(c01, _mm_loadu_pd(t + i)));
    dot23 = _mm_add_pd(dot23, _mm_mul_pd(c23, _mm_loadu_pd(t + i + 2)));
    en01 = _mm_add_pd(en01, _mm_mul_pd(c01, c01));
    en23 = _mm_add_pd(en23, _mm_mul_pd(c23, c23));
  }
  double total_dot = hsum_tree(dot01, dot23);
  double total_energy = hsum_tree(en01, en23);
  for (std::size_t i = n4; i < n; ++i) {
    const double centered = x[i] - mean;
    total_dot += centered * t[i];
    total_energy += centered * centered;
  }
  *dot_out = total_dot;
  *energy_out = total_energy;
}

void abs_complex_sse42(const Complexd* x, double* out, std::size_t n) {
  const double* p = as_doubles(x);
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    const __m128d v0 = _mm_loadu_pd(p + 2 * i);
    const __m128d v1 = _mm_loadu_pd(p + 2 * i + 2);
    const __m128d sq = _mm_hadd_pd(_mm_mul_pd(v0, v0), _mm_mul_pd(v1, v1));
    _mm_storeu_pd(out + i, _mm_sqrt_pd(sq));
  }
  for (std::size_t i = n2; i < n; ++i) {
    const double re = x[i].real();
    const double im = x[i].imag();
    out[i] = std::sqrt(re * re + im * im);
  }
}

void scale_real_sse42(Complexd* x, double gain, std::size_t n) {
  double* p = as_doubles(x);
  const __m128d g = _mm_set1_pd(gain);
  const std::size_t d = 2 * n;
  for (std::size_t i = 0; i < d; i += 2) {
    _mm_storeu_pd(p + i, _mm_mul_pd(_mm_loadu_pd(p + i), g));
  }
}

void fir_complex_sse42(const Complexd* x, std::size_t n, const double* taps,
                       std::size_t nt, Complexd* out) {
  const double* px = as_doubles(x);
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(nt / 2);
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  const std::ptrdiff_t snt = static_cast<std::ptrdiff_t>(nt);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    const std::ptrdiff_t k_lo =
        i + delay - (sn - 1) > 0 ? i + delay - (sn - 1) : 0;
    const std::ptrdiff_t k_hi = snt - 1 < i + delay ? snt - 1 : i + delay;
    const std::ptrdiff_t m = k_hi - k_lo + 1;
    if (m <= 0) {
      out[static_cast<std::size_t>(i)] = Complexd(0.0, 0.0);
      continue;
    }
    const std::ptrdiff_t mv = m & ~std::ptrdiff_t{1};
    __m128d acc_even = _mm_setzero_pd();
    __m128d acc_odd = _mm_setzero_pd();
    for (std::ptrdiff_t off = 0; off < mv; off += 2) {
      const std::ptrdiff_t k0 = k_lo + off;
      const std::ptrdiff_t idx = i + delay - k0;
      acc_even = _mm_add_pd(
          acc_even,
          _mm_mul_pd(_mm_loadu_pd(px + 2 * idx), _mm_set1_pd(taps[k0])));
      acc_odd = _mm_add_pd(
          acc_odd, _mm_mul_pd(_mm_loadu_pd(px + 2 * (idx - 1)),
                              _mm_set1_pd(taps[k0 + 1])));
    }
    __m128d res = _mm_add_pd(acc_even, acc_odd);
    if (mv != m) {
      const std::ptrdiff_t idx = i + delay - k_hi;
      res = _mm_add_pd(res, _mm_mul_pd(_mm_loadu_pd(px + 2 * idx),
                                       _mm_set1_pd(taps[k_hi])));
    }
    _mm_storeu_pd(as_doubles(out) + 2 * i, res);
  }
}

void butterfly_pass_sse42(Complexd* data, std::size_t n, std::size_t len,
                          const Complexd* tw) {
  double* p = as_doubles(data);
  const std::size_t half = len / 2;
  if (len == 2) {
    for (std::size_t s = 0; s < n; s += 2) {
      const __m128d a = _mm_loadu_pd(p + 2 * s);
      const __m128d b = _mm_loadu_pd(p + 2 * s + 2);
      _mm_storeu_pd(p + 2 * s, _mm_add_pd(a, b));
      _mm_storeu_pd(p + 2 * s + 2, _mm_sub_pd(a, b));
    }
    return;
  }
  const double* ptw = as_doubles(tw);
  for (std::size_t s = 0; s < n; s += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const __m128d even = _mm_loadu_pd(p + 2 * (s + k));
      const __m128d odd =
          cmul1(_mm_loadu_pd(p + 2 * (s + k + half)), _mm_loadu_pd(ptw + 2 * k));
      _mm_storeu_pd(p + 2 * (s + k), _mm_add_pd(even, odd));
      _mm_storeu_pd(p + 2 * (s + k + half), _mm_sub_pd(even, odd));
    }
  }
}

void block_sum_complex_sse42(const Complexd* x, std::size_t nblocks,
                             std::size_t block, Complexd* out) {
  const double* px = as_doubles(x);
  const std::size_t bv = block & ~std::size_t{1};
  for (std::size_t k = 0; k < nblocks; ++k) {
    const double* base = px + 2 * k * block;
    __m128d acc_even = _mm_setzero_pd();
    __m128d acc_odd = _mm_setzero_pd();
    for (std::size_t s = 0; s < bv; s += 2) {
      acc_even = _mm_add_pd(acc_even, _mm_loadu_pd(base + 2 * s));
      acc_odd = _mm_add_pd(acc_odd, _mm_loadu_pd(base + 2 * s + 2));
    }
    __m128d res = _mm_add_pd(acc_even, acc_odd);
    if (bv != block) {
      res = _mm_add_pd(res, _mm_loadu_pd(base + 2 * (block - 1)));
    }
    _mm_storeu_pd(as_doubles(out) + 2 * k, res);
  }
}

void threshold_below_sse42(const double* stats, std::size_t n,
                           double threshold, std::uint8_t* bits) {
  const __m128d thr = _mm_set1_pd(threshold);
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    const int mask =
        _mm_movemask_pd(_mm_cmplt_pd(_mm_loadu_pd(stats + i), thr));
    bits[i] = static_cast<std::uint8_t>(mask & 1);
    bits[i + 1] = static_cast<std::uint8_t>((mask >> 1) & 1);
  }
  for (std::size_t i = n2; i < n; ++i) {
    bits[i] = stats[i] < threshold ? 1 : 0;
  }
}

void squared_distance_sse42(const double* xs, const double* ys, double cx,
                            double cy, std::size_t n, double* out) {
  const __m128d vcx = _mm_set1_pd(cx);
  const __m128d vcy = _mm_set1_pd(cy);
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), vcx);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), vcy);
    _mm_storeu_pd(out + i, _mm_add_pd(_mm_mul_pd(dx, dx),
                                      _mm_mul_pd(dy, dy)));
  }
  for (std::size_t i = n2; i < n; ++i) {
    const double dx = xs[i] - cx;
    const double dy = ys[i] - cy;
    out[i] = dx * dx + dy * dy;
  }
}

std::uint64_t count_below_sse42(const double* x, std::size_t n,
                                double threshold) {
  const __m128d thr = _mm_set1_pd(threshold);
  std::uint64_t count = 0;
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    const int mask =
        _mm_movemask_pd(_mm_cmplt_pd(_mm_loadu_pd(x + i), thr));
    count += static_cast<std::uint64_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
  }
  for (std::size_t i = n2; i < n; ++i) {
    count += x[i] < threshold ? 1u : 0u;
  }
  return count;
}

void mul_complex_sse42(Complexd* x, const Complexd* c, std::size_t n) {
  double* p = as_doubles(x);
  const double* pc = as_doubles(c);
  for (std::size_t i = 0; i < n; ++i) {
    _mm_storeu_pd(p + 2 * i,
                  cmul1(_mm_loadu_pd(p + 2 * i), _mm_loadu_pd(pc + 2 * i)));
  }
}

void iq_imbalance_sse42(Complexd* x, Complexd mu, Complexd nu,
                        std::size_t n) {
  double* p = as_doubles(x);
  const __m128d muv = _mm_setr_pd(mu.real(), mu.imag());
  const __m128d nuv = _mm_setr_pd(nu.real(), nu.imag());
  const __m128d conj_mask = _mm_setr_pd(0.0, -0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d v = _mm_loadu_pd(p + 2 * i);
    const __m128d m = cmul1(v, muv);
    const __m128d w = cmul1(_mm_xor_pd(v, conj_mask), nuv);
    _mm_storeu_pd(p + 2 * i, _mm_add_pd(m, w));
  }
}

void pa_rapp_sse42(Complexd* x, std::size_t n, double inv_sat2, double k_pm,
                   double b_pm) {
  double* p = as_doubles(x);
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d isat = _mm_set1_pd(inv_sat2);
  const __m128d kv = _mm_set1_pd(k_pm);
  const __m128d bv = _mm_set1_pd(b_pm);
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d v = _mm_loadu_pd(p + 2 * i);
    const __m128d sq = _mm_mul_pd(v, v);
    // [im^2 + re^2, ...] in both lanes — addition commutes, so identical
    // to the scalar re*re + im*im.
    const __m128d a2 = _mm_hadd_pd(sq, sq);
    const __m128d u = _mm_mul_pd(a2, isat);
    const __m128d g = _mm_div_pd(
        one, _mm_sqrt_pd(_mm_sqrt_pd(_mm_add_pd(one, _mm_mul_pd(u, u)))));
    const __m128d t = _mm_div_pd(_mm_mul_pd(kv, a2),
                                 _mm_add_pd(one, _mm_mul_pd(bv, a2)));
    const __m128d t2 = _mm_mul_pd(t, t);
    const __m128d iv = _mm_div_pd(one, _mm_add_pd(one, t2));
    const __m128d cr = _mm_mul_pd(_mm_sub_pd(one, t2), iv);
    const __m128d ci = _mm_mul_pd(_mm_add_pd(t, t), iv);
    // Rotation coefficient (cr, ci) then the uniform compression g.
    const __m128d rot = _mm_unpacklo_pd(cr, ci);
    _mm_storeu_pd(p + 2 * i, _mm_mul_pd(cmul1(v, rot), g));
  }
}

void adc_quantize_sse42(Complexd* x, std::size_t n, double clip, double step,
                        double inv_step) {
  double* p = as_doubles(x);
  const __m128d clipv = _mm_set1_pd(clip);
  const __m128d nclipv = _mm_set1_pd(-clip);
  const __m128d stepv = _mm_set1_pd(step);
  const __m128d istepv = _mm_set1_pd(inv_step);
  const __m128d half = _mm_set1_pd(0.5);
  const std::size_t d = 2 * n;
  for (std::size_t i = 0; i < d; i += 2) {
    __m128d v = _mm_loadu_pd(p + i);
    v = _mm_max_pd(_mm_min_pd(v, clipv), nclipv);
    const __m128d q = _mm_floor_pd(_mm_add_pd(_mm_mul_pd(v, istepv), half));
    _mm_storeu_pd(p + i, _mm_mul_pd(q, stepv));
  }
}

std::uint32_t fm0_decode_bytes_sse42(const std::uint8_t* chips,
                                     std::size_t nbits, std::uint8_t* bits) {
  // 16 chips (8 bits) per iteration; the byte lanes continue in 64-bit
  // SWAR registers after the deinterleaving shuffle.
  const __m128i deinterleave = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14,  //
                                             1, 3, 5, 7, 9, 11, 13, 15);
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  std::uint64_t ok = kOnes;
  std::uint8_t prev = 1;
  std::size_t i = 0;
  const std::size_t n8 = nbits & ~std::size_t{7};
  for (; i < n8; i += 8) {
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(chips + 2 * i));
    const __m128i shuf = _mm_shuffle_epi8(raw, deinterleave);
    const std::uint64_t firsts =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(shuf));
    const std::uint64_t seconds =
        static_cast<std::uint64_t>(_mm_extract_epi64(shuf, 1));
    const std::uint64_t bitv = (firsts ^ seconds) ^ kOnes;
    std::memcpy(bits + i, &bitv, 8);
    const std::uint64_t prevs = (seconds << 8) | prev;
    ok &= firsts ^ prevs;
    prev = static_cast<std::uint8_t>(seconds >> 56);
  }
  std::uint8_t ok_tail = 1;
  for (; i < nbits; ++i) {
    const std::uint8_t first = chips[2 * i];
    const std::uint8_t second = chips[2 * i + 1];
    ok_tail = static_cast<std::uint8_t>(ok_tail & (first ^ prev));
    bits[i] = static_cast<std::uint8_t>((first ^ second) ^ 1u);
    prev = second;
  }
  return (ok == kOnes && ok_tail != 0) ? 1u : 0u;
}

}  // namespace

const Kernels* sse42_table() {
  static const Kernels kTable = {
      "sse4.2",
      &sum_sse42,
      &dot_sse42,
      &centered_dot_energy_sse42,
      &abs_complex_sse42,
      &scale_real_sse42,
      &fir_complex_sse42,
      &butterfly_pass_sse42,
      &block_sum_complex_sse42,
      &threshold_below_sse42,
      &squared_distance_sse42,
      &count_below_sse42,
      &mul_complex_sse42,
      &iq_imbalance_sse42,
      &pa_rapp_sse42,
      &adc_quantize_sse42,
      &fm0_decode_bytes_sse42,
      &crc16_bits_sliced,
  };
  return &kTable;
}

}  // namespace mmtag::kern::detail

#else  // !defined(__SSE4_2__)

namespace mmtag::kern::detail {
const Kernels* sse42_table() { return nullptr; }
}  // namespace mmtag::kern::detail

#endif
