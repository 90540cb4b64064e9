// AVX2 backend: 256-bit lanes, four doubles / two complexes per op.
// Compiled with -mavx2 (and only reached after a runtime CPUID check in
// dispatch.cpp). Deliberately no -mfma: every multiply and add must stay
// a distinct IEEE-754 operation so results are bit-identical to the
// scalar reference (see kern.hpp). Horizontal reductions mirror the
// scalar 4-lane tree exactly: lanes combine as (l0+l2)+(l1+l3).
#include "src/kern/backends.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

namespace mmtag::kern::detail {
namespace {

using Complexd = std::complex<double>;

inline const double* as_doubles(const Complexd* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* as_doubles(Complexd* p) {
  return reinterpret_cast<double*>(p);
}

// (l0+l2)+(l1+l3) — the scalar reference's combine order.
inline double hsum_tree(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);           // [l0, l1]
  const __m128d hi = _mm256_extractf128_pd(v, 1);         // [l2, l3]
  const __m128d pair = _mm_add_pd(lo, hi);                // [l0+l2, l1+l3]
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);    // [l1+l3, ...]
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

// [ar*br - ai*bi, ai*br + ar*bi] for the two complexes in each register.
inline __m256d cmul2(__m256d a, __m256d b) {
  const __m256d br = _mm256_movedup_pd(b);                // [br0,br0,br1,br1]
  const __m256d bi = _mm256_permute_pd(b, 0xF);           // [bi0,bi0,bi1,bi1]
  const __m256d a_swap = _mm256_permute_pd(a, 0x5);       // [ai,ar,...]
  return _mm256_addsub_pd(_mm256_mul_pd(a, br),
                          _mm256_mul_pd(a_swap, bi));
}

double sum_avx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double total = hsum_tree(acc);
  for (std::size_t i = n4; i < n; ++i) total += x[i];
  return total;
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double total = hsum_tree(acc);
  for (std::size_t i = n4; i < n; ++i) total += a[i] * b[i];
  return total;
}

void centered_dot_energy_avx2(const double* x, const double* t, double mean,
                              std::size_t n, double* dot_out,
                              double* energy_out) {
  const __m256d mean_v = _mm256_set1_pd(mean);
  __m256d acc_dot = _mm256_setzero_pd();
  __m256d acc_energy = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d centered =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), mean_v);
    acc_dot = _mm256_add_pd(
        acc_dot, _mm256_mul_pd(centered, _mm256_loadu_pd(t + i)));
    acc_energy =
        _mm256_add_pd(acc_energy, _mm256_mul_pd(centered, centered));
  }
  double total_dot = hsum_tree(acc_dot);
  double total_energy = hsum_tree(acc_energy);
  for (std::size_t i = n4; i < n; ++i) {
    const double centered = x[i] - mean;
    total_dot += centered * t[i];
    total_energy += centered * centered;
  }
  *dot_out = total_dot;
  *energy_out = total_energy;
}

void abs_complex_avx2(const Complexd* x, double* out, std::size_t n) {
  const double* p = as_doubles(x);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d v0 = _mm256_loadu_pd(p + 2 * i);      // r0 i0 r1 i1
    const __m256d v1 = _mm256_loadu_pd(p + 2 * i + 4);  // r2 i2 r3 i3
    const __m256d sq = _mm256_hadd_pd(_mm256_mul_pd(v0, v0),
                                      _mm256_mul_pd(v1, v1));
    // hadd yields [s0, s2, s1, s3]; restore element order then sqrt.
    const __m256d ordered = _mm256_permute4x64_pd(sq, 0xD8);  // 0,2,1,3
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(ordered));
  }
  for (std::size_t i = n4; i < n; ++i) {
    const double re = x[i].real();
    const double im = x[i].imag();
    out[i] = std::sqrt(re * re + im * im);
  }
}

void scale_real_avx2(Complexd* x, double gain, std::size_t n) {
  double* p = as_doubles(x);
  const __m256d g = _mm256_set1_pd(gain);
  const std::size_t d = 2 * n;
  const std::size_t d4 = d & ~std::size_t{3};
  for (std::size_t i = 0; i < d4; i += 4) {
    _mm256_storeu_pd(p + i, _mm256_mul_pd(_mm256_loadu_pd(p + i), g));
  }
  for (std::size_t i = d4; i < d; ++i) p[i] *= gain;
}

void fir_complex_avx2(const Complexd* x, std::size_t n, const double* taps,
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
    __m256d acc = _mm256_setzero_pd();
    for (std::ptrdiff_t off = 0; off < mv; off += 2) {
      const std::ptrdiff_t k0 = k_lo + off;
      // Contiguous pair [x[idx-1], x[idx]] with idx = i+delay-k0; the
      // tap vector pairs t[k0+1] with x[idx-1] and t[k0] with x[idx].
      const std::ptrdiff_t idx = i + delay - k0;
      const __m256d xv = _mm256_loadu_pd(px + 2 * (idx - 1));
      const __m256d tv =
          _mm256_setr_pd(taps[k0 + 1], taps[k0 + 1], taps[k0], taps[k0]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(xv, tv));
    }
    // Componentwise lane0 + lane1 (complex add; order is immaterial —
    // IEEE addition is commutative).
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    __m128d res = _mm_add_pd(lo, hi);
    if (mv != m) {
      const std::ptrdiff_t idx = i + delay - k_hi;
      const __m128d xt = _mm_loadu_pd(px + 2 * idx);
      res = _mm_add_pd(res, _mm_mul_pd(xt, _mm_set1_pd(taps[k_hi])));
    }
    _mm_storeu_pd(as_doubles(out) + 2 * i, res);
  }
}

void butterfly_pass_avx2(Complexd* data, std::size_t n, std::size_t len,
                         const Complexd* tw) {
  double* p = as_doubles(data);
  const std::size_t half = len / 2;
  if (len == 2) {
    // Two groups (four complexes) per iteration:
    // [a0,b0],[a1,b1] -> [a0+b0, a0-b0],[a1+b1, a1-b1].
    std::size_t s = 0;
    for (; s + 4 <= n; s += 4) {
      const __m256d v0 = _mm256_loadu_pd(p + 2 * s);      // a0 b0
      const __m256d v1 = _mm256_loadu_pd(p + 2 * s + 4);  // a1 b1
      const __m256d a = _mm256_permute2f128_pd(v0, v1, 0x20);  // a0 a1
      const __m256d b = _mm256_permute2f128_pd(v0, v1, 0x31);  // b0 b1
      const __m256d add = _mm256_add_pd(a, b);
      const __m256d sub = _mm256_sub_pd(a, b);
      _mm256_storeu_pd(p + 2 * s, _mm256_permute2f128_pd(add, sub, 0x20));
      _mm256_storeu_pd(p + 2 * s + 4,
                       _mm256_permute2f128_pd(add, sub, 0x31));
    }
    for (; s < n; s += 2) {
      const Complexd a = data[s];
      const Complexd b = data[s + 1];
      data[s] = Complexd(a.real() + b.real(), a.imag() + b.imag());
      data[s + 1] = Complexd(a.real() - b.real(), a.imag() - b.imag());
    }
    return;
  }
  // len >= 4: the k-loop spans len/2 >= 2 twiddles, always a whole
  // number of 2-complex vectors (len is a power of two).
  const double* ptw = as_doubles(tw);
  for (std::size_t s = 0; s < n; s += len) {
    for (std::size_t k = 0; k < half; k += 2) {
      const __m256d even = _mm256_loadu_pd(p + 2 * (s + k));
      const __m256d oddv = _mm256_loadu_pd(p + 2 * (s + k + half));
      const __m256d w = _mm256_loadu_pd(ptw + 2 * k);
      const __m256d odd = cmul2(oddv, w);
      _mm256_storeu_pd(p + 2 * (s + k), _mm256_add_pd(even, odd));
      _mm256_storeu_pd(p + 2 * (s + k + half),
                       _mm256_sub_pd(even, odd));
    }
  }
}

void block_sum_complex_avx2(const Complexd* x, std::size_t nblocks,
                            std::size_t block, Complexd* out) {
  const double* px = as_doubles(x);
  const std::size_t bv = block & ~std::size_t{1};
  for (std::size_t k = 0; k < nblocks; ++k) {
    const double* base = px + 2 * k * block;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t s = 0; s < bv; s += 2) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(base + 2 * s));
    }
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    __m128d res = _mm_add_pd(lo, hi);
    if (bv != block) {
      res = _mm_add_pd(res, _mm_loadu_pd(base + 2 * (block - 1)));
    }
    _mm_storeu_pd(as_doubles(out) + 2 * k, res);
  }
}

void threshold_below_avx2(const double* stats, std::size_t n,
                          double threshold, std::uint8_t* bits) {
  const __m256d thr = _mm256_set1_pd(threshold);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d cmp =
        _mm256_cmp_pd(_mm256_loadu_pd(stats + i), thr, _CMP_LT_OQ);
    const int mask = _mm256_movemask_pd(cmp);
    bits[i] = static_cast<std::uint8_t>(mask & 1);
    bits[i + 1] = static_cast<std::uint8_t>((mask >> 1) & 1);
    bits[i + 2] = static_cast<std::uint8_t>((mask >> 2) & 1);
    bits[i + 3] = static_cast<std::uint8_t>((mask >> 3) & 1);
  }
  for (std::size_t i = n4; i < n; ++i) {
    bits[i] = stats[i] < threshold ? 1 : 0;
  }
}

void squared_distance_avx2(const double* xs, const double* ys, double cx,
                           double cy, std::size_t n, double* out) {
  const __m256d vcx = _mm256_set1_pd(cx);
  const __m256d vcy = _mm256_set1_pd(cy);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), vcx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), vcy);
    // mul + add kept separate: FMA contraction would change the bits.
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_mul_pd(dx, dx),
                                            _mm256_mul_pd(dy, dy)));
  }
  for (std::size_t i = n4; i < n; ++i) {
    const double dx = xs[i] - cx;
    const double dy = ys[i] - cy;
    out[i] = dx * dx + dy * dy;
  }
}

std::uint64_t count_below_avx2(const double* x, std::size_t n,
                               double threshold) {
  const __m256d thr = _mm256_set1_pd(threshold);
  std::uint64_t count = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d cmp =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), thr, _CMP_LT_OQ);
    count += static_cast<std::uint64_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(cmp))));
  }
  for (std::size_t i = n4; i < n; ++i) {
    count += x[i] < threshold ? 1u : 0u;
  }
  return count;
}

void mul_complex_avx2(Complexd* x, const Complexd* c, std::size_t n) {
  double* p = as_doubles(x);
  const double* pc = as_doubles(c);
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    _mm256_storeu_pd(p + 2 * i, cmul2(_mm256_loadu_pd(p + 2 * i),
                                      _mm256_loadu_pd(pc + 2 * i)));
  }
  for (std::size_t i = n2; i < n; ++i) {
    const double ar = x[i].real();
    const double ai = x[i].imag();
    const double br = c[i].real();
    const double bi = c[i].imag();
    x[i] = Complexd(ar * br - ai * bi, ai * br + ar * bi);
  }
}

void iq_imbalance_avx2(Complexd* x, Complexd mu, Complexd nu,
                       std::size_t n) {
  double* p = as_doubles(x);
  const __m256d muv = _mm256_setr_pd(mu.real(), mu.imag(), mu.real(),
                                     mu.imag());
  const __m256d nuv = _mm256_setr_pd(nu.real(), nu.imag(), nu.real(),
                                     nu.imag());
  const __m256d conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    const __m256d v = _mm256_loadu_pd(p + 2 * i);
    const __m256d m = cmul2(v, muv);
    const __m256d w = cmul2(_mm256_xor_pd(v, conj_mask), nuv);
    _mm256_storeu_pd(p + 2 * i, _mm256_add_pd(m, w));
  }
  for (std::size_t i = n2; i < n; ++i) {
    const double re = x[i].real();
    const double im = x[i].imag();
    const double mr = re * mu.real() - im * mu.imag();
    const double mi = im * mu.real() + re * mu.imag();
    const double wr = re * nu.real() - (-im) * nu.imag();
    const double wi = (-im) * nu.real() + re * nu.imag();
    x[i] = Complexd(mr + wr, mi + wi);
  }
}

void pa_rapp_avx2(Complexd* x, std::size_t n, double inv_sat2, double k_pm,
                  double b_pm) {
  double* p = as_doubles(x);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d isat = _mm256_set1_pd(inv_sat2);
  const __m256d kv = _mm256_set1_pd(k_pm);
  const __m256d bv = _mm256_set1_pd(b_pm);
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    const __m256d v = _mm256_loadu_pd(p + 2 * i);
    const __m256d sq = _mm256_mul_pd(v, v);
    // hadd duplicates each complex's |x|^2 into its two lanes:
    // [a2_0, a2_0, a2_1, a2_1]; addition commutes with the scalar
    // re*re + im*im.
    const __m256d a2 = _mm256_hadd_pd(sq, sq);
    const __m256d u = _mm256_mul_pd(a2, isat);
    const __m256d g = _mm256_div_pd(
        one, _mm256_sqrt_pd(
                 _mm256_sqrt_pd(_mm256_add_pd(one, _mm256_mul_pd(u, u)))));
    const __m256d t = _mm256_div_pd(
        _mm256_mul_pd(kv, a2), _mm256_add_pd(one, _mm256_mul_pd(bv, a2)));
    const __m256d t2 = _mm256_mul_pd(t, t);
    const __m256d iv = _mm256_div_pd(one, _mm256_add_pd(one, t2));
    const __m256d cr = _mm256_mul_pd(_mm256_sub_pd(one, t2), iv);
    const __m256d ci = _mm256_mul_pd(_mm256_add_pd(t, t), iv);
    // Interleave [cr0, ci0, cr1, ci1] then rotate + compress.
    const __m256d rot = _mm256_blend_pd(cr, ci, 0xA);
    _mm256_storeu_pd(p + 2 * i, _mm256_mul_pd(cmul2(v, rot), g));
  }
  for (std::size_t i = n2; i < n; ++i) {
    const double re = x[i].real();
    const double im = x[i].imag();
    const double a2 = re * re + im * im;
    const double u = a2 * inv_sat2;
    const double g = 1.0 / std::sqrt(std::sqrt(1.0 + u * u));
    const double t = (k_pm * a2) / (1.0 + b_pm * a2);
    const double iv = 1.0 / (1.0 + t * t);
    const double cr = (1.0 - t * t) * iv;
    const double ci = (t + t) * iv;
    x[i] = Complexd((re * cr - im * ci) * g, (im * cr + re * ci) * g);
  }
}

void adc_quantize_avx2(Complexd* x, std::size_t n, double clip, double step,
                       double inv_step) {
  double* p = as_doubles(x);
  const __m256d clipv = _mm256_set1_pd(clip);
  const __m256d nclipv = _mm256_set1_pd(-clip);
  const __m256d stepv = _mm256_set1_pd(step);
  const __m256d istepv = _mm256_set1_pd(inv_step);
  const __m256d half = _mm256_set1_pd(0.5);
  const std::size_t d = 2 * n;
  const std::size_t d4 = d & ~std::size_t{3};
  for (std::size_t i = 0; i < d4; i += 4) {
    __m256d v = _mm256_loadu_pd(p + i);
    v = _mm256_max_pd(_mm256_min_pd(v, clipv), nclipv);
    const __m256d q =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(v, istepv), half));
    _mm256_storeu_pd(p + i, _mm256_mul_pd(q, stepv));
  }
  for (std::size_t i = d4; i < d; ++i) {
    double v = p[i];
    v = v > clip ? clip : v;
    v = v < -clip ? -clip : v;
    p[i] = std::floor(v * inv_step + 0.5) * step;
  }
}

std::uint32_t fm0_decode_bytes_avx2(const std::uint8_t* chips,
                                    std::size_t nbits, std::uint8_t* bits) {
  // 32 chips (16 bits) per iteration: deinterleave first/second chips,
  // xor for the bit values, and check every first chip inverts the
  // previous second chip (the carry crosses iterations).
  const __m128i deinterleave = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14,  //
                                             1, 3, 5, 7, 9, 11, 13, 15);
  const __m128i ones = _mm_set1_epi8(1);
  __m128i ok = ones;
  std::uint8_t prev = 1;
  std::size_t i = 0;
  const std::size_t n16 = nbits & ~std::size_t{15};
  for (; i < n16; i += 16) {
    const __m256i raw = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(chips + 2 * i));
    const __m256i shuf = _mm256_shuffle_epi8(
        raw, _mm256_broadcastsi128_si256(deinterleave));
    // Per 128-bit lane: low 8 bytes = first chips, high 8 = second
    // chips. Regroup into one 16-byte vector of firsts and one of
    // seconds.
    const __m256i grouped = _mm256_permute4x64_epi64(shuf, 0xD8);
    const __m128i firsts = _mm256_castsi256_si128(grouped);
    const __m128i seconds = _mm256_extracti128_si256(grouped, 1);
    const __m128i bitv =
        _mm_xor_si128(_mm_xor_si128(firsts, seconds), ones);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(bits + i), bitv);
    const __m128i prevs = _mm_insert_epi8(_mm_slli_si128(seconds, 1),
                                          static_cast<char>(prev), 0);
    ok = _mm_and_si128(ok, _mm_xor_si128(firsts, prevs));
    prev = static_cast<std::uint8_t>(_mm_extract_epi8(seconds, 15));
  }
  std::uint8_t ok_tail = 1;
  for (; i < nbits; ++i) {
    const std::uint8_t first = chips[2 * i];
    const std::uint8_t second = chips[2 * i + 1];
    ok_tail = static_cast<std::uint8_t>(ok_tail & (first ^ prev));
    bits[i] = static_cast<std::uint8_t>((first ^ second) ^ 1u);
    prev = second;
  }
  const bool vec_ok =
      _mm_movemask_epi8(_mm_cmpeq_epi8(ok, ones)) == 0xFFFF;
  return (vec_ok && ok_tail != 0) ? 1u : 0u;
}

}  // namespace

const Kernels* avx2_table() {
  static const Kernels kTable = {
      "avx2",
      &sum_avx2,
      &dot_avx2,
      &centered_dot_energy_avx2,
      &abs_complex_avx2,
      &scale_real_avx2,
      &fir_complex_avx2,
      &butterfly_pass_avx2,
      &block_sum_complex_avx2,
      &threshold_below_avx2,
      &squared_distance_avx2,
      &count_below_avx2,
      &mul_complex_avx2,
      &iq_imbalance_avx2,
      &pa_rapp_avx2,
      &adc_quantize_avx2,
      &fm0_decode_bytes_avx2,
      &crc16_bits_sliced,
  };
  return &kTable;
}

}  // namespace mmtag::kern::detail

#else  // !defined(__AVX2__)

namespace mmtag::kern::detail {
const Kernels* avx2_table() { return nullptr; }
}  // namespace mmtag::kern::detail

#endif
