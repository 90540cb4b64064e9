// AArch64 NEON backend — currently a named stub. The table exists so
// dispatch, MMTAG_KERN=neon, and the equivalence tests exercise the same
// code paths on ARM hosts, but every kernel aliases the scalar
// reference; the 128-bit float64x2 ports follow the sse42.cpp structure
// when an ARM target joins CI. Not selectable on non-ARM builds.
#include "src/kern/backends.hpp"

namespace mmtag::kern::detail {

#if defined(__aarch64__) || defined(__ARM_NEON)

const Kernels* neon_table() {
  static const Kernels kTable = {
      "neon",
      &scalar::sum,
      &scalar::dot,
      &scalar::centered_dot_energy,
      &scalar::abs_complex,
      &scalar::scale_real,
      &scalar::fir_complex,
      &scalar::butterfly_pass,
      &scalar::block_sum_complex,
      &scalar::threshold_below,
      &scalar::squared_distance,
      &scalar::count_below,
      &scalar::mul_complex,
      &scalar::iq_imbalance,
      &scalar::pa_rapp,
      &scalar::adc_quantize,
      &scalar::fm0_decode_bytes,
      &scalar::crc16_bits,
  };
  return &kTable;
}

#else

const Kernels* neon_table() { return nullptr; }

#endif

}  // namespace mmtag::kern::detail
