// Additive LFSR scrambling — the rate-1 alternative to Manchester coding.
//
// Manchester guarantees a transition per bit but halves the data rate. A
// self-synchronizing alternative keeps the full rate: XOR the data with a
// known PRBS so long runs become statistically impossible (though not
// strictly), and descramble with the same sequence. The trade —
// deterministic dc-balance vs 2x rate — is measured in bench_a5_linecode.
//
// The LFSR is the ITU-T V.52-style PRBS-15 (x^15 + x^14 + 1), seeded per
// frame so reader and tag stay aligned via the frame boundary.
#pragma once

#include <cstdint>

#include "src/phy/ook.hpp"

namespace mmtag::phy {

class Scrambler {
 public:
  /// `seed` must be nonzero (an all-zero LFSR never leaves zero).
  explicit Scrambler(std::uint16_t seed = 0x5A5A);

  /// Next PRBS bit (advances the register).
  bool next_bit();

  /// XOR `bits` with the PRBS starting from the current register state.
  [[nodiscard]] BitVector scramble(const BitVector& bits);

  /// Identical operation (XOR is an involution) — provided for call-site
  /// clarity. Must be called on a Scrambler with the same seed/state.
  [[nodiscard]] BitVector descramble(const BitVector& bits);

  [[nodiscard]] std::uint16_t state() const { return state_; }

  /// Longest run of identical bits in `bits` (the dc-balance metric the
  /// line-code comparison uses; 0 for empty input).
  [[nodiscard]] static std::size_t longest_run(const BitVector& bits);

 private:
  std::uint16_t state_;
};

}  // namespace mmtag::phy
