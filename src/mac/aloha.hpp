// Framed slotted Aloha — the in-beam MAC (paper Sec. 9, "MAC Protocol").
//
// "One possible solution is to use similar MAC protocol as RFIDs such as
// Aloha protocol." When several tags share one beam direction they collide;
// framed slotted Aloha resolves them: the reader announces a frame of 2^Q
// slots, every unread tag picks one uniformly, singleton slots deliver a
// frame (subject to link errors), collisions retry in the next frame. The
// frame size follows the EPC Gen2 Q-algorithm.
#pragma once

#include <random>

namespace mmtag::mac {

struct AlohaConfig {
  int initial_q = 4;             ///< Initial frame size 2^Q slots.
  /// Probability a singleton slot's frame survives the link (CRC passes).
  double slot_success_probability = 0.98;
  int max_rounds = 64;           ///< Give up after this many frames.
};

struct AlohaStats {
  int tags_total = 0;
  int tags_read = 0;
  int rounds = 0;
  long slots_total = 0;
  long slots_success = 0;
  long slots_collision = 0;
  long slots_empty = 0;
};

/// Simulate framed slotted Aloha until all `tag_count` tags are read or
/// `config.max_rounds` frames elapse.
[[nodiscard]] AlohaStats run_framed_aloha(int tag_count,
                                          const AlohaConfig& config,
                                          std::mt19937_64& rng);

}  // namespace mmtag::mac
