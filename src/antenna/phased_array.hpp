// Power-consumption model of an electronically steered phased array.
//
// The paper's argument *against* phased arrays on the tag (Secs. 1, 3, 5)
// is that they are costly and burn watts. The "active mmWave radio"
// baseline of experiment C4 prices one by its DC power, which quantifies
// exactly the cost the paper says the Van Atta design avoids.
#pragma once

namespace mmtag::antenna {

class PhasedArray {
 public:
  struct Params {
    int elements = 16;
    /// Power drawn by each phase shifter while biased [W].
    double phase_shifter_power_w = 0.015;
    /// Power of each per-element front-end (LNA or PA driver) [W].
    double frontend_power_w = 0.040;
    /// Static power of the beamforming network / bias tree [W].
    double static_power_w = 0.25;
  };

  explicit PhasedArray(Params params);

  /// A 16-element 24 GHz array with component powers in line with the
  /// few-watt figure the paper cites for commercial phased arrays.
  [[nodiscard]] static PhasedArray typical_24ghz(int elements = 16);

  /// Total DC power consumed while the array is active [W]. This is the
  /// number experiment C4 compares against the tag's switch-toggle energy.
  [[nodiscard]] double dc_power_w() const;

 private:
  Params params_;
};

}  // namespace mmtag::antenna
