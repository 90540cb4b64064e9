#include "src/antenna/phased_array.hpp"

#include <cassert>

namespace mmtag::antenna {

PhasedArray::PhasedArray(Params params) : params_(params) {
  assert(params_.elements >= 1);
}

PhasedArray PhasedArray::typical_24ghz(int elements) {
  Params p;
  p.elements = elements;
  return PhasedArray(p);
}

double PhasedArray::dc_power_w() const {
  return params_.static_power_w +
         params_.elements *
             (params_.phase_shifter_power_w + params_.frontend_power_w);
}

}  // namespace mmtag::antenna
