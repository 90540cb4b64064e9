#include "src/core/tag.hpp"

#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::core {

double Pose::to_local(double world_bearing_rad) const {
  return phys::wrap_angle_rad(world_bearing_rad - orientation_rad);
}

MmTag::MmTag(VanAttaArray array, Pose pose, std::uint32_t id)
    : array_(std::move(array)), pose_(pose), id_(id) {
  set_data_bit(false);
}

MmTag MmTag::prototype_at(Pose pose, std::uint32_t id) {
  return MmTag(VanAttaArray::mmtag_prototype(), pose, id);
}

void MmTag::set_data_bit(bool bit) {
  bit_ = bit;
  array_.set_all_switches(bit ? em::SwitchState::kOn : em::SwitchState::kOff);
}

double MmTag::monostatic_gain_db(double world_bearing_rad) const {
  const double local = pose_.to_local(world_bearing_rad);
  return array_.monostatic_gain_db(local);
}

}  // namespace mmtag::core
