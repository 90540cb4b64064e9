#include "src/channel/mobility.hpp"

#include <cassert>
#include <cmath>

namespace mmtag::channel {

LinearMobility::LinearMobility(Vec2 start, Vec2 velocity_m_per_s)
    : start_(start), velocity_(velocity_m_per_s) {}

Vec2 LinearMobility::position(double t_s) const {
  return start_ + velocity_ * t_s;
}

WaypointMobility::WaypointMobility(std::vector<Vec2> waypoints,
                                   double speed_m_per_s)
    : waypoints_(std::move(waypoints)), speed_(speed_m_per_s) {
  assert(!waypoints_.empty());
  assert(speed_ > 0.0);
  arrival_times_.reserve(waypoints_.size());
  double t = 0.0;
  arrival_times_.push_back(0.0);
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    t += distance(waypoints_[i - 1], waypoints_[i]) / speed_;
    arrival_times_.push_back(t);
  }
}

Vec2 WaypointMobility::position(double t_s) const {
  if (t_s <= 0.0) return waypoints_.front();
  if (t_s >= arrival_times_.back()) return waypoints_.back();
  // Find the leg containing t_s.
  std::size_t leg = 1;
  while (arrival_times_[leg] < t_s) ++leg;
  const double t0 = arrival_times_[leg - 1];
  const double t1 = arrival_times_[leg];
  const double frac = (t_s - t0) / (t1 - t0);
  const Vec2 a = waypoints_[leg - 1];
  const Vec2 b = waypoints_[leg];
  return a + (b - a) * frac;
}

double WaypointMobility::total_duration_s() const {
  return arrival_times_.back();
}

}  // namespace mmtag::channel
