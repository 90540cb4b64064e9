#include "src/sim/scenario.hpp"

#include <cassert>
#include <cmath>

#include "src/antenna/codebook.hpp"
#include "src/reader/detector.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::sim {

namespace {

/// Codebook the tracker re-acquires with: 17-degree beams over +-1.2 rad.
constexpr double kSectorMinRad = -1.2;
constexpr double kSectorMaxRad = 1.2;
constexpr double kBeamwidthDeg = 17.0;

}  // namespace

LinkScenario::LinkScenario(reader::MmWaveReader reader, phy::RateTable rates,
                           Config config)
    : reader_(std::move(reader)),
      rates_(std::move(rates)),
      config_(config) {
  assert(config_.step_s > 0.0);
}

void LinkScenario::set_static_environment(channel::Environment environment) {
  static_env_ = std::move(environment);
}

void LinkScenario::set_tag_trajectory(
    std::shared_ptr<const channel::Mobility> path) {
  tag_path_ = std::move(path);
}

void LinkScenario::add_moving_blocker(
    std::shared_ptr<const channel::Mobility> path, double half_width_m) {
  assert(half_width_m > 0.0);
  blockers_.push_back(Blocker{std::move(path), half_width_m});
}

ScenarioResult LinkScenario::run(double duration_s, std::uint64_t seed) {
  assert(tag_path_ != nullptr && "set_tag_trajectory first");
  assert(duration_s > 0.0);
  auto rng = make_rng(seed);

  const auto codebook =
      antenna::uniform_codebook(kSectorMinRad, kSectorMaxRad, kBeamwidthDeg);
  reader::BeamTracker tracker(
      reader::BeamScanner(reader_, reader::PowerDetector::mmtag_default()),
      codebook, config_.tracking);
  phy::RateController controller(rates_, config_.rate_control);

  ScenarioResult result;
  double previous_heading = 0.0;  // Until the tag first moves.
  for (double t = 0.0; t <= duration_s + 1e-12; t += config_.step_s) {
    const channel::Vec2 pos = tag_path_->position(t);

    // Orientation policy.
    double orientation = 0.0;
    switch (config_.orientation) {
      case TagOrientation::kFaceReader:
        orientation = channel::bearing_rad(pos, reader_.pose().position);
        break;
      case TagOrientation::kFollowVelocity: {
        const channel::Vec2 ahead =
            tag_path_->position(t + config_.step_s * 0.1);
        if (channel::distance(pos, ahead) > 1e-9) {
          previous_heading = channel::bearing_rad(pos, ahead);
        }
        orientation = previous_heading;
        break;
      }
    }
    const core::MmTag tag = core::MmTag::prototype_at(
        core::Pose{pos, orientation});

    // Rebuild the environment with this step's blocker positions.
    channel::Environment env = static_env_;
    for (const Blocker& blocker : blockers_) {
      const channel::Vec2 b = blocker.path->position(t);
      env.add_obstacle(channel::Obstacle{
          channel::Segment{{b.x, b.y - blocker.half_width_m},
                           {b.x, b.y + blocker.half_width_m}}});
    }

    // Track, evaluate, adapt.
    const reader::LinkReport link =
        tracker.step(t, tag, env, rates_, rng);
    const double controlled =
        controller.observe_dbm(link.received_power_dbm);

    TimelineRecord record;
    record.t_s = t;
    record.tag_position = pos;
    record.path_kind = link.path.kind;
    record.received_power_dbm = link.received_power_dbm;
    record.instantaneous_rate_bps = link.achievable_rate_bps;
    record.controlled_rate_bps = controlled;
    record.connected = link.achievable_rate_bps > 0.0;
    result.timeline.push_back(record);
  }

  // Summaries.
  std::size_t connected_steps = 0;
  double rate_sum = 0.0;
  for (const TimelineRecord& record : result.timeline) {
    if (record.connected) ++connected_steps;
    rate_sum += record.controlled_rate_bps;
    result.delivered_bits += record.controlled_rate_bps * config_.step_s;
  }
  const double steps = static_cast<double>(result.timeline.size());
  result.connectivity = connected_steps / steps;
  result.mean_rate_bps = rate_sum / steps;
  result.rate_switches = controller.switch_count();
  result.full_scans = tracker.full_scans_used();
  return result;
}

}  // namespace mmtag::sim
