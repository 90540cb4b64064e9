// Scenario engine: a ready-made time-stepped experiment loop.
//
// Every mobility experiment in this repo (and any a downstream user would
// write) has the same skeleton: move the tag and the blockers, rebuild the
// environment, let the reader's tracker re-aim, adapt the rate, log a
// record. LinkScenario packages that loop — configure entities and
// policies, call run(), get a timeline plus summary statistics.
#pragma once

#include <memory>
#include <vector>

#include "src/channel/environment.hpp"
#include "src/channel/mobility.hpp"
#include "src/core/tag.hpp"
#include "src/phy/rate_adaptation.hpp"
#include "src/reader/tracking.hpp"

namespace mmtag::sim {

/// How the tag's boresight evolves along its trajectory.
enum class TagOrientation {
  kFaceReader,      ///< Always faces the reader (worn/badge-like).
  kFollowVelocity,  ///< Faces the direction of motion (vehicle/headset).
};

/// One simulation step's observables.
struct TimelineRecord {
  double t_s = 0.0;
  channel::Vec2 tag_position;
  channel::PathKind path_kind = channel::PathKind::kLineOfSight;
  double received_power_dbm = -300.0;
  double instantaneous_rate_bps = 0.0;  ///< Rate table on this step's link.
  double controlled_rate_bps = 0.0;     ///< Rate in force (hysteresis).
  bool connected = false;
};

struct ScenarioResult {
  std::vector<TimelineRecord> timeline;
  double connectivity = 0.0;       ///< Fraction of steps with a link.
  double mean_rate_bps = 0.0;      ///< Average of the controlled rate.
  double delivered_bits = 0.0;     ///< Controlled rate integrated over time.
  int rate_switches = 0;           ///< Controller switch count.
  int full_scans = 0;              ///< Tracker re-acquisitions.
};

class LinkScenario {
 public:
  struct Config {
    double step_s = 0.1;
    TagOrientation orientation = TagOrientation::kFaceReader;
    phy::RateController::Params rate_control;
    reader::BeamTracker::Params tracking;
  };

  /// `reader` is the fixed observer; the tag follows `tag_trajectory`.
  LinkScenario(reader::MmWaveReader reader, phy::RateTable rates,
               Config config);

  /// Static surroundings (walls reflect, obstacles block).
  void set_static_environment(channel::Environment environment);

  /// The tag's path over time (required before run()).
  void set_tag_trajectory(std::shared_ptr<const channel::Mobility> path);

  /// A moving blocker: an opaque segment of `half_width_m` centred on the
  /// mobility's position, oriented across the room (vertical segment).
  void add_moving_blocker(std::shared_ptr<const channel::Mobility> path,
                          double half_width_m = 0.15);

  /// Run for `duration_s`, deterministic under `seed`.
  [[nodiscard]] ScenarioResult run(double duration_s, std::uint64_t seed);

 private:
  reader::MmWaveReader reader_;
  phy::RateTable rates_;
  Config config_;
  channel::Environment static_env_;
  std::shared_ptr<const channel::Mobility> tag_path_;
  struct Blocker {
    std::shared_ptr<const channel::Mobility> path;
    double half_width_m;
  };
  std::vector<Blocker> blockers_;
};

}  // namespace mmtag::sim
