// Ray tracing between a reader and a tag: LOS plus first-order reflections.
//
// mmWave links are dominated by the LOS ray and a handful of strong
// specular reflections (sparse channel), so a first-order image method
// captures the behaviour the paper relies on: the link works over LOS when
// available and falls back to a wall bounce when a blocker cuts LOS
// (Sec. 4). Each returned path carries the geometry the antenna layer needs
// (departure/arrival bearings) and the extra loss beyond distance
// (reflection, blockage penetration).
#pragma once

#include <vector>

#include "src/channel/environment.hpp"
#include "src/channel/geometry.hpp"

namespace mmtag::channel {

enum class PathKind { kLineOfSight, kReflected };

/// One propagation path from point A (reader) to point B (tag).
struct Path {
  PathKind kind = PathKind::kLineOfSight;
  /// Total travelled length [m] (unfolded for reflections).
  double length_m = 0.0;
  /// World-frame bearing at which the path leaves A [rad].
  double departure_rad = 0.0;
  /// World-frame bearing at which the path *arrives* at B, i.e. the
  /// direction from B back toward the last scatterer/source [rad].
  double arrival_rad = 0.0;
  /// Losses beyond free space: reflection and/or penetration [dB].
  double excess_loss_db = 0.0;
  /// Index of the wall the path bounced off (kReflected only).
  int wall_index = -1;
};

/// Enumerate propagation paths from `a` to `b` in `env`:
///  * the LOS path — always returned; if an obstacle cuts it, the obstacle's
///    penetration loss is added to `excess_loss_db` (mmWave does not usefully
///    penetrate, so such a path is typically below noise — exactly the
///    behaviour the NLOS experiment checks);
///  * one path per wall with a valid specular reflection point, both legs
///    clear of obstacles, carrying the wall's reflection loss.
/// Paths are sorted by increasing excess loss, then length.
[[nodiscard]] std::vector<Path> trace_paths(const Environment& env, Vec2 a,
                                            Vec2 b);

}  // namespace mmtag::channel
