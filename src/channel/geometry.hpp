// Planar geometry for the azimuth-plane channel model.
//
// The simulation world is the 2-D azimuth plane (see src/antenna/pattern.hpp
// for why). Points are meters in a fixed world frame; angles are radians,
// measured counter-clockwise from the +x axis.
#pragma once

#include <optional>

namespace mmtag::channel {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  [[nodiscard]] Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  [[nodiscard]] Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  [[nodiscard]] Vec2 operator*(double s) const { return {x * s, y * s}; }

  [[nodiscard]] double dot(Vec2 o) const { return x * o.x + y * o.y; }
  /// 2-D cross product (z-component of the 3-D cross product).
  [[nodiscard]] double cross(Vec2 o) const { return x * o.y - y * o.x; }
  [[nodiscard]] double norm() const;
  [[nodiscard]] Vec2 normalized() const;
};

/// Euclidean distance between two points [m].
[[nodiscard]] double distance(Vec2 a, Vec2 b);

/// World-frame bearing of the direction from `from` to `to` [rad].
[[nodiscard]] double bearing_rad(Vec2 from, Vec2 to);

/// A finite line segment (wall, obstacle edge).
struct Segment {
  Vec2 a;
  Vec2 b;

  [[nodiscard]] double length() const { return distance(a, b); }
  /// Unit vector along the segment.
  [[nodiscard]] Vec2 direction() const { return (b - a).normalized(); }
};

/// Intersection point of segments `p` and `q`, if they properly intersect
/// (shared endpoints count as intersections).
[[nodiscard]] std::optional<Vec2> intersect(const Segment& p,
                                            const Segment& q);

/// True if the open segment from `a` to `b` crosses `blocker`.
/// Touching an endpoint of the path does not count (a wall at the reader's
/// own position must not block the reader).
[[nodiscard]] bool blocks(const Segment& blocker, Vec2 a, Vec2 b);

/// Mirror image of point `p` across the infinite line through `s`.
[[nodiscard]] Vec2 mirror_across(const Segment& s, Vec2 p);

}  // namespace mmtag::channel
