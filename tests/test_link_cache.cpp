// Link-budget cache (src/deploy/link_cache): memoization, counters, and
// invalidation when a tag moves or the reader restarts.
#include "src/deploy/link_cache.hpp"

#include <gtest/gtest.h>

#include "src/channel/environment.hpp"
#include "src/core/tag.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/reader.hpp"

namespace mmtag::deploy {
namespace {

class LinkCacheTest : public ::testing::Test {
 protected:
  LinkCacheTest()
      : env_(channel::Environment::office_room()),
        rates_(phy::RateTable::mmtag_standard()),
        tag_(core::MmTag::prototype_at(core::Pose{{2.0, 1.0}, 3.14},
                                       /*id=*/7)) {}

  [[nodiscard]] LinkCache make_cache(bool enabled = true) const {
    return LinkCache(
        reader::MmWaveReader::prototype_at(core::Pose{{0.0, 1.0}, 0.0}),
        &env_, &rates_, enabled);
  }

  channel::Environment env_;
  phy::RateTable rates_;
  core::MmTag tag_;
};

TEST_F(LinkCacheTest, RepeatLookupsHitWithoutRetracing) {
  LinkCache cache = make_cache();
  const reader::LinkReport first = cache.link(tag_, /*beam_key=*/0, 0.0);
  for (int i = 0; i < 9; ++i) {
    const reader::LinkReport& again = cache.link(tag_, 0, 0.0);
    EXPECT_DOUBLE_EQ(again.received_power_dbm, first.received_power_dbm);
  }
  EXPECT_EQ(cache.stats().lookups, 10u);
  EXPECT_EQ(cache.stats().hits, 9u);
  EXPECT_EQ(cache.stats().raytrace_evals, 1u);
}

TEST_F(LinkCacheTest, MatchesUncachedReaderEvaluation) {
  LinkCache cache = make_cache();
  auto reference =
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 1.0}, 0.0});
  reference.steer_to_world(0.1);
  const reader::LinkReport expected =
      reference.evaluate_link(tag_, env_, rates_);
  const reader::LinkReport& cached = cache.link(tag_, 1, 0.1);
  EXPECT_DOUBLE_EQ(cached.received_power_dbm, expected.received_power_dbm);
  EXPECT_DOUBLE_EQ(cached.achievable_rate_bps, expected.achievable_rate_bps);
}

TEST_F(LinkCacheTest, DistinctBeamsShareOneRaytrace) {
  LinkCache cache = make_cache();
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(tag_, 1, 0.3);
  (void)cache.link(tag_, 2, -0.3);
  // Three different steerings, three report computations, but the geometry
  // was traced once: beams don't move the endpoints.
  EXPECT_EQ(cache.stats().raytrace_evals, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // And every (tag, beam) pair is now warm.
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(tag_, 2, -0.3);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST_F(LinkCacheTest, InvalidateOnMoveRecomputes) {
  LinkCache cache = make_cache();
  const double before = cache.link(tag_, 0, 0.0).received_power_dbm;

  // Move the tag 1 m closer; a stale cache would keep reporting `before`.
  tag_.set_pose(core::Pose{{1.0, 1.0}, 3.14});
  cache.invalidate_tag(tag_.id());
  const double after = cache.link(tag_, 0, 0.0).received_power_dbm;

  EXPECT_GT(after, before + 3.0);  // ~2x closer: about +12 dB two-way.
  EXPECT_EQ(cache.stats().raytrace_evals, 2u);

  // The fresh value must match a from-scratch evaluation at the new pose.
  auto reference =
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 1.0}, 0.0});
  reference.steer_to_world(0.0);
  EXPECT_DOUBLE_EQ(
      after, reference.evaluate_link(tag_, env_, rates_).received_power_dbm);
}

TEST_F(LinkCacheTest, InvalidateIsPerTag) {
  LinkCache cache = make_cache();
  const core::MmTag other =
      core::MmTag::prototype_at(core::Pose{{2.5, 1.5}, 3.0}, /*id=*/8);
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(other, 0, 0.0);
  cache.invalidate_tag(tag_.id());
  (void)cache.link(other, 0, 0.0);  // Still cached.
  (void)cache.link(tag_, 0, 0.0);   // Re-traced.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().raytrace_evals, 3u);
}

TEST_F(LinkCacheTest, InvalidateTagCountsEvictions) {
  LinkCache cache = make_cache();
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(tag_, 1, 0.3);
  cache.invalidate_tag(tag_.id());
  // Two memoized reports plus the traced path set.
  EXPECT_EQ(cache.stats().evictions, 3u);
  cache.invalidate_tag(tag_.id());  // Already gone: nothing to count.
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST_F(LinkCacheTest, InvalidateAllReturnsTheEvictedEntries) {
  LinkCache cache = make_cache();
  const core::MmTag other =
      core::MmTag::prototype_at(core::Pose{{2.5, 1.5}, 3.0}, /*id=*/8);
  (void)cache.link(tag_, 0, 0.0);
  (void)cache.link(tag_, 1, 0.3);
  (void)cache.link(other, 0, 0.0);

  // Everything goes: (2 reports + paths) + (1 report + paths).
  EXPECT_EQ(cache.invalidate_all(), 5u);
  EXPECT_EQ(cache.stats().evictions, 5u);

  // Cold again: the next lookup re-traces...
  (void)cache.link(tag_, 0, 0.0);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().raytrace_evals, 3u);
  // ...and a second flush evicts exactly the rebuilt entries.
  EXPECT_EQ(cache.invalidate_all(), 2u);
}

TEST_F(LinkCacheTest, DisabledCacheRetracesEveryLookup) {
  LinkCache cache = make_cache(/*enabled=*/false);
  const double a = cache.link(tag_, 0, 0.0).received_power_dbm;
  const double b = cache.link(tag_, 0, 0.0).received_power_dbm;
  EXPECT_DOUBLE_EQ(a, b);  // Same answer, just recomputed.
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().raytrace_evals, 2u);
}

}  // namespace
}  // namespace mmtag::deploy
