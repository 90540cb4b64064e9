// SoA tag store (src/scale/tag_store): column layout, slot stability,
// free-list recycling, service reset.
#include "src/scale/tag_store.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mmtag::scale {
namespace {

TEST(TagStore, DenseCreationAssignsSequentialSlots) {
  TagStore store;
  store.reserve(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const TagSlot slot = store.create(100 + i, 1.0 * i, 2.0 * i, 0.1 * i);
    EXPECT_EQ(slot, i);
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.slots(), 4u);
  EXPECT_EQ(store.ids()[2], 102u);
  EXPECT_DOUBLE_EQ(store.xs()[3], 3.0);
  EXPECT_DOUBLE_EQ(store.ys()[3], 6.0);
  EXPECT_DOUBLE_EQ(store.orientations()[1], 0.1);
}

TEST(TagStore, ServiceStateStartsZeroedWithInfiniteFirstRead) {
  TagStore store;
  const TagSlot slot = store.create(7, 0.0, 0.0, 0.0, 5e-6);
  EXPECT_EQ(store.read_flags()[slot], 0);
  EXPECT_TRUE(std::isinf(store.first_read_s()[slot]));
  EXPECT_DOUBLE_EQ(store.delivered_bits()[slot], 0.0);
  EXPECT_EQ(store.polls()[slot], 0L);
  EXPECT_DOUBLE_EQ(store.energies()[slot], 5e-6);
}

TEST(TagStore, DestroyRecyclesSlotWithoutMovingOthers) {
  TagStore store;
  const TagSlot a = store.create(1, 1.0, 1.0, 0.0);
  const TagSlot b = store.create(2, 2.0, 2.0, 0.0);
  const TagSlot c = store.create(3, 3.0, 3.0, 0.0);
  store.destroy(b);
  EXPECT_FALSE(store.alive(b));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.slots(), 3u);  // Columns keep their length.
  // Neighbours did not move.
  EXPECT_DOUBLE_EQ(store.xs()[a], 1.0);
  EXPECT_DOUBLE_EQ(store.xs()[c], 3.0);
  // The freed slot is recycled before any append.
  const TagSlot d = store.create(4, 4.0, 4.0, 0.0);
  EXPECT_EQ(d, b);
  EXPECT_TRUE(store.alive(d));
  EXPECT_EQ(store.ids()[d], 4u);
  EXPECT_EQ(store.read_flags()[d], 0);  // Service state re-zeroed.
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.slots(), 3u);
}

TEST(TagStore, DoubleDestroyIsIdempotent) {
  TagStore store;
  const TagSlot a = store.create(1, 0.0, 0.0, 0.0);
  store.destroy(a);
  store.destroy(a);
  EXPECT_EQ(store.size(), 0u);
  const TagSlot b = store.create(2, 0.0, 0.0, 0.0);
  EXPECT_EQ(b, a);
  const TagSlot c = store.create(3, 0.0, 0.0, 0.0);
  EXPECT_EQ(c, 1u);  // Free-list held one entry, not two.
}

TEST(TagStore, ResetServiceClearsMacColumnsOnly) {
  TagStore store;
  const TagSlot slot = store.create(9, 1.5, 2.5, 0.3, 4e-6);
  store.read_flags()[slot] = 1;
  store.first_read_s()[slot] = 0.75;
  store.delivered_bits()[slot] = 96.0;
  store.polls()[slot] = 3;
  store.reset_service();
  EXPECT_EQ(store.read_flags()[slot], 0);
  EXPECT_TRUE(std::isinf(store.first_read_s()[slot]));
  EXPECT_DOUBLE_EQ(store.delivered_bits()[slot], 0.0);
  EXPECT_EQ(store.polls()[slot], 0L);
  // Pose and energy survive.
  EXPECT_DOUBLE_EQ(store.xs()[slot], 1.5);
  EXPECT_DOUBLE_EQ(store.ys()[slot], 2.5);
  EXPECT_DOUBLE_EQ(store.energies()[slot], 4e-6);
}

TEST(TagStore, SetPositionWritesColumns) {
  TagStore store;
  const TagSlot slot = store.create(1, 0.0, 0.0, 0.0);
  store.set_position(slot, 10.0, 20.0);
  store.set_orientation(slot, 1.25);
  EXPECT_DOUBLE_EQ(store.xs()[slot], 10.0);
  EXPECT_DOUBLE_EQ(store.ys()[slot], 20.0);
  EXPECT_DOUBLE_EQ(store.orientations()[slot], 1.25);
}

}  // namespace
}  // namespace mmtag::scale
