// Framed-slotted-Aloha tests (src/mac/aloha).
#include "src/mac/aloha.hpp"

#include <gtest/gtest.h>

#include "src/sim/rng.hpp"

namespace mmtag::mac {
namespace {

TEST(Aloha, ZeroTagsIsTrivial) {
  auto rng = sim::make_rng(41);
  const AlohaStats stats = run_framed_aloha(0, AlohaConfig{}, rng);
  EXPECT_EQ(stats.tags_read, 0);
  EXPECT_EQ(stats.rounds, 0);
  EXPECT_EQ(stats.slots_total, 0);
}

TEST(Aloha, SingleTagReadsQuickly) {
  auto rng = sim::make_rng(42);
  AlohaConfig config;
  config.slot_success_probability = 1.0;
  const AlohaStats stats = run_framed_aloha(1, config, rng);
  EXPECT_EQ(stats.tags_read, 1);
  EXPECT_EQ(stats.slots_collision, 0);
}

TEST(Aloha, AllTagsEventuallyRead) {
  auto rng = sim::make_rng(43);
  const AlohaStats stats = run_framed_aloha(40, AlohaConfig{}, rng);
  EXPECT_EQ(stats.tags_read, 40);
  EXPECT_EQ(stats.tags_total, 40);
  EXPECT_GT(stats.rounds, 1);
}

TEST(Aloha, AccountingAddsUp) {
  auto rng = sim::make_rng(44);
  const AlohaStats stats = run_framed_aloha(25, AlohaConfig{}, rng);
  EXPECT_EQ(stats.slots_total,
            stats.slots_success + stats.slots_collision + stats.slots_empty);
}

TEST(Aloha, LinkErrorsCostSlots) {
  auto rng = sim::make_rng(47);
  AlohaConfig reliable;
  reliable.slot_success_probability = 1.0;
  AlohaConfig lossy;
  lossy.slot_success_probability = 0.5;
  long reliable_slots = 0;
  long lossy_slots = 0;
  constexpr int kReps = 20;
  for (int i = 0; i < kReps; ++i) {
    reliable_slots += run_framed_aloha(16, reliable, rng).slots_total;
    lossy_slots += run_framed_aloha(16, lossy, rng).slots_total;
  }
  EXPECT_GT(lossy_slots, reliable_slots);
}

TEST(Aloha, MaxRoundsBoundsWork) {
  auto rng = sim::make_rng(48);
  AlohaConfig config;
  // Frames of 1, 2 and 4 slots at most: 3 rounds cannot read 10 tags.
  config.initial_q = 0;
  config.max_rounds = 3;
  const AlohaStats stats = run_framed_aloha(10, config, rng);
  EXPECT_LE(stats.rounds, 3);
  EXPECT_LT(stats.tags_read, 10);
}

// Property: EPC eventually reads every tag across population sizes
// (seeded, generous round budget).
class AlohaCompletionTest : public ::testing::TestWithParam<int> {};

TEST_P(AlohaCompletionTest, ReadsEveryone) {
  const int tags = GetParam();
  auto rng = sim::make_rng(49 + static_cast<unsigned>(tags));
  AlohaConfig config;
  config.max_rounds = 512;
  const AlohaStats stats = run_framed_aloha(tags, config, rng);
  EXPECT_EQ(stats.tags_read, tags);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlohaCompletionTest,
                         ::testing::Values(5, 50));

}  // namespace
}  // namespace mmtag::mac
