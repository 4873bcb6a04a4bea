// The contrast anchor every ablation states (bench::check_contrast): the
// changed run must differ from its baseline by at least a stated factor in
// a stated direction, or the anchor fails. A vacuous ablation — one whose
// change moves nothing — must therefore fail, whichever way it is asked.
#include <gtest/gtest.h>

#include "common.h"

namespace fbdcsim::bench {
namespace {

/// The verdict of one contrast anchor over (baseline, changed).
bool passes(double baseline, double changed, double factor, Direction direction) {
  Anchors anchors;
  check_contrast(anchors, "t", "contrast", baseline, changed, factor, direction);
  return anchors.back().pass();
}

TEST(ContrastAnchorTest, EqualBaselineAndChangedFail) {
  for (const Direction d : {Direction::kUp, Direction::kDown}) {
    EXPECT_FALSE(passes(5.0, 5.0, 2.0, d));
    EXPECT_FALSE(passes(5.0, 5.0, 1.0001, d));
  }
}

TEST(ContrastAnchorTest, ZeroOverZeroFails) {
  for (const Direction d : {Direction::kUp, Direction::kDown}) {
    EXPECT_FALSE(passes(0.0, 0.0, 2.0, d));
  }
}

TEST(ContrastAnchorTest, ChangeInTheWrongDirectionFails) {
  EXPECT_FALSE(passes(10.0, 1.0, 2.0, Direction::kUp));
  EXPECT_FALSE(passes(1.0, 10.0, 2.0, Direction::kDown));
  // From or to zero the wrong way.
  EXPECT_FALSE(passes(10.0, 0.0, 2.0, Direction::kUp));
  EXPECT_FALSE(passes(0.0, 10.0, 2.0, Direction::kDown));
}

TEST(ContrastAnchorTest, OnlyTheStatedDirectionPasses) {
  EXPECT_TRUE(passes(1.0, 10.0, 2.0, Direction::kUp));
  EXPECT_FALSE(passes(1.0, 10.0, 2.0, Direction::kDown));
  EXPECT_TRUE(passes(10.0, 1.0, 2.0, Direction::kDown));
  EXPECT_FALSE(passes(10.0, 1.0, 2.0, Direction::kUp));
  // A move from or to zero is an unbounded fold change in its direction.
  EXPECT_TRUE(passes(0.0, 3.0, 2.0, Direction::kUp));
  EXPECT_TRUE(passes(3.0, 0.0, 2.0, Direction::kDown));
}

TEST(ContrastAnchorTest, FoldMustReachTheFactor) {
  EXPECT_FALSE(passes(1.0, 1.9, 2.0, Direction::kUp));
  EXPECT_TRUE(passes(1.0, 2.0, 2.0, Direction::kUp));
  EXPECT_FALSE(passes(1.9, 1.0, 2.0, Direction::kDown));
  EXPECT_TRUE(passes(2.0, 1.0, 2.0, Direction::kDown));
  Anchors anchors;
  check_contrast(anchors, "t", "contrast", 4.0, 1.0, 2.0, Direction::kDown);
  EXPECT_DOUBLE_EQ(anchors.back().measured, 4.0);
  EXPECT_DOUBLE_EQ(anchors.back().lo, 2.0);
}

}  // namespace
}  // namespace fbdcsim::bench
