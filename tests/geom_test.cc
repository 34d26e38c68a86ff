#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "geom/circular_interval.h"
#include "geom/rect.h"

namespace simq {
namespace {

TEST(RectTest, FromPointIsDegenerate) {
  const Rect rect = Rect::FromPoint({1.0, 2.0});
  EXPECT_EQ(rect.dims(), 2);
  EXPECT_DOUBLE_EQ(rect.lo(0), 1.0);
  EXPECT_DOUBLE_EQ(rect.hi(0), 1.0);
  EXPECT_DOUBLE_EQ(rect.lo(1), rect.hi(1));
  EXPECT_FALSE(rect.IsEmpty());
}

TEST(RectTest, EmptyRect) {
  Rect rect = Rect::Empty(3);
  EXPECT_TRUE(rect.IsEmpty());
  rect.ExpandToInclude(Rect::FromPoint({1.0, 1.0, 1.0}));
  EXPECT_FALSE(rect.IsEmpty());
  EXPECT_DOUBLE_EQ(rect.lo(0), 1.0);
}

TEST(RectTest, OverlapsAndContains) {
  const Rect a = Rect::FromBounds({0.0, 0.0}, {4.0, 4.0});
  const Rect b = Rect::FromBounds({2.0, 2.0}, {6.0, 6.0});
  const Rect c = Rect::FromBounds({5.0, 5.0}, {7.0, 7.0});
  const Rect inner = Rect::FromBounds({1.0, 1.0}, {2.0, 2.0});
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(b.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(c));
  EXPECT_TRUE(a.Contains(inner));
  EXPECT_FALSE(inner.Contains(a));
  EXPECT_TRUE(a.ContainsPoint({0.0, 4.0}));  // boundary inclusive
  EXPECT_FALSE(a.ContainsPoint({4.1, 0.0}));
}

TEST(RectTest, TouchingRectsOverlap) {
  const Rect a = Rect::FromBounds({0.0}, {1.0});
  const Rect b = Rect::FromBounds({1.0}, {2.0});
  EXPECT_TRUE(a.Overlaps(b));
}

TEST(RectTest, UnionCoversBoth) {
  const Rect a = Rect::FromBounds({0.0, 0.0}, {2.0, 2.0});
  const Rect b = Rect::FromBounds({3.0, 3.0}, {4.0, 4.0});
  const Rect u = Rect::Union(a, b);
  EXPECT_DOUBLE_EQ(u.lo(0), 0.0);
  EXPECT_DOUBLE_EQ(u.hi(1), 4.0);
  EXPECT_TRUE(u.Contains(a));
  EXPECT_TRUE(u.Contains(b));
}

TEST(CircularIntervalTest, NormalizeAngle) {
  EXPECT_NEAR(NormalizeAngle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(NormalizeAngle(2.0 * M_PI), 0.0, 1e-12);
  EXPECT_NEAR(NormalizeAngle(3.0 * M_PI), -M_PI, 1e-12);
  EXPECT_NEAR(NormalizeAngle(-M_PI), -M_PI, 1e-12);
  EXPECT_NEAR(NormalizeAngle(M_PI), -M_PI, 1e-12);  // pi wraps to -pi
  EXPECT_NEAR(NormalizeAngle(M_PI / 2 + 4.0 * M_PI), M_PI / 2, 1e-12);
}

TEST(CircularIntervalTest, ContainsSimple) {
  const CircularInterval arc = CircularInterval::FromCenter(0.0, 0.5);
  EXPECT_TRUE(arc.Contains(0.0));
  EXPECT_TRUE(arc.Contains(0.49));
  EXPECT_TRUE(arc.Contains(-0.49));
  EXPECT_FALSE(arc.Contains(0.6));
  EXPECT_FALSE(arc.Contains(M_PI));
}

TEST(CircularIntervalTest, ContainsAcrossWrap) {
  // Arc centered at pi crosses the +-pi boundary.
  const CircularInterval arc = CircularInterval::FromCenter(M_PI, 0.5);
  EXPECT_TRUE(arc.Contains(M_PI - 0.3));
  EXPECT_TRUE(arc.Contains(-M_PI + 0.3));
  EXPECT_FALSE(arc.Contains(0.0));
}

TEST(CircularIntervalTest, FullCircleContainsEverything) {
  const CircularInterval full = CircularInterval::FullCircle();
  EXPECT_TRUE(full.is_full());
  for (double angle = -3.1; angle < 3.2; angle += 0.37) {
    EXPECT_TRUE(full.Contains(angle));
  }
}

TEST(CircularIntervalTest, HalfWidthAtLeastPiIsFull) {
  EXPECT_TRUE(CircularInterval::FromCenter(1.0, M_PI).is_full());
  EXPECT_TRUE(CircularInterval::FromCenter(1.0, 10.0).is_full());
  EXPECT_FALSE(CircularInterval::FromCenter(1.0, 3.0).is_full());
}

TEST(CircularIntervalTest, OverlapsBasic) {
  const CircularInterval a = CircularInterval::FromCenter(0.0, 0.5);
  const CircularInterval b = CircularInterval::FromCenter(0.8, 0.5);
  const CircularInterval c = CircularInterval::FromCenter(2.5, 0.4);
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(b.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(c));
  EXPECT_TRUE(b.Overlaps(CircularInterval::FullCircle()));
}

TEST(CircularIntervalTest, OverlapsAcrossWrap) {
  const CircularInterval near_pi = CircularInterval::FromCenter(M_PI, 0.3);
  const CircularInterval near_minus_pi =
      CircularInterval::FromCenter(-M_PI + 0.1, 0.3);
  EXPECT_TRUE(near_pi.Overlaps(near_minus_pi));
  const CircularInterval near_zero = CircularInterval::FromCenter(0.0, 0.3);
  EXPECT_FALSE(near_pi.Overlaps(near_zero));
}

TEST(CircularIntervalTest, ContainedArcOverlaps) {
  const CircularInterval big = CircularInterval::FromCenter(1.0, 1.0);
  const CircularInterval small = CircularInterval::FromCenter(1.0, 0.1);
  EXPECT_TRUE(big.Overlaps(small));
  EXPECT_TRUE(small.Overlaps(big));
}

TEST(CircularIntervalTest, RotatedMovesArc) {
  const CircularInterval arc = CircularInterval::FromCenter(0.0, 0.2);
  const CircularInterval rotated = arc.Rotated(M_PI);
  EXPECT_TRUE(rotated.Contains(M_PI - 0.1));
  EXPECT_TRUE(rotated.Contains(-M_PI + 0.1));
  EXPECT_FALSE(rotated.Contains(0.0));
}

TEST(CircularIntervalTest, RotationPreservesExtent) {
  const CircularInterval arc = CircularInterval::FromBounds(0.5, 1.7);
  const CircularInterval rotated = arc.Rotated(2.9);
  EXPECT_NEAR(rotated.extent(), arc.extent(), 1e-12);
}

TEST(CircularIntervalTest, AngularDistance) {
  const CircularInterval arc = CircularInterval::FromCenter(0.0, 0.5);
  EXPECT_DOUBLE_EQ(arc.AngularDistance(0.2), 0.0);
  EXPECT_NEAR(arc.AngularDistance(1.0), 0.5, 1e-12);
  EXPECT_NEAR(arc.AngularDistance(-1.0), 0.5, 1e-12);
  EXPECT_NEAR(arc.AngularDistance(M_PI), M_PI - 0.5, 1e-12);
}

TEST(CircularIntervalTest, OverlapConsistentWithSampling) {
  // Property check: Overlaps agrees with dense sampling of both arcs.
  for (int trial = 0; trial < 200; ++trial) {
    const double c1 = -M_PI + 2.0 * M_PI * (trial % 20) / 20.0;
    const double w1 = 0.05 + 0.12 * (trial % 7);
    const double c2 = -M_PI + 2.0 * M_PI * ((trial * 13) % 25) / 25.0;
    const double w2 = 0.05 + 0.1 * (trial % 5);
    const CircularInterval a = CircularInterval::FromCenter(c1, w1);
    const CircularInterval b = CircularInterval::FromCenter(c2, w2);
    bool sampled_overlap = false;
    for (int s = 0; s <= 300; ++s) {
      const double angle = c1 - w1 + 2.0 * w1 * s / 300.0;
      if (b.Contains(NormalizeAngle(angle))) {
        sampled_overlap = true;
        break;
      }
    }
    EXPECT_EQ(a.Overlaps(b), sampled_overlap)
        << "c1=" << c1 << " w1=" << w1 << " c2=" << c2 << " w2=" << w2;
  }
}

}  // namespace
}  // namespace simq
