// Unit tests of the reference R-tree (index/rtree.h) against brute force:
// STR bulk loading builds a well-formed tree, and every traversal (range
// search with and without a transformation, generic search, kNN, self and
// cross joins) returns exactly the brute-force answers.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "geom/search_region.h"
#include "index/rtree.h"
#include "util/random.h"

namespace simq {
namespace {

struct TreeCase {
  int dims;
  int count;
  int max_entries;
};

std::vector<Point> RandomPoints(Random* rng, int count, int dims,
                                double lo = -100.0, double hi = 100.0) {
  std::vector<Point> points(static_cast<size_t>(count));
  for (Point& p : points) {
    p.resize(static_cast<size_t>(dims));
    for (double& v : p) {
      v = rng->UniformDouble(lo, hi);
    }
  }
  return points;
}

// A tree bulk-loaded with points[i] as entry i.
std::unique_ptr<RTree> BulkLoaded(int dims, const std::vector<Point>& points,
                                  RTree::Options options = RTree::Options()) {
  auto tree = std::make_unique<RTree>(dims, options);
  std::vector<std::pair<Rect, int64_t>> entries;
  for (size_t i = 0; i < points.size(); ++i) {
    entries.emplace_back(Rect::FromPoint(points[i]), static_cast<int64_t>(i));
  }
  tree->BulkLoad(std::move(entries));
  return tree;
}

// Structure of a bulk-loaded tree: no node over the fanout, children one
// level below their parent, every internal entry rect exactly its child's
// MBR, and each id in exactly one leaf.
void ExpectWellFormed(const RTree& tree, int max_entries) {
  std::multiset<int64_t> ids;
  std::vector<const RTree::Node*> nodes = {tree.root()};
  for (size_t head = 0; head < nodes.size(); ++head) {
    const RTree::Node& node = *nodes[head];
    ASSERT_LE(node.num_entries(), max_entries);
    ASSERT_EQ(node.is_leaf, node.level == 0);
    if (node.is_leaf) {
      ids.insert(node.ids.begin(), node.ids.end());
      continue;
    }
    ASSERT_EQ(node.children.size(), node.rects.size());
    for (size_t e = 0; e < node.children.size(); ++e) {
      const RTree::Node& child = *node.children[e];
      ASSERT_EQ(child.level, node.level - 1);
      Rect mbr = Rect::Empty(tree.dims());
      for (const Rect& rect : child.rects) {
        mbr.ExpandToInclude(rect);
      }
      ASSERT_TRUE(node.rects[e].Contains(mbr) && mbr.Contains(node.rects[e]));
      nodes.push_back(&child);
    }
  }
  EXPECT_EQ(static_cast<int64_t>(ids.size()), tree.size());
  EXPECT_EQ(std::set<int64_t>(ids.begin(), ids.end()).size(), ids.size());
  EXPECT_EQ(static_cast<int64_t>(nodes.size()), tree.node_count());
}

class RTreeCaseTest : public ::testing::TestWithParam<TreeCase> {};

TEST_P(RTreeCaseTest, BulkLoadIsWellFormed) {
  const TreeCase c = GetParam();
  Random rng(100 + static_cast<uint64_t>(c.count * c.dims));
  RTree::Options options;
  options.max_entries = c.max_entries;
  const std::unique_ptr<RTree> tree =
      BulkLoaded(c.dims, RandomPoints(&rng, c.count, c.dims), options);
  EXPECT_EQ(tree->size(), c.count);
  EXPECT_GE(tree->height(), 1);
  ExpectWellFormed(*tree, c.max_entries);
}

TEST_P(RTreeCaseTest, RangeSearchMatchesBruteForce) {
  const TreeCase c = GetParam();
  Random rng(200 + static_cast<uint64_t>(c.count * c.dims));
  RTree::Options options;
  options.max_entries = c.max_entries;
  const std::vector<Point> points = RandomPoints(&rng, c.count, c.dims);
  const std::unique_ptr<RTree> tree = BulkLoaded(c.dims, points, options);

  for (int query = 0; query < 25; ++query) {
    Point lo(static_cast<size_t>(c.dims));
    Point hi(static_cast<size_t>(c.dims));
    for (int d = 0; d < c.dims; ++d) {
      const double a = rng.UniformDouble(-110.0, 110.0);
      const double b = rng.UniformDouble(-110.0, 110.0);
      lo[static_cast<size_t>(d)] = std::min(a, b);
      hi[static_cast<size_t>(d)] = std::max(a, b);
    }
    const Rect box = Rect::FromBounds(lo, hi);

    std::set<int64_t> expected;
    for (size_t i = 0; i < points.size(); ++i) {
      if (box.ContainsPoint(points[i])) {
        expected.insert(static_cast<int64_t>(i));
      }
    }

    std::set<int64_t> actual;
    tree->SearchGeneric(
        [&](const Rect& rect) { return box.Overlaps(rect); },
        [&](const Rect& rect, int64_t) {
          Point p(static_cast<size_t>(c.dims));
          for (int d = 0; d < c.dims; ++d) {
            p[static_cast<size_t>(d)] = rect.lo(d);
          }
          return box.ContainsPoint(p);
        },
        [&](int64_t id) { actual.insert(id); });
    EXPECT_EQ(actual, expected) << "query " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RTreeCaseTest,
    ::testing::Values(TreeCase{2, 100, 8}, TreeCase{2, 2000, 32},
                      TreeCase{4, 500, 16}, TreeCase{6, 1500, 32},
                      TreeCase{3, 50, 4}, TreeCase{5, 777, 5}));

TEST(RTreeTest, EmptyTreeBehaves) {
  RTree tree(2);
  tree.BulkLoad({});
  EXPECT_EQ(tree.size(), 0);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.root()->num_entries(), 0);
  std::vector<int64_t> results;
  FeatureConfig config;
  config.num_coefficients = 1;
  config.space = FeatureSpace::kRectangular;
  config.include_mean_std = false;
  const SearchRegion region = SearchRegion::MakeRange(
      {Complex(0.0, 0.0)}, 1.0, config);
  tree.Search(region, nullptr, &results);
  EXPECT_TRUE(results.empty());
}

TEST(RTreeTest, DuplicatePointsSupported) {
  const std::unique_ptr<RTree> tree =
      BulkLoaded(2, std::vector<Point>(100, Point{1.0, 2.0}));
  EXPECT_EQ(tree->size(), 100);
  ExpectWellFormed(*tree, RTree::Options().max_entries);
  std::set<int64_t> found;
  const Rect box = Rect::FromBounds({0.0, 0.0}, {3.0, 3.0});
  tree->SearchGeneric([&](const Rect& r) { return box.Overlaps(r); },
                      [&](const Rect&, int64_t) { return true; },
                      [&](int64_t id) { found.insert(id); });
  EXPECT_EQ(found.size(), 100u);
}

TEST(RTreeTest, SearchRegionIdentityMatchesBruteForce) {
  Random rng(66);
  FeatureConfig config;
  config.num_coefficients = 2;
  config.space = FeatureSpace::kRectangular;
  config.include_mean_std = false;
  const std::vector<Point> points = RandomPoints(&rng, 800, 4, -3.0, 3.0);
  const std::unique_ptr<RTree> tree_ptr =
      BulkLoaded(FeatureDimension(config), points);
  const RTree& tree = *tree_ptr;
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<Complex> query = {
        Complex(rng.UniformDouble(-3.0, 3.0), rng.UniformDouble(-3.0, 3.0)),
        Complex(rng.UniformDouble(-3.0, 3.0), rng.UniformDouble(-3.0, 3.0))};
    const double eps = rng.UniformDouble(0.2, 2.0);
    const SearchRegion region = SearchRegion::MakeRange(query, eps, config);
    std::set<int64_t> expected;
    for (size_t i = 0; i < points.size(); ++i) {
      if (region.ContainsPoint(points[i])) {
        expected.insert(static_cast<int64_t>(i));
      }
    }
    std::vector<int64_t> results;
    tree.Search(region, nullptr, &results);
    EXPECT_EQ(std::set<int64_t>(results.begin(), results.end()), expected);
  }
}

TEST(RTreeTest, TransformedSearchMatchesBruteForce) {
  // Algorithm 2 end-to-end at the index level, polar space with a complex
  // multiplier (safe by Theorem 3).
  Random rng(77);
  FeatureConfig config;
  config.num_coefficients = 2;
  config.space = FeatureSpace::kPolar;
  config.include_mean_std = false;
  std::vector<Point> points;
  for (int i = 0; i < 1000; ++i) {
    const std::vector<Complex> coeffs = {
        Complex(rng.UniformDouble(-2.0, 2.0), rng.UniformDouble(-2.0, 2.0)),
        Complex(rng.UniformDouble(-2.0, 2.0), rng.UniformDouble(-2.0, 2.0))};
    points.push_back(CoefficientsToCoords(coeffs, FeatureSpace::kPolar));
  }
  const std::unique_ptr<RTree> tree_ptr =
      BulkLoaded(FeatureDimension(config), points);
  const RTree& tree = *tree_ptr;

  for (int trial = 0; trial < 20; ++trial) {
    const LinearTransform transform(
        {Complex(rng.UniformDouble(-1.5, 1.5), rng.UniformDouble(-1.5, 1.5)),
         Complex(rng.UniformDouble(-1.5, 1.5), rng.UniformDouble(-1.5, 1.5))},
        {Complex(0.0, 0.0), Complex(0.0, 0.0)});
    const std::vector<DimAffine> affines =
        LowerToFeatureSpace(transform, config);
    const std::vector<Complex> query = {
        Complex(rng.UniformDouble(-2.0, 2.0), rng.UniformDouble(-2.0, 2.0)),
        Complex(rng.UniformDouble(-2.0, 2.0), rng.UniformDouble(-2.0, 2.0))};
    const double eps = rng.UniformDouble(0.3, 1.5);
    const SearchRegion region = SearchRegion::MakeRange(query, eps, config);

    std::set<int64_t> expected;
    for (size_t i = 0; i < points.size(); ++i) {
      if (region.ContainsTransformedPoint(points[i], affines)) {
        expected.insert(static_cast<int64_t>(i));
      }
    }
    std::vector<int64_t> results;
    tree.Search(region, &affines, &results);
    EXPECT_EQ(std::set<int64_t>(results.begin(), results.end()), expected)
        << "trial " << trial;
  }
}

TEST(RTreeTest, NearestNeighborsMatchBruteForce) {
  Random rng(88);
  FeatureConfig config;
  config.num_coefficients = 2;
  config.space = FeatureSpace::kRectangular;
  config.include_mean_std = false;
  const std::vector<Point> points = RandomPoints(&rng, 600, 4, -5.0, 5.0);
  const std::unique_ptr<RTree> tree_ptr =
      BulkLoaded(FeatureDimension(config), points);
  const RTree& tree = *tree_ptr;

  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<Complex> query = {
        Complex(rng.UniformDouble(-5.0, 5.0), rng.UniformDouble(-5.0, 5.0)),
        Complex(rng.UniformDouble(-5.0, 5.0), rng.UniformDouble(-5.0, 5.0))};
    const NnLowerBound bound(query, config);
    const std::vector<DimAffine> identity(4);

    auto exact = [&](int64_t id) {
      return bound.ToTransformedPoint(points[static_cast<size_t>(id)],
                                      identity);
    };
    const int k = 7;
    const auto result = tree.NearestNeighbors(bound, nullptr, k, exact);
    ASSERT_EQ(static_cast<int>(result.size()), k);

    std::vector<double> all;
    for (size_t i = 0; i < points.size(); ++i) {
      all.push_back(exact(static_cast<int64_t>(i)));
    }
    std::sort(all.begin(), all.end());
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(result[static_cast<size_t>(i)].second,
                  all[static_cast<size_t>(i)], 1e-9)
          << "rank " << i;
    }
    // Results must come back sorted.
    for (int i = 1; i < k; ++i) {
      EXPECT_LE(result[static_cast<size_t>(i - 1)].second,
                result[static_cast<size_t>(i)].second + 1e-12);
    }
  }
}

// Conservative epsilon pair predicate: rectangles whose per-dimension gap
// is at most eps. Exact for point entries under the Chebyshev metric.
bool WithinEps(const Rect& a, const Rect& b, double eps) {
  for (int d = 0; d < a.dims(); ++d) {
    if (a.lo(d) > b.hi(d) + eps || b.lo(d) > a.hi(d) + eps) {
      return false;
    }
  }
  return true;
}

TEST(RTreeTest, SynchronizedSelfJoinMatchesBruteForce) {
  Random rng(222);
  const std::vector<Point> points = RandomPoints(&rng, 400, 3, -20.0, 20.0);
  const std::unique_ptr<RTree> tree_ptr = BulkLoaded(3, points);
  const RTree& tree = *tree_ptr;
  const double eps = 2.0;

  std::set<std::pair<int64_t, int64_t>> expected;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      bool close = true;
      for (int d = 0; d < 3; ++d) {
        if (std::fabs(points[i][static_cast<size_t>(d)] -
                      points[j][static_cast<size_t>(d)]) > eps) {
          close = false;
          break;
        }
      }
      if (close) {
        expected.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)});
      }
    }
  }

  std::set<std::pair<int64_t, int64_t>> actual;
  tree.ResetNodeAccesses();
  tree.JoinWith(
      tree, [&](const Rect& a, const Rect& b) { return WithinEps(a, b, eps); },
      [&](int64_t a, int64_t b) { actual.insert({a, b}); });
  EXPECT_EQ(actual, expected);
  EXPECT_GT(tree.node_accesses(), 0);
}

TEST(RTreeTest, SynchronizedCrossJoinMatchesBruteForce) {
  Random rng(333);
  const std::vector<Point> left_points =
      RandomPoints(&rng, 300, 2, -20.0, 20.0);
  const std::vector<Point> right_points =
      RandomPoints(&rng, 250, 2, -20.0, 20.0);
  const std::unique_ptr<RTree> left = BulkLoaded(2, left_points);
  const std::unique_ptr<RTree> right = BulkLoaded(2, right_points);
  const double eps = 1.5;

  std::set<std::pair<int64_t, int64_t>> expected;
  for (size_t i = 0; i < left_points.size(); ++i) {
    for (size_t j = 0; j < right_points.size(); ++j) {
      if (std::fabs(left_points[i][0] - right_points[j][0]) <= eps &&
          std::fabs(left_points[i][1] - right_points[j][1]) <= eps) {
        expected.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)});
      }
    }
  }
  std::set<std::pair<int64_t, int64_t>> actual;
  left->JoinWith(
      *right,
      [&](const Rect& a, const Rect& b) { return WithinEps(a, b, eps); },
      [&](int64_t a, int64_t b) { actual.insert({a, b}); });
  EXPECT_EQ(actual, expected);
}

TEST(RTreeTest, JoinWithEmptyTreesEmitsNothing) {
  RTree a(2);
  RTree b(2);
  a.BulkLoad({{Rect::FromPoint({1.0, 1.0}), 0}});
  int emitted = 0;
  a.JoinWith(b, [](const Rect&, const Rect&) { return true; },
             [&](int64_t, int64_t) { ++emitted; });
  EXPECT_EQ(emitted, 0);
  b.JoinWith(a, [](const Rect&, const Rect&) { return true; },
             [&](int64_t, int64_t) { ++emitted; });
  EXPECT_EQ(emitted, 0);
}

TEST(RTreeTest, NodeAccessCountingIsSelective) {
  Random rng(99);
  FeatureConfig config;
  config.num_coefficients = 1;
  config.space = FeatureSpace::kRectangular;
  config.include_mean_std = false;
  const std::unique_ptr<RTree> tree_ptr =
      BulkLoaded(2, RandomPoints(&rng, 5000, 2));
  const RTree& tree = *tree_ptr;
  tree.ResetNodeAccesses();
  const SearchRegion region =
      SearchRegion::MakeRange({Complex(0.0, 0.0)}, 1.0, config);
  std::vector<int64_t> results;
  tree.Search(region, nullptr, &results);
  const int64_t selective = tree.node_accesses();
  EXPECT_GT(selective, 0);
  EXPECT_LT(selective, tree.node_count() / 4)
      << "a selective query should touch a small fraction of nodes";
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  // STR fills nodes close to the fanout: 10k points at fanout 32 need
  // ceil(log_32(10000)) = 3 levels.
  Random rng(111);
  const std::unique_ptr<RTree> tree =
      BulkLoaded(2, RandomPoints(&rng, 10000, 2, 0.0, 1.0));
  ExpectWellFormed(*tree, RTree::Options().max_entries);
  EXPECT_LE(tree->height(), 3);
}

}  // namespace
}  // namespace simq
