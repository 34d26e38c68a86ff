// Unit tests of the packed R-tree: the STR packer builds node for node the
// tree the reference (index/rtree.h) bulk-loads from the same entries, and
// the two agree on all three traversals (results AND node-access
// accounting), at the Table-1 operating point too; kNN tie-break
// determinism; snapshot semantics through the Database (delta rows,
// per-query node-access counts under concurrency, the fanout check); and
// edge cases (empty tree, rect leaf entries).

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "geom/search_region.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "ts/feature.h"
#include "util/random.h"
#include "workload/generators.h"

namespace simq {
namespace {

std::vector<Point> RandomPoints(Random* rng, int count, int dims, double lo,
                                double hi) {
  std::vector<Point> points(static_cast<size_t>(count));
  for (Point& p : points) {
    p.resize(static_cast<size_t>(dims));
    for (double& v : p) {
      v = rng->UniformDouble(lo, hi);
    }
  }
  return points;
}

// Entries as the packer takes them: flat bounds, entry i at i * dims.
struct FlatEntries {
  explicit FlatEntries(int dims) : dims(dims) {}

  void Add(const Point& lo_corner, const Point& hi_corner, int64_t id) {
    lo.insert(lo.end(), lo_corner.begin(), lo_corner.end());
    hi.insert(hi.end(), hi_corner.begin(), hi_corner.end());
    ids.push_back(id);
  }
  void AddPoint(const Point& point, int64_t id) { Add(point, point, id); }

  int dims;
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<int64_t> ids;
};

FlatEntries PointEntries(const std::vector<Point>& points) {
  FlatEntries entries(static_cast<int>(points.front().size()));
  for (size_t i = 0; i < points.size(); ++i) {
    entries.AddPoint(points[i], static_cast<int64_t>(i));
  }
  return entries;
}

std::unique_ptr<PackedRTree> Pack(const FlatEntries& entries,
                                  int fanout = 32) {
  return std::make_unique<PackedRTree>(entries.dims, fanout, entries.lo,
                                       entries.hi, entries.ids);
}

// The reference tree bulk-loaded from the same entries, in the same order.
std::unique_ptr<RTree> Reference(const FlatEntries& entries,
                                 int fanout = 32) {
  RTree::Options options;
  options.max_entries = fanout;
  auto tree = std::make_unique<RTree>(entries.dims, options);
  std::vector<std::pair<Rect, int64_t>> rects;
  const size_t dims = static_cast<size_t>(entries.dims);
  for (size_t i = 0; i < entries.ids.size(); ++i) {
    rects.emplace_back(
        Rect::FromBounds(Point(entries.lo.begin() + i * dims,
                               entries.lo.begin() + (i + 1) * dims),
                         Point(entries.hi.begin() + i * dims,
                               entries.hi.begin() + (i + 1) * dims)),
        entries.ids[i]);
  }
  tree->BulkLoad(std::move(rects));
  return tree;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Compares `packed` with `reference` node for node. The reference is
// walked breadth-first, the order the packed tree numbers its nodes, so a
// child's packed id is its breadth-first number. Per node: entry count,
// level, the bits of every entry rect, the ids, and the bits of the MBR
// (the reference's entry rects folded in entry order from Rect::Empty);
// then the arena size that the widest node fixes.
void ExpectSameTree(const RTree& reference, const PackedRTree& packed) {
  const int dims = reference.dims();
  std::vector<const RTree::Node*> nodes = {reference.root()};
  for (size_t head = 0; head < nodes.size(); ++head) {
    for (const auto& child : nodes[head]->children) {
      nodes.push_back(child.get());
    }
  }
  ASSERT_EQ(packed.node_count(), static_cast<int32_t>(nodes.size()));
  ASSERT_EQ(packed.height(), reference.height());
  ASSERT_EQ(packed.size(), reference.size());
  ASSERT_EQ(packed.dims(), dims);
  int64_t cap = 1;
  int32_t next_child = 1;
  for (int32_t n = 0; n < packed.node_count(); ++n) {
    const RTree::Node& node = *nodes[static_cast<size_t>(n)];
    ASSERT_EQ(packed.EntryCount(n), node.num_entries()) << "node " << n;
    ASSERT_EQ(packed.Level(n), node.level) << "node " << n;
    ASSERT_EQ(packed.IsLeaf(n), node.is_leaf) << "node " << n;
    cap = std::max<int64_t>(cap, node.num_entries());
    Rect mbr = Rect::Empty(dims);
    for (int e = 0; e < node.num_entries(); ++e) {
      const Rect& rect = node.rects[static_cast<size_t>(e)];
      mbr.ExpandToInclude(rect);
      const PackedRect entry = packed.EntryRect(n, e);
      for (int d = 0; d < dims; ++d) {
        ASSERT_EQ(Bits(entry.lo(d)), Bits(rect.lo(d)))
            << "node " << n << " entry " << e << " dim " << d;
        ASSERT_EQ(Bits(entry.hi(d)), Bits(rect.hi(d)))
            << "node " << n << " entry " << e << " dim " << d;
      }
      const int64_t expected_id = node.is_leaf
                                      ? node.ids[static_cast<size_t>(e)]
                                      : next_child++;
      ASSERT_EQ(packed.EntryId(n, e), expected_id)
          << "node " << n << " entry " << e;
    }
    const PackedRect packed_mbr = packed.NodeMbr(n);
    for (int d = 0; d < dims; ++d) {
      ASSERT_EQ(Bits(packed_mbr.lo(d)), Bits(mbr.lo(d))) << "node " << n;
      ASSERT_EQ(Bits(packed_mbr.hi(d)), Bits(mbr.hi(d))) << "node " << n;
    }
  }
  // Per node: lo and hi planes, ids, count, level, MBR, sweep orders.
  const int64_t per_node = 2 * dims * cap * 8 + cap * 4 + 4 + 4 +
                           2 * dims * 8 + dims * cap;
  EXPECT_EQ(packed.arena_bytes(), packed.node_count() * per_node);
}

void ExpectPackerMatchesReference(const FlatEntries& entries, int fanout) {
  const std::unique_ptr<RTree> reference = Reference(entries, fanout);
  const std::unique_ptr<PackedRTree> packed = Pack(entries, fanout);
  ExpectSameTree(*reference, *packed);
}

// The Table-1 workload: the stock relation's 6-d polar feature points
// (paper-default FeatureConfig: k = 2 with mean and std) and each row's
// coefficients, to query with. Computed once per size.
struct Table1Points {
  FeatureConfig config;
  std::vector<Point> points;
  std::vector<std::vector<Complex>> coefficients;
};

const Table1Points& StockFeaturePoints(int num_series) {
  static std::map<int, Table1Points> cache;
  Table1Points& table = cache[num_series];
  if (table.points.empty()) {
    workload::StockMarketOptions options;
    options.num_series = num_series;
    for (const TimeSeries& series : workload::StockMarket(options)) {
      const SeriesFeatures features = ComputeFeatures(series.values);
      table.coefficients.push_back(ExtractCoefficients(
          features.normal_spectrum, table.config.num_coefficients));
      table.points.push_back(MakeFeaturePoint(features, table.config));
    }
  }
  return table;
}

TEST(PackedRTreeTest, PackerMatchesReferenceNodeForNode) {
  Random rng(17);
  for (const int dims : {2, 4, 6}) {
    for (const int count : {0, 1, 2, 31, 32, 33, 1024, 1025, 5000}) {
      FlatEntries entries(dims);
      for (const Point& point : RandomPoints(&rng, count, dims, -10, 10)) {
        entries.AddPoint(point, static_cast<int64_t>(entries.ids.size()));
      }
      for (const int fanout : {4, 32}) {
        SCOPED_TRACE("dims " + std::to_string(dims) + " count " +
                     std::to_string(count) + " fanout " +
                     std::to_string(fanout));
        ExpectPackerMatchesReference(entries, fanout);
      }
    }
  }
}

TEST(PackedRTreeTest, PackerMatchesReferenceOnDuplicatesAndSignedZeros) {
  // Equal sort keys exercise the sort's handling of ties, and MBR folds
  // over -0.0 and +0.0 keep whichever comes first in entry order.
  Random rng(23);
  FlatEntries entries(3);
  const double values[] = {-0.0, 0.0, 1.0, -1.0, 0.5};
  for (int i = 0; i < 3000; ++i) {
    Point point(3);
    for (double& v : point) {
      v = values[rng.UniformInt(0, 4)];
    }
    entries.AddPoint(point, i);
  }
  for (const int fanout : {4, 5, 32}) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    ExpectPackerMatchesReference(entries, fanout);
  }
}

TEST(PackedRTreeTest, PackerMatchesReferenceOnRectEntries) {
  // Leaf entries that are true rectangles (the subsequence index's trail
  // MBRs): the sort key is lo + hi, not twice a point coordinate.
  Random rng(29);
  FlatEntries entries(3);
  for (int i = 0; i < 4000; ++i) {
    Point lo(3);
    Point hi(3);
    for (int d = 0; d < 3; ++d) {
      lo[static_cast<size_t>(d)] = rng.UniformDouble(-50.0, 50.0);
      hi[static_cast<size_t>(d)] =
          lo[static_cast<size_t>(d)] + rng.UniformDouble(0.0, 8.0);
    }
    entries.Add(lo, hi, i);
  }
  for (const int fanout : {4, 32, 256}) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    ExpectPackerMatchesReference(entries, fanout);
  }
}

TEST(PackedRTreeTest, PackerMatchesReferenceOnTable1FeaturePoints) {
  for (const int rows : {1067, 12000}) {
    const FlatEntries entries = PointEntries(StockFeaturePoints(rows).points);
    for (const int fanout : {4, 5, 32, 256}) {
      SCOPED_TRACE("rows " + std::to_string(rows) + " fanout " +
                   std::to_string(fanout));
      ExpectPackerMatchesReference(entries, fanout);
    }
  }
}

// The packed tree against the reference at the Table-1 operating point:
// 64 range searches, the epsilon = 0.45 self-join and 32 10-NN queries over
// the stock relation's feature points, comparing answers and node
// accesses.
TEST(PackedRTreeTest, Table1TraversalsMatchReference) {
  constexpr double kEpsilon = 0.45;
  for (const int rows : {1067, 12000}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const Table1Points& table = StockFeaturePoints(rows);
    const FlatEntries entries = PointEntries(table.points);
    const std::unique_ptr<RTree> reference = Reference(entries);
    const std::unique_ptr<PackedRTree> packed = Pack(entries);
    const size_t num_rows = table.points.size();

    std::vector<int64_t> reference_ids;
    std::vector<int64_t> packed_ids;
    reference->ResetNodeAccesses();
    packed->ResetNodeAccesses();
    for (size_t q = 0; q < 64; ++q) {
      const SearchRegion region = SearchRegion::MakeRange(
          table.coefficients[q % num_rows], kEpsilon, table.config);
      reference->Search(region, nullptr, &reference_ids);
      packed->Search(region, nullptr, &packed_ids);
    }
    EXPECT_EQ(packed_ids, reference_ids);
    EXPECT_EQ(packed->node_accesses(), reference->node_accesses());
    EXPECT_GT(reference_ids.size(), 64u);

    const EpsilonPairPredicate pred{6, kEpsilon};
    int64_t reference_pairs = 0;
    int64_t packed_pairs = 0;
    reference->ResetNodeAccesses();
    packed->ResetNodeAccesses();
    reference->JoinWith(*reference, pred,
                        [&](int64_t, int64_t) { ++reference_pairs; });
    packed->JoinWith(*packed, pred, [&](int64_t, int64_t) { ++packed_pairs; },
                     kEpsilon);
    EXPECT_EQ(packed_pairs, reference_pairs);
    EXPECT_EQ(packed->node_accesses(), reference->node_accesses());
    EXPECT_GE(reference_pairs, static_cast<int64_t>(num_rows));

    const std::vector<DimAffine> identity(6);
    reference->ResetNodeAccesses();
    packed->ResetNodeAccesses();
    for (size_t q = 0; q < 32; ++q) {
      const NnLowerBound bound(table.coefficients[q % num_rows],
                               table.config);
      const auto exact = [&](int64_t id) {
        return bound.ToTransformedPoint(table.points[static_cast<size_t>(id)],
                                        identity);
      };
      EXPECT_EQ(packed->NearestNeighbors(bound, nullptr, 10, exact),
                reference->NearestNeighbors(bound, nullptr, 10, exact))
          << "query " << q;
    }
    EXPECT_EQ(packed->node_accesses(), reference->node_accesses());
  }
}

TEST(PackedRTreeDeathTest, PackerRejectsFanoutOutsideRange) {
  // With one entry per node a level never shrinks, so the build would not
  // end; past kMaxFanout the uint8 sweep orders overflow.
  FlatEntries entries(2);
  entries.AddPoint({1.0, 2.0}, 0);
  entries.AddPoint({3.0, 4.0}, 1);
  EXPECT_DEATH(Pack(entries, 1), "fanout");
  EXPECT_DEATH(Pack(entries, PackedRTree::kMaxFanout + 1), "fanout");
}

TEST(PackedRTreeTest, SearchMatchesPointerEngineWithTransforms) {
  Random rng(41);
  FeatureConfig config;
  config.num_coefficients = 2;
  config.include_mean_std = false;
  for (const FeatureSpace space :
       {FeatureSpace::kRectangular, FeatureSpace::kPolar}) {
    config.space = space;
    const int dims = FeatureDimension(config);
    std::vector<Point> points;
    if (space == FeatureSpace::kPolar) {
      // Polar layout: (magnitude, angle) pairs.
      for (int i = 0; i < 800; ++i) {
        Point p(static_cast<size_t>(dims));
        for (int c = 0; c < config.num_coefficients; ++c) {
          p[static_cast<size_t>(2 * c)] = rng.UniformDouble(0.0, 4.0);
          p[static_cast<size_t>(2 * c + 1)] = rng.UniformDouble(-3.1, 3.1);
        }
        points.push_back(std::move(p));
      }
    } else {
      points = RandomPoints(&rng, 800, dims, -4.0, 4.0);
    }
    const FlatEntries entries = PointEntries(points);
    const std::unique_ptr<RTree> tree_ptr = Reference(entries);
    const RTree& tree = *tree_ptr;
    const std::unique_ptr<PackedRTree> packed_ptr = Pack(entries);
    const PackedRTree& packed = *packed_ptr;
    EXPECT_EQ(packed.node_count(), tree.node_count());
    EXPECT_EQ(packed.size(), tree.size());
    EXPECT_EQ(packed.height(), tree.height());
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<Complex> query = {
          Complex(rng.UniformDouble(-2.0, 2.0), rng.UniformDouble(-2.0, 2.0)),
          Complex(rng.UniformDouble(-2.0, 2.0), rng.UniformDouble(-2.0, 2.0))};
      const double eps = rng.UniformDouble(0.2, 1.5);
      const SearchRegion region = SearchRegion::MakeRange(query, eps, config);

      // Alternate between the identity and a safe transformation.
      std::vector<DimAffine> affines;
      const std::vector<DimAffine>* affines_ptr = nullptr;
      if (trial % 2 == 1) {
        std::vector<Complex> stretch;
        std::vector<Complex> shift;
        for (int c = 0; c < config.num_coefficients; ++c) {
          if (space == FeatureSpace::kRectangular) {
            stretch.push_back(Complex(rng.UniformDouble(-1.5, 1.5), 0.0));
            shift.push_back(Complex(rng.UniformDouble(-0.5, 0.5),
                                    rng.UniformDouble(-0.5, 0.5)));
          } else {
            stretch.push_back(Complex(rng.UniformDouble(-1.2, 1.2),
                                      rng.UniformDouble(-1.2, 1.2)));
            shift.push_back(Complex(0.0, 0.0));
          }
        }
        const LinearTransform transform(stretch, shift);
        affines = LowerToFeatureSpace(transform, config);
        affines_ptr = &affines;
      }

      tree.ResetNodeAccesses();
      std::vector<int64_t> pointer_results;
      tree.Search(region, affines_ptr, &pointer_results);
      const int64_t pointer_accesses = tree.node_accesses();

      packed.ResetNodeAccesses();
      std::vector<int64_t> packed_results;
      packed.Search(region, affines_ptr, &packed_results);
      const int64_t packed_accesses = packed.node_accesses();

      // Same ids in the same (DFS) order, same node accesses.
      EXPECT_EQ(packed_results, pointer_results)
          << "space " << static_cast<int>(space) << " trial " << trial;
      EXPECT_EQ(packed_accesses, pointer_accesses)
          << "space " << static_cast<int>(space) << " trial " << trial;
    }
  }
}

TEST(PackedRTreeTest, SearchGenericHandlesRectLeafEntries) {
  // Leaf entries that are true rectangles (the subsequence index's trail
  // MBRs), not points.
  Random rng(52);
  FlatEntries entries(3);
  for (int i = 0; i < 500; ++i) {
    Point lo(3);
    Point hi(3);
    for (int d = 0; d < 3; ++d) {
      const double a = rng.UniformDouble(-50.0, 50.0);
      lo[static_cast<size_t>(d)] = a;
      hi[static_cast<size_t>(d)] = a + rng.UniformDouble(0.0, 8.0);
    }
    entries.Add(lo, hi, i);
  }
  const std::unique_ptr<RTree> tree_ptr = Reference(entries);
  const RTree& tree = *tree_ptr;
  const std::unique_ptr<PackedRTree> packed_ptr = Pack(entries);
  const PackedRTree& packed = *packed_ptr;

  for (int trial = 0; trial < 20; ++trial) {
    Point lo(3);
    Point hi(3);
    for (int d = 0; d < 3; ++d) {
      const double a = rng.UniformDouble(-60.0, 60.0);
      const double b = rng.UniformDouble(-60.0, 60.0);
      lo[static_cast<size_t>(d)] = std::min(a, b);
      hi[static_cast<size_t>(d)] = std::max(a, b);
    }
    const Rect box = Rect::FromBounds(lo, hi);
    const auto overlaps = [&](const auto& rect) {
      for (int d = 0; d < 3; ++d) {
        if (rect.lo(d) > box.hi(d) || rect.hi(d) < box.lo(d)) {
          return false;
        }
      }
      return true;
    };

    tree.ResetNodeAccesses();
    std::vector<int64_t> expected;
    tree.SearchGeneric(overlaps,
                       [&](const Rect& rect, int64_t) { return overlaps(rect); },
                       [&](int64_t id) { expected.push_back(id); });

    packed.ResetNodeAccesses();
    std::vector<int64_t> actual;
    packed.SearchGeneric(
        overlaps, [&](const auto& rect, int64_t) { return overlaps(rect); },
        [&](int64_t id) { actual.push_back(id); });

    EXPECT_EQ(actual, expected) << "trial " << trial;
    EXPECT_EQ(packed.node_accesses(), tree.node_accesses())
        << "trial " << trial;
  }
}

TEST(PackedRTreeTest, JoinMatchesPointerEngine) {
  Random rng(63);
  const FlatEntries left_entries =
      PointEntries(RandomPoints(&rng, 400, 3, -20, 20));
  const FlatEntries right_entries =
      PointEntries(RandomPoints(&rng, 350, 3, -20, 20));
  const std::unique_ptr<RTree> left_ptr = Reference(left_entries);
  const std::unique_ptr<RTree> right_ptr = Reference(right_entries);
  const RTree& left = *left_ptr;
  const RTree& right = *right_ptr;
  const std::unique_ptr<PackedRTree> packed_left_ptr = Pack(left_entries);
  const std::unique_ptr<PackedRTree> packed_right_ptr = Pack(right_entries);
  const PackedRTree& packed_left = *packed_left_ptr;
  const PackedRTree& packed_right = *packed_right_ptr;
  const EpsilonPairPredicate pred{3, 2.0};

  // Self-join (both orientations + diagonal, like the pointer engine).
  left.ResetNodeAccesses();
  std::set<std::pair<int64_t, int64_t>> pointer_self;
  left.JoinWith(left, pred, [&](int64_t a, int64_t b) {
    pointer_self.insert({a, b});
  });
  const int64_t pointer_self_accesses = left.node_accesses();

  packed_left.ResetNodeAccesses();
  std::set<std::pair<int64_t, int64_t>> packed_self;
  std::set<std::pair<int64_t, int64_t>> packed_self_nosweep;
  packed_left.JoinWith(packed_left, pred,
                       [&](int64_t a, int64_t b) { packed_self.insert({a, b}); },
                       /*slack=*/2.0);
  const int64_t packed_self_accesses = packed_left.node_accesses();
  // slack = +inf disables the sweep; answers must not change.
  packed_left.JoinWith(
      packed_left, pred,
      [&](int64_t a, int64_t b) { packed_self_nosweep.insert({a, b}); },
      std::numeric_limits<double>::infinity());

  EXPECT_EQ(packed_self, pointer_self);
  EXPECT_EQ(packed_self_nosweep, pointer_self);
  EXPECT_EQ(packed_self_accesses, pointer_self_accesses);

  // Cross-join.
  left.ResetNodeAccesses();
  right.ResetNodeAccesses();
  std::set<std::pair<int64_t, int64_t>> pointer_cross;
  left.JoinWith(right, pred, [&](int64_t a, int64_t b) {
    pointer_cross.insert({a, b});
  });
  const int64_t pointer_cross_accesses =
      left.node_accesses() + right.node_accesses();

  packed_left.ResetNodeAccesses();
  packed_right.ResetNodeAccesses();
  std::set<std::pair<int64_t, int64_t>> packed_cross;
  packed_left.JoinWith(packed_right, pred, [&](int64_t a, int64_t b) {
    packed_cross.insert({a, b});
  }, /*slack=*/2.0);
  EXPECT_EQ(packed_cross, pointer_cross);
  EXPECT_EQ(packed_left.node_accesses() + packed_right.node_accesses(),
            pointer_cross_accesses);
}

TEST(PackedRTreeTest, NearestNeighborsDeterministicTieBreaking) {
  // Duplicate points force exact-distance ties; both engines must resolve
  // them by (distance, then id) and agree on node accesses.
  FeatureConfig config;
  config.num_coefficients = 2;
  config.space = FeatureSpace::kRectangular;
  config.include_mean_std = false;
  std::vector<Point> points;
  Random rng(74);
  // 60 distinct locations, each duplicated 5 times -> 300 entries.
  for (int loc = 0; loc < 60; ++loc) {
    Point p(4);
    for (double& v : p) {
      v = rng.UniformDouble(-5.0, 5.0);
    }
    for (int copy = 0; copy < 5; ++copy) {
      points.push_back(p);
    }
  }
  // Shuffled entry order so duplicates land in different leaves.
  std::vector<int64_t> ids(points.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int64_t>(i);
  }
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1],
              ids[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(i) - 1))]);
  }
  FlatEntries entries(4);
  for (const int64_t id : ids) {
    entries.AddPoint(points[static_cast<size_t>(id)], id);
  }
  const std::unique_ptr<RTree> tree_ptr = Reference(entries);
  const RTree& tree = *tree_ptr;
  const std::unique_ptr<PackedRTree> packed_ptr = Pack(entries);
  const PackedRTree& packed = *packed_ptr;

  const std::vector<Complex> query = {Complex(0.3, -0.2), Complex(1.1, 0.4)};
  const NnLowerBound bound(query, config);
  const std::vector<DimAffine> identity(4);
  const auto exact = [&](int64_t id) {
    return bound.ToTransformedPoint(points[static_cast<size_t>(id)], identity);
  };

  for (const int k : {1, 3, 7, 12, 50}) {
    tree.ResetNodeAccesses();
    const auto pointer_result = tree.NearestNeighbors(bound, nullptr, k, exact);
    const int64_t pointer_accesses = tree.node_accesses();

    packed.ResetNodeAccesses();
    const auto packed_result = packed.NearestNeighbors(bound, nullptr, k, exact);
    const int64_t packed_accesses = packed.node_accesses();

    ASSERT_EQ(static_cast<int>(pointer_result.size()), k) << "k " << k;
    EXPECT_EQ(packed_result, pointer_result) << "k " << k;
    EXPECT_EQ(packed_accesses, pointer_accesses) << "k " << k;

    // (distance, id) order: nondecreasing distance, ids ascending within a
    // tie, and a tie cut at the k-th distance keeps the smallest ids.
    for (size_t i = 1; i < pointer_result.size(); ++i) {
      ASSERT_LE(pointer_result[i - 1].second, pointer_result[i].second);
      if (pointer_result[i - 1].second == pointer_result[i].second) {
        ASSERT_LT(pointer_result[i - 1].first, pointer_result[i].first);
      }
    }
    const double kth = pointer_result.back().second;
    for (size_t id = 0; id < points.size(); ++id) {
      const double dist = exact(static_cast<int64_t>(id));
      if (dist < kth) {
        const bool found =
            std::any_of(pointer_result.begin(), pointer_result.end(),
                        [&](const std::pair<int64_t, double>& r) {
                          return r.first == static_cast<int64_t>(id);
                        });
        EXPECT_TRUE(found) << "id " << id << " k " << k;
      }
    }
  }
}

TEST(PackedRTreeTest, EmptyTreeTraversalsAreSafe) {
  FeatureConfig config;
  config.num_coefficients = 1;
  config.space = FeatureSpace::kRectangular;
  config.include_mean_std = false;
  const std::unique_ptr<PackedRTree> packed_ptr = Pack(FlatEntries(2));
  const PackedRTree& packed = *packed_ptr;
  EXPECT_EQ(packed.size(), 0);
  EXPECT_EQ(packed.node_count(), 1);
  EXPECT_EQ(packed.height(), 1);

  const SearchRegion region =
      SearchRegion::MakeRange({Complex(0.0, 0.0)}, 1.0, config);
  std::vector<int64_t> results;
  packed.Search(region, nullptr, &results);
  EXPECT_TRUE(results.empty());

  const NnLowerBound bound({Complex(0.0, 0.0)}, config);
  const auto knn = packed.NearestNeighbors(bound, nullptr, 3,
                                           [](int64_t) { return 0.0; });
  EXPECT_TRUE(knn.empty());

  FlatEntries one(2);
  one.AddPoint({1.0, 2.0}, 7);
  const std::unique_ptr<PackedRTree> packed_other_ptr = Pack(one);
  const PackedRTree& packed_other = *packed_other_ptr;
  int emitted = 0;
  packed.JoinWith(packed_other, [](const auto&, const auto&) { return true; },
                  [&](int64_t, int64_t) { ++emitted; }, 0.0);
  packed_other.JoinWith(packed, [](const auto&, const auto&) { return true; },
                        [&](int64_t, int64_t) { ++emitted; }, 0.0);
  EXPECT_EQ(emitted, 0);
}

TEST(PackedRTreeDeathTest, DatabaseRejectsOversizedFanoutAtConstruction) {
  // The packed layout caps node fanout; a Database refuses larger
  // max_entries when it is constructed instead of failing at the first
  // compile.
  RTree::Options options;
  options.max_entries = PackedRTree::kMaxFanout + 44;
  EXPECT_DEATH(Database(FeatureConfig(), options), "max_entries");
  options.max_entries = PackedRTree::kMaxFanout;
  Database at_limit(FeatureConfig(), options);
  EXPECT_TRUE(at_limit.CreateRelation("r").ok());
}

TEST(PackedRTreeTest, DatabaseSnapshotRebuildsAfterMutation) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  Random rng(85);
  const auto make_series = [&](const std::string& name) {
    TimeSeries ts;
    ts.id = name;
    for (int t = 0; t < 32; ++t) {
      ts.values.push_back(rng.UniformDouble(-1.0, 1.0));
    }
    return ts;
  };
  std::vector<TimeSeries> batch;
  for (int i = 0; i < 40; ++i) {
    batch.push_back(make_series("s" + std::to_string(i)));
  }
  ASSERT_TRUE(db.BulkLoad("r", batch).ok());

  Query query;
  query.kind = QueryKind::kNearest;
  query.relation = "r";
  query.query_series.id = 0;
  query.k = 40;
  query.strategy = ExecutionStrategy::kIndex;
  const auto before = db.Execute(query);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(static_cast<int>(before.value().matches.size()), 40);

  // An insert leaves the snapshot in place; the next query sees the new
  // record through the shard's delta scan, at the same node cost.
  ASSERT_TRUE(db.Insert("r", make_series("late")).ok());
  query.k = 41;
  const auto after = db.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(static_cast<int>(after.value().matches.size()), 41);
  EXPECT_EQ(db.GetRelation("r")->sharded().delta_rows(), 1);
  EXPECT_EQ(after.value().stats.node_accesses,
            before.value().stats.node_accesses);
}

// Each traversal counts its own node visits, so concurrent queries on one
// Database never inflate each other's ExecutionStats::node_accesses.
TEST(PackedRTreeTest, ConcurrentQueriesReportTheirOwnNodeAccesses) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  Random rng(29);
  std::vector<TimeSeries> batch;
  for (int i = 0; i < 600; ++i) {
    TimeSeries ts;
    ts.id = "s" + std::to_string(i);
    double value = 0.0;
    for (int t = 0; t < 32; ++t) {
      value += rng.UniformDouble(-1.0, 1.0);
      ts.values.push_back(value);
    }
    batch.push_back(std::move(ts));
  }
  ASSERT_TRUE(db.BulkLoad("r", batch).ok());

  constexpr int kQueries = 24;
  std::vector<Query> queries;
  for (int q = 0; q < kQueries; ++q) {
    Query query;
    query.relation = "r";
    query.query_series.id = (q * 37) % 600;
    query.strategy = ExecutionStrategy::kIndex;
    if (q % 2 == 0) {
      query.kind = QueryKind::kRange;
      query.epsilon = 1.0 + 0.25 * (q % 5);
    } else {
      query.kind = QueryKind::kNearest;
      query.k = 1 + q % 9;
    }
    queries.push_back(std::move(query));
  }
  // Single-threaded reference counts (the first query compiles the tree).
  std::vector<int64_t> expected;
  for (const Query& query : queries) {
    const Result<QueryResult> result = db.Execute(query);
    ASSERT_TRUE(result.ok());
    ASSERT_GT(result.value().stats.node_accesses, 0);
    expected.push_back(result.value().stats.node_accesses);
  }

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 120;  // range and kNN alternate
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        const size_t q = static_cast<size_t>(t * 7 + i) % queries.size();
        const Result<QueryResult> result = db.Execute(queries[q]);
        if (!result.ok()) {
          failures.fetch_add(1);
        } else if (result.value().stats.node_accesses != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace simq
