// Unit tests of the packed R-tree: equivalence with the RTree it is
// compiled from on all three traversals (results AND node-access
// accounting), kNN tie-break determinism, snapshot semantics through the
// Database (delta rows, per-query node-access counts under concurrency,
// the fanout check), and edge cases (empty tree, rect leaf entries).

#include <algorithm>
#include <atomic>
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

TEST(PackedRTreeTest, SearchMatchesPointerEngineWithTransforms) {
  Random rng(41);
  FeatureConfig config;
  config.num_coefficients = 2;
  config.include_mean_std = false;
  for (const FeatureSpace space :
       {FeatureSpace::kRectangular, FeatureSpace::kPolar}) {
    config.space = space;
    const int dims = FeatureDimension(config);
    RTree tree(dims);
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
    for (size_t i = 0; i < points.size(); ++i) {
      tree.InsertPoint(points[i], static_cast<int64_t>(i));
    }
    const PackedRTree packed(tree);
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
  RTree tree(3);
  std::vector<Rect> rects;
  for (int i = 0; i < 500; ++i) {
    Point lo(3);
    Point hi(3);
    for (int d = 0; d < 3; ++d) {
      const double a = rng.UniformDouble(-50.0, 50.0);
      lo[static_cast<size_t>(d)] = a;
      hi[static_cast<size_t>(d)] = a + rng.UniformDouble(0.0, 8.0);
    }
    rects.push_back(Rect::FromBounds(lo, hi));
    tree.Insert(rects.back(), i);
  }
  const PackedRTree packed(tree);

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
  RTree left(3);
  RTree right(3);
  const std::vector<Point> left_points = RandomPoints(&rng, 400, 3, -20, 20);
  const std::vector<Point> right_points = RandomPoints(&rng, 350, 3, -20, 20);
  for (size_t i = 0; i < left_points.size(); ++i) {
    left.InsertPoint(left_points[i], static_cast<int64_t>(i));
  }
  for (size_t j = 0; j < right_points.size(); ++j) {
    right.InsertPoint(right_points[j], static_cast<int64_t>(j));
  }
  const PackedRTree packed_left(left);
  const PackedRTree packed_right(right);
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
  RTree tree(4);
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
  // Shuffled insert order so duplicates land in different leaves.
  std::vector<int64_t> ids(points.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int64_t>(i);
  }
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1],
              ids[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(i) - 1))]);
  }
  for (const int64_t id : ids) {
    tree.InsertPoint(points[static_cast<size_t>(id)], id);
  }
  const PackedRTree packed(tree);

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
  RTree tree(2);
  const PackedRTree packed(tree);
  EXPECT_EQ(packed.size(), 0);
  EXPECT_EQ(packed.node_count(), 1);

  const SearchRegion region =
      SearchRegion::MakeRange({Complex(0.0, 0.0)}, 1.0, config);
  std::vector<int64_t> results;
  packed.Search(region, nullptr, &results);
  EXPECT_TRUE(results.empty());

  const NnLowerBound bound({Complex(0.0, 0.0)}, config);
  const auto knn = packed.NearestNeighbors(bound, nullptr, 3,
                                           [](int64_t) { return 0.0; });
  EXPECT_TRUE(knn.empty());

  RTree other(2);
  other.InsertPoint({1.0, 2.0}, 7);
  const PackedRTree packed_other(other);
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
  options.min_entries = 2;
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
