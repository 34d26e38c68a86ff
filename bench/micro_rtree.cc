// Microbenchmarks of the R-tree substrate: the STR packer that builds every
// PackedRTree, the reference tree's bulk load (index/rtree.h), and the
// three hot traversals (range search, k-NN, spatial join) on the packed
// tree the engine queries and on the reference, bulk-loaded from the same
// entries.
//
// The *_Table1* benchmarks run on the paper's Table-1 workload (the
// 1067 x 128 stock relation's 6-d polar feature points, and 12000 rows)
// so the packed-vs-reference speedup is measured at the operating point
// the acceptance criteria reference. That the two trees agree there on
// every answer and node-access count is checked in packed_rtree_test
// (PackedRTreeTest.Table1TraversalsMatchReference), not here. CI uploads
// this binary's JSON output as BENCH_rtree.json.

#include <benchmark/benchmark.h>

#include "geom/search_region.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "ts/feature.h"
#include "util/random.h"
#include "workload/generators.h"

namespace simq {
namespace {

std::vector<Point> MakePoints(int count, int dims, uint64_t seed) {
  Random rng(seed);
  std::vector<Point> points(static_cast<size_t>(count));
  for (Point& p : points) {
    p.resize(static_cast<size_t>(dims));
    for (double& v : p) {
      v = rng.UniformDouble(-10.0, 10.0);
    }
  }
  return points;
}

std::vector<std::pair<Rect, int64_t>> RectEntries(
    const std::vector<Point>& points) {
  std::vector<std::pair<Rect, int64_t>> entries;
  entries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries.emplace_back(Rect::FromPoint(points[i]), static_cast<int64_t>(i));
  }
  return entries;
}

// The packed tree over points[i] as entry i, at the default fanout.
std::unique_ptr<PackedRTree> PackPoints(const std::vector<Point>& points) {
  std::vector<double> coords;
  std::vector<int64_t> ids;
  for (size_t i = 0; i < points.size(); ++i) {
    coords.insert(coords.end(), points[i].begin(), points[i].end());
    ids.push_back(static_cast<int64_t>(i));
  }
  return std::make_unique<PackedRTree>(
      static_cast<int>(points.front().size()), RTree::Options().max_entries,
      coords, coords, ids);
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const std::vector<Point> points = MakePoints(count, 6, 2);
  for (auto _ : state) {
    RTree tree(6);
    tree.BulkLoad(RectEntries(points));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000);

// Cost of packing a tree from flat entry arrays: what a shard pays per
// compile (its first index query after a bulk load, and every fold).
void BM_PackedCompile(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const std::vector<Point> points = MakePoints(count, 6, 2);
  std::vector<double> coords;
  std::vector<int64_t> ids;
  for (size_t i = 0; i < points.size(); ++i) {
    coords.insert(coords.end(), points[i].begin(), points[i].end());
    ids.push_back(static_cast<int64_t>(i));
  }
  for (auto _ : state) {
    const PackedRTree packed(6, RTree::Options().max_entries, coords, coords,
                             ids);
    benchmark::DoNotOptimize(packed.node_count());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_PackedCompile)->Arg(10000)->Arg(100000);

struct UniformFixture {
  explicit UniformFixture(int count)
      : points(MakePoints(count, 4, 3)), tree(4) {
    tree.BulkLoad(RectEntries(points));
    packed = PackPoints(points);
    config.num_coefficients = 2;
    config.space = FeatureSpace::kRectangular;
    config.include_mean_std = false;
  }
  std::vector<Point> points;
  RTree tree;
  std::unique_ptr<PackedRTree> packed;
  FeatureConfig config;
};

void BM_RangeSearchPointer(benchmark::State& state) {
  UniformFixture fx(static_cast<int>(state.range(0)));
  const SearchRegion region = SearchRegion::MakeRange(
      {Complex(0.0, 0.0), Complex(0.0, 0.0)}, 2.0, fx.config);
  for (auto _ : state) {
    std::vector<int64_t> results;
    fx.tree.Search(region, nullptr, &results);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_RangeSearchPointer)->Arg(10000)->Arg(100000);

void BM_RangeSearchPacked(benchmark::State& state) {
  UniformFixture fx(static_cast<int>(state.range(0)));
  const SearchRegion region = SearchRegion::MakeRange(
      {Complex(0.0, 0.0), Complex(0.0, 0.0)}, 2.0, fx.config);
  for (auto _ : state) {
    std::vector<int64_t> results;
    fx.packed->Search(region, nullptr, &results);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_RangeSearchPacked)->Arg(10000)->Arg(100000);

void BM_NearestNeighborsPointer(benchmark::State& state) {
  UniformFixture fx(static_cast<int>(state.range(0)));
  const NnLowerBound bound({Complex(1.0, 1.0), Complex(-1.0, 0.5)},
                           fx.config);
  const std::vector<DimAffine> identity(4);
  auto exact = [&](int64_t id) {
    return bound.ToTransformedPoint(fx.points[static_cast<size_t>(id)],
                                    identity);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.tree.NearestNeighbors(bound, nullptr, 10, exact));
  }
}
BENCHMARK(BM_NearestNeighborsPointer)->Arg(10000)->Arg(100000);

void BM_NearestNeighborsPacked(benchmark::State& state) {
  UniformFixture fx(static_cast<int>(state.range(0)));
  const NnLowerBound bound({Complex(1.0, 1.0), Complex(-1.0, 0.5)},
                           fx.config);
  const std::vector<DimAffine> identity(4);
  auto exact = [&](int64_t id) {
    return bound.ToTransformedPoint(fx.points[static_cast<size_t>(id)],
                                    identity);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.packed->NearestNeighbors(bound, nullptr, 10, exact));
  }
}
BENCHMARK(BM_NearestNeighborsPacked)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// Table-1 workload: 6-d polar feature points of the stock relation.
// ---------------------------------------------------------------------------

struct Table1Fixture {
  explicit Table1Fixture(int num_series) : tree(6) {
    workload::StockMarketOptions options;
    options.num_series = num_series;
    for (const TimeSeries& series : workload::StockMarket(options)) {
      const SeriesFeatures features = ComputeFeatures(series.values);
      coefficients.push_back(
          ExtractCoefficients(features.normal_spectrum,
                              config.num_coefficients));
      feature_points.push_back(MakeFeaturePoint(features, config));
    }
    tree.BulkLoad(RectEntries(feature_points));
    packed = PackPoints(feature_points);
  }
  FeatureConfig config;  // paper default: polar, mean/std, k = 2 -> 6-d
  std::vector<std::vector<Complex>> coefficients;
  std::vector<Point> feature_points;
  RTree tree;
  std::unique_ptr<PackedRTree> packed;
};

constexpr double kTable1Epsilon = 0.45;

std::vector<SearchRegion> Table1Regions(const Table1Fixture& fx, int count) {
  std::vector<SearchRegion> regions;
  regions.reserve(static_cast<size_t>(count));
  for (int q = 0; q < count; ++q) {
    regions.push_back(SearchRegion::MakeRange(
        fx.coefficients[static_cast<size_t>(
            q % fx.coefficients.size())],
        kTable1Epsilon, fx.config));
  }
  return regions;
}

void BM_Table1RangeSearchPointer(benchmark::State& state) {
  Table1Fixture fx(static_cast<int>(state.range(0)));
  const std::vector<SearchRegion> regions = Table1Regions(fx, 64);
  for (auto _ : state) {
    int64_t total = 0;
    std::vector<int64_t> results;
    for (const SearchRegion& region : regions) {
      results.clear();
      fx.tree.Search(region, nullptr, &results);
      total += static_cast<int64_t>(results.size());
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(regions.size()));
}
BENCHMARK(BM_Table1RangeSearchPointer)->Arg(1067)->Arg(12000);

void BM_Table1RangeSearchPacked(benchmark::State& state) {
  Table1Fixture fx(static_cast<int>(state.range(0)));
  const std::vector<SearchRegion> regions = Table1Regions(fx, 64);
  for (auto _ : state) {
    int64_t total = 0;
    std::vector<int64_t> results;
    for (const SearchRegion& region : regions) {
      results.clear();
      fx.packed->Search(region, nullptr, &results);
      total += static_cast<int64_t>(results.size());
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(regions.size()));
}
BENCHMARK(BM_Table1RangeSearchPacked)->Arg(1067)->Arg(12000);

void BM_Table1SelfJoinPointer(benchmark::State& state) {
  Table1Fixture fx(static_cast<int>(state.range(0)));
  const EpsilonPairPredicate pred{6, kTable1Epsilon};
  for (auto _ : state) {
    int64_t pairs = 0;
    fx.tree.JoinWith(fx.tree, pred,
                     [&](int64_t, int64_t) { ++pairs; });
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_Table1SelfJoinPointer)->Arg(1067)->Arg(12000);

void BM_Table1SelfJoinPacked(benchmark::State& state) {
  Table1Fixture fx(static_cast<int>(state.range(0)));
  const EpsilonPairPredicate pred{6, kTable1Epsilon};
  for (auto _ : state) {
    int64_t pairs = 0;
    fx.packed->JoinWith(*fx.packed, pred,
                        [&](int64_t, int64_t) { ++pairs; },
                        kTable1Epsilon);
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_Table1SelfJoinPacked)->Arg(1067)->Arg(12000);

void BM_Table1NearestNeighborsPointer(benchmark::State& state) {
  Table1Fixture fx(static_cast<int>(state.range(0)));
  const std::vector<DimAffine> identity(6);
  for (auto _ : state) {
    int64_t total = 0;
    for (int q = 0; q < 32; ++q) {
      const NnLowerBound bound(
          fx.coefficients[static_cast<size_t>(q) % fx.coefficients.size()],
          fx.config);
      const auto exact = [&](int64_t id) {
        return bound.ToTransformedPoint(
            fx.feature_points[static_cast<size_t>(id)], identity);
      };
      total += static_cast<int64_t>(
          fx.tree.NearestNeighbors(bound, nullptr, 10, exact).size());
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Table1NearestNeighborsPointer)->Arg(1067)->Arg(12000);

void BM_Table1NearestNeighborsPacked(benchmark::State& state) {
  Table1Fixture fx(static_cast<int>(state.range(0)));
  const std::vector<DimAffine> identity(6);
  const auto run = [&](const auto& tree, int q) {
    const NnLowerBound bound(
        fx.coefficients[static_cast<size_t>(q) % fx.coefficients.size()],
        fx.config);
    const auto exact = [&](int64_t id) {
      return bound.ToTransformedPoint(
          fx.feature_points[static_cast<size_t>(id)], identity);
    };
    return tree.NearestNeighbors(bound, nullptr, 10, exact);
  };
  for (auto _ : state) {
    int64_t total = 0;
    for (int q = 0; q < 32; ++q) {
      total += static_cast<int64_t>(run(*fx.packed, q).size());
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Table1NearestNeighborsPacked)->Arg(1067)->Arg(12000);

}  // namespace
}  // namespace simq

BENCHMARK_MAIN();
