// Microbenchmarks of the R*-tree substrate: insertion, bulk load, snapshot
// compilation, and the three hot traversals (range search, k-NN, spatial
// join) on the packed tree the engine queries and on RTree, the
// pointer-based tree it is compiled from, kept as the reference.
//
// The *_Table1* benchmarks run on the paper's Table-1 workload (the
// 1067 x 128 stock relation's 6-d polar feature points, STR bulk-loaded)
// so the packed-vs-reference speedup is measured at the operating point
// the acceptance criteria reference. Each Table-1 traversal benchmark
// verifies once, outside the timed loop, that both trees return identical
// answer counts and node-access counts. CI uploads this binary's JSON
// output as BENCH_rtree.json.

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

void BM_RTreeInsert(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const std::vector<Point> points = MakePoints(count, 6, 1);
  for (auto _ : state) {
    RTree tree(6);
    for (size_t i = 0; i < points.size(); ++i) {
      tree.InsertPoint(points[i], static_cast<int64_t>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000);

void BM_RTreeBulkLoad(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const std::vector<Point> points = MakePoints(count, 6, 2);
  for (auto _ : state) {
    RTree tree(6);
    std::vector<std::pair<Rect, int64_t>> entries;
    entries.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      entries.emplace_back(Rect::FromPoint(points[i]),
                           static_cast<int64_t>(i));
    }
    tree.BulkLoad(std::move(entries));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000);

// Cost of compiling the packed snapshot (the rebuild-on-mutation price).
void BM_PackedCompile(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const std::vector<Point> points = MakePoints(count, 6, 2);
  RTree tree(6);
  std::vector<std::pair<Rect, int64_t>> entries;
  entries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries.emplace_back(Rect::FromPoint(points[i]), static_cast<int64_t>(i));
  }
  tree.BulkLoad(std::move(entries));
  for (auto _ : state) {
    const PackedRTree packed(tree);
    benchmark::DoNotOptimize(packed.node_count());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_PackedCompile)->Arg(10000)->Arg(100000);

struct UniformFixture {
  explicit UniformFixture(int count)
      : points(MakePoints(count, 4, 3)), tree(4) {
    for (size_t i = 0; i < points.size(); ++i) {
      tree.InsertPoint(points[i], static_cast<int64_t>(i));
    }
    packed = std::make_unique<PackedRTree>(tree);
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
    const std::vector<TimeSeries> market = workload::StockMarket(options);
    std::vector<std::pair<Rect, int64_t>> entries;
    entries.reserve(market.size());
    for (size_t i = 0; i < market.size(); ++i) {
      const SeriesFeatures features = ComputeFeatures(market[i].values);
      coefficients.push_back(
          ExtractCoefficients(features.normal_spectrum,
                              config.num_coefficients));
      feature_points.push_back(MakeFeaturePoint(features, config));
      entries.emplace_back(Rect::FromPoint(feature_points.back()),
                           static_cast<int64_t>(i));
    }
    tree.BulkLoad(std::move(entries));
    packed = std::make_unique<PackedRTree>(tree);
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
  // Answer-set and node-access parity, checked once outside the loop.
  {
    std::vector<int64_t> a;
    std::vector<int64_t> b;
    fx.tree.ResetNodeAccesses();
    fx.packed->ResetNodeAccesses();
    for (const SearchRegion& region : regions) {
      fx.tree.Search(region, nullptr, &a);
      fx.packed->Search(region, nullptr, &b);
    }
    if (a != b || fx.tree.node_accesses() != fx.packed->node_accesses()) {
      state.SkipWithError("packed/pointer range-search mismatch");
      return;
    }
  }
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
  // Pair-count and node-access parity, checked once outside the loop.
  {
    int64_t pointer_pairs = 0;
    int64_t packed_pairs = 0;
    fx.tree.ResetNodeAccesses();
    fx.packed->ResetNodeAccesses();
    fx.tree.JoinWith(fx.tree, pred,
                     [&](int64_t, int64_t) { ++pointer_pairs; });
    fx.packed->JoinWith(*fx.packed, pred,
                        [&](int64_t, int64_t) { ++packed_pairs; },
                        kTable1Epsilon);
    if (pointer_pairs != packed_pairs ||
        fx.tree.node_accesses() != fx.packed->node_accesses()) {
      state.SkipWithError("packed/pointer join mismatch");
      return;
    }
  }
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
  // Result and node-access parity, checked once outside the loop.
  {
    fx.tree.ResetNodeAccesses();
    fx.packed->ResetNodeAccesses();
    for (int q = 0; q < 32; ++q) {
      if (run(fx.tree, q) != run(*fx.packed, q)) {
        state.SkipWithError("packed/pointer kNN mismatch");
        return;
      }
    }
    if (fx.tree.node_accesses() != fx.packed->node_accesses()) {
      state.SkipWithError("packed/pointer kNN node-access mismatch");
      return;
    }
  }
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
