// Randomized differential test of the packed tree against the reference
// tree (index/rtree.h). A long random stream of inserts and deletes over
// clustered points runs against a shadow map; at checkpoints the live
// entries are STR-packed into a PackedRTree and bulk-loaded into the
// reference from the same entries, and every traversal must agree:
// identical result sets for Search/JoinWith/NearestNeighbors and identical
// node-access counters (exact equality is the documented bound for all
// three traversals; see DESIGN.md "Packed traversal engine").

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geom/search_region.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "ts/feature.h"
#include "util/random.h"

namespace simq {
namespace {

struct FuzzCase {
  int dims;
  int max_entries;
  int operations;
  uint64_t seed;
};

class PackedFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PackedFuzzTest, SnapshotMatchesPointerEngine) {
  const FuzzCase c = GetParam();
  RTree::Options options;
  options.max_entries = c.max_entries;
  Random rng(c.seed);

  std::map<int64_t, Point> live;
  int64_t next_id = 0;
  auto random_point = [&] {
    Point p(static_cast<size_t>(c.dims));
    for (double& v : p) {
      // Clustered coordinates: two dense blobs per dimension.
      const double center = rng.Bernoulli(0.5) ? -50.0 : 50.0;
      v = center + rng.UniformDouble(-30.0, 30.0);
    }
    return p;
  };

  // kNN needs a feature-space layout: only defined for even dims.
  FeatureConfig config;
  config.space = FeatureSpace::kRectangular;
  config.include_mean_std = false;
  config.num_coefficients = c.dims / 2;
  const bool knn_enabled = c.dims % 2 == 0 && config.num_coefficients > 0;

  for (int op = 0; op < c.operations; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.7 || live.empty()) {
      live[next_id] = random_point();
      ++next_id;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<int64_t>(rng.UniformInt(
                           0, static_cast<int64_t>(live.size()) - 1)));
      live.erase(it);
    }
    if (op % 400 != 399) {
      continue;
    }

    // Checkpoint: pack the live entries, bulk-load the reference from the
    // same entries in the same order, and cross-check every traversal.
    std::vector<double> coords;
    std::vector<int64_t> ids;
    std::vector<std::pair<Rect, int64_t>> rects;
    for (const auto& [id, point] : live) {
      coords.insert(coords.end(), point.begin(), point.end());
      ids.push_back(id);
      rects.emplace_back(Rect::FromPoint(point), id);
    }
    const PackedRTree packed(c.dims, c.max_entries, coords, coords, ids);
    RTree tree(c.dims, options);
    tree.BulkLoad(std::move(rects));
    ASSERT_EQ(packed.node_count(), tree.node_count()) << "op " << op;
    ASSERT_EQ(packed.size(), tree.size()) << "op " << op;

    // Range searches via SearchGeneric: identical emit order and accesses.
    for (int trial = 0; trial < 4; ++trial) {
      Point lo(static_cast<size_t>(c.dims));
      Point hi(static_cast<size_t>(c.dims));
      for (int d = 0; d < c.dims; ++d) {
        const double a = rng.UniformDouble(-100.0, 100.0);
        const double b = rng.UniformDouble(-100.0, 100.0);
        lo[static_cast<size_t>(d)] = std::min(a, b);
        hi[static_cast<size_t>(d)] = std::max(a, b);
      }
      const Rect box = Rect::FromBounds(lo, hi);
      const auto overlaps = [&](const auto& rect) {
        for (int d = 0; d < c.dims; ++d) {
          if (rect.lo(d) > box.hi(d) || rect.hi(d) < box.lo(d)) {
            return false;
          }
        }
        return true;
      };
      const auto contains_point = [&](const auto& rect) {
        for (int d = 0; d < c.dims; ++d) {
          if (rect.lo(d) < box.lo(d) || rect.lo(d) > box.hi(d)) {
            return false;
          }
        }
        return true;
      };
      std::set<int64_t> brute_force;
      for (const auto& [id, point] : live) {
        if (box.ContainsPoint(point)) {
          brute_force.insert(id);
        }
      }
      tree.ResetNodeAccesses();
      std::vector<int64_t> expected;
      tree.SearchGeneric(
          overlaps,
          [&](const Rect& rect, int64_t) { return contains_point(rect); },
          [&](int64_t id) { expected.push_back(id); });
      packed.ResetNodeAccesses();
      std::vector<int64_t> actual;
      packed.SearchGeneric(
          overlaps,
          [&](const auto& rect, int64_t) { return contains_point(rect); },
          [&](int64_t id) { actual.push_back(id); });
      ASSERT_EQ(actual, expected) << "op " << op << " trial " << trial;
      ASSERT_EQ(std::set<int64_t>(actual.begin(), actual.end()), brute_force)
          << "op " << op << " trial " << trial;
      ASSERT_EQ(packed.node_accesses(), tree.node_accesses())
          << "op " << op << " trial " << trial;
    }

    // Self-join: identical pair sets and accesses, sweep on and off.
    {
      const double eps = rng.UniformDouble(1.0, 15.0);
      const EpsilonPairPredicate pred{c.dims, eps};
      tree.ResetNodeAccesses();
      std::set<std::pair<int64_t, int64_t>> expected;
      tree.JoinWith(tree, pred, [&](int64_t a, int64_t b) {
        expected.insert({a, b});
      });
      packed.ResetNodeAccesses();
      std::set<std::pair<int64_t, int64_t>> actual;
      packed.JoinWith(packed, pred, [&](int64_t a, int64_t b) {
        actual.insert({a, b});
      }, eps);
      ASSERT_EQ(actual, expected) << "op " << op;
      ASSERT_EQ(packed.node_accesses(), tree.node_accesses()) << "op " << op;
      std::set<std::pair<int64_t, int64_t>> no_sweep;
      packed.JoinWith(packed, pred, [&](int64_t a, int64_t b) {
        no_sweep.insert({a, b});
      }, std::numeric_limits<double>::infinity());
      ASSERT_EQ(no_sweep, expected) << "op " << op;
    }

    // kNN: identical (distance, id) results and accesses.
    if (knn_enabled && !live.empty()) {
      std::vector<Complex> query;
      for (int f = 0; f < config.num_coefficients; ++f) {
        query.push_back(Complex(rng.UniformDouble(-120.0, 120.0),
                                rng.UniformDouble(-120.0, 120.0)));
      }
      const NnLowerBound bound(query, config);
      const std::vector<DimAffine> identity(static_cast<size_t>(c.dims));
      const auto exact = [&](int64_t id) {
        return bound.ToTransformedPoint(live.at(id), identity);
      };
      const int k = static_cast<int>(rng.UniformInt(
          1, std::min<int64_t>(25, static_cast<int64_t>(live.size()))));
      tree.ResetNodeAccesses();
      const auto expected = tree.NearestNeighbors(bound, nullptr, k, exact);
      packed.ResetNodeAccesses();
      const auto actual = packed.NearestNeighbors(bound, nullptr, k, exact);
      ASSERT_EQ(actual, expected) << "op " << op << " k " << k;
      ASSERT_EQ(packed.node_accesses(), tree.node_accesses())
          << "op " << op << " k " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PackedFuzzTest,
    ::testing::Values(FuzzCase{2, 8, 2400, 11}, FuzzCase{3, 4, 1600, 12},
                      FuzzCase{4, 16, 2400, 13}, FuzzCase{6, 32, 2800, 14},
                      FuzzCase{1, 6, 1600, 15}, FuzzCase{5, 5, 2000, 16}));

}  // namespace
}  // namespace simq
