// Shard-equivalence property suite: the sharded scatter-gather engine
// must return answers bit-identical to the unsharded engine -- same ids,
// same names, same IEEE-754 distance bits, same tie-breaking -- for every
// shard count, partition policy, and strategy, on randomized workloads. Also asserts the accounting contracts: node
// accesses are monotone under cross-shard kNN pruning (pruned <=
// unpruned), and relation epochs roll up one bump per shard mutation.
//
// The comparison discipline mirrors the engine's determinism contracts:
// range/kNN answers are canonically ordered by (distance, id) by the
// engine itself and are compared verbatim; join pair sets are compared
// after sorting by (first, second), since the per-probe candidate order
// of the index join legitimately depends on tree shape (each shard's
// tree is packed over that shard's rows only).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/sharded_relation.h"
#include "core/transformation.h"
#include "workload/generators.h"

namespace simq {
namespace {

Database BuildDatabase(const std::vector<TimeSeries>& series,
                       const ShardingOptions& sharding,
                       bool incremental = false) {
  Database db(FeatureConfig(), RTree::Options(), sharding);
  EXPECT_TRUE(db.CreateRelation("r").ok());
  if (incremental) {
    for (const TimeSeries& ts : series) {
      EXPECT_TRUE(db.Insert("r", ts).ok());
    }
  } else {
    EXPECT_TRUE(db.BulkLoad("r", series).ok());
  }
  return db;
}

ShardingOptions Sharded(int shards, ShardingOptions::Partition partition =
                                        ShardingOptions::Partition::kHash) {
  ShardingOptions options;
  options.num_shards = shards;
  options.partition = partition;
  return options;
}

void ExpectSameMatches(const QueryResult& expected, const QueryResult& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.matches.size(), actual.matches.size()) << context;
  for (size_t i = 0; i < expected.matches.size(); ++i) {
    EXPECT_EQ(expected.matches[i].id, actual.matches[i].id) << context;
    EXPECT_EQ(expected.matches[i].name, actual.matches[i].name) << context;
    // Bit-exact: the sharded kernels must run the same arithmetic.
    EXPECT_EQ(expected.matches[i].distance, actual.matches[i].distance)
        << context;
  }
}

std::vector<PairMatch> SortedPairs(const QueryResult& result) {
  std::vector<PairMatch> pairs = result.pairs;
  std::sort(pairs.begin(), pairs.end(),
            [](const PairMatch& a, const PairMatch& b) {
              if (a.first != b.first) {
                return a.first < b.first;
              }
              return a.second < b.second;
            });
  return pairs;
}

void ExpectSamePairs(const QueryResult& expected, const QueryResult& actual,
                     const std::string& context) {
  const std::vector<PairMatch> a = SortedPairs(expected);
  const std::vector<PairMatch> b = SortedPairs(actual);
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << context;
    EXPECT_EQ(a[i].second, b[i].second) << context;
    EXPECT_EQ(a[i].distance, b[i].distance) << context;  // bit-exact
  }
}

const std::vector<int> kShardCounts = {2, 4, 8};

// Workload with engineered ties: clones of a few walks under fresh names,
// so kNN tie-breaking at the k-th distance is actually exercised across
// shard boundaries.
std::vector<TimeSeries> TieWorkload(int count, int length, uint64_t seed) {
  std::vector<TimeSeries> series =
      workload::RandomWalkSeries(count, length, seed);
  const size_t base = series.size();
  for (int c = 0; c < 6; ++c) {
    TimeSeries clone = series[static_cast<size_t>(c * 7) % base];
    clone.id = "clone" + std::to_string(c);
    series.push_back(clone);
  }
  return series;
}

TEST(ShardEquivalence, RangeQueriesAllStrategiesAndPolicies) {
  for (const uint64_t seed : {11u, 29u}) {
    const std::vector<TimeSeries> series = TieWorkload(130, 48, seed);
    const Database baseline = BuildDatabase(series, ShardingOptions());
    const std::vector<std::string> queries = {
        "RANGE r WITHIN 2.5 OF #walk5",
        "RANGE r WITHIN 2.5 OF #walk5 VIA SCAN",
        "RANGE r WITHIN 2.5 OF #walk5 VIA FULLSCAN",
        "RANGE r WITHIN 0 OF #clone0",
        "RANGE r WITHIN 4.0 OF #walk9 USING mavg(8)",
        "RANGE r WITHIN 4.0 OF #walk9 USING mavg(8) VIA SCAN",
        "RANGE r WITHIN 6.0 OF #walk2 USING reverse VIA INDEX",
        "RANGE r WITHIN 3.0 OF #walk3 MEAN 30 80 STD 0.5 9",
        "RANGE r WITHIN 8.0 OF #walk4 MODE RAW",
    };
    for (const int shards : kShardCounts) {
      for (const auto partition : {ShardingOptions::Partition::kHash,
                                   ShardingOptions::Partition::kRange}) {
        const Database sharded =
            BuildDatabase(series, Sharded(shards, partition));
        for (const std::string& text : queries) {
          const std::string context =
              text + " @ shards=" + std::to_string(shards) +
              " partition=" + std::to_string(static_cast<int>(partition));
          const Result<QueryResult> want = baseline.ExecuteText(text);
          const Result<QueryResult> got = sharded.ExecuteText(text);
          ASSERT_TRUE(want.ok()) << context << ": " << want.status().ToString();
          ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
          ExpectSameMatches(want.value(), got.value(), context);
        }
      }
    }
  }
}

TEST(ShardEquivalence, NearestNeighborsWithTiesAllShardCounts) {
  const std::vector<TimeSeries> series = TieWorkload(120, 32, 17);
  const Database baseline = BuildDatabase(series, ShardingOptions());
  const std::vector<std::string> queries = {
      "NEAREST 1 r TO #walk7",
      "NEAREST 5 r TO #clone1",  // exact-duplicate ties at distance 0
      "NEAREST 17 r TO #walk3 USING mavg(6)",
      "NEAREST 9 r TO #walk4 VIA SCAN",
      "NEAREST 200 r TO #walk0",  // k > relation size
      "NEAREST 4 r TO #walk2 MEAN 20 70",
  };
  for (const int shards : kShardCounts) {
    const Database sharded = BuildDatabase(series, Sharded(shards));
    for (const std::string& text : queries) {
      const std::string context =
          text + " @ shards=" + std::to_string(shards);
      const Result<QueryResult> want = baseline.ExecuteText(text);
      const Result<QueryResult> got = sharded.ExecuteText(text);
      ASSERT_TRUE(want.ok()) << context;
      ASSERT_TRUE(got.ok()) << context;
      ExpectSameMatches(want.value(), got.value(), context);
    }
  }
}

TEST(ShardEquivalence, SelfJoinsAllMethodsAndRuleShapes) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(90, 32, 23);
  const Database baseline = BuildDatabase(series, ShardingOptions());
  const auto mavg = MakeMovingAverageRule(6);
  const auto reverse = MakeReverseRule();
  const double eps = 3.0;
  for (const int shards : kShardCounts) {
    const Database sharded = BuildDatabase(series, Sharded(shards));
    for (const JoinMethod method :
         {JoinMethod::kFullScan, JoinMethod::kScanEarlyAbandon,
          JoinMethod::kIndexNoTransform, JoinMethod::kIndexTransform}) {
      const std::string context = "method=" +
          std::to_string(static_cast<int>(method)) +
          " @ shards=" + std::to_string(shards);
      const Result<QueryResult> want =
          baseline.SelfJoin("r", eps, mavg.get(), method);
      const Result<QueryResult> got =
          sharded.SelfJoin("r", eps, mavg.get(), method);
      ASSERT_TRUE(want.ok()) << context;
      ASSERT_TRUE(got.ok()) << context;
      ExpectSamePairs(want.value(), got.value(), context);
    }
    // Asymmetric join r >< T(r) (the hedging shape), index and scan.
    for (const JoinMethod method :
         {JoinMethod::kScanEarlyAbandon, JoinMethod::kIndexTransform}) {
      const std::string context =
          "asymmetric method=" + std::to_string(static_cast<int>(method)) +
          " @ shards=" + std::to_string(shards);
      const Result<QueryResult> want = baseline.SelfJoin(
          "r", eps, mavg.get(), reverse.get(), method);
      const Result<QueryResult> got =
          sharded.SelfJoin("r", eps, mavg.get(), reverse.get(), method);
      ASSERT_TRUE(want.ok()) << context;
      ASSERT_TRUE(got.ok()) << context;
      ExpectSamePairs(want.value(), got.value(), context);
    }
    // The textual PAIRS planner path.
    const Result<QueryResult> want =
        baseline.ExecuteText("PAIRS r WITHIN 1.5");
    const Result<QueryResult> got = sharded.ExecuteText("PAIRS r WITHIN 1.5");
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSamePairs(want.value(), got.value(),
                    "PAIRS @ shards=" + std::to_string(shards));
  }
}

TEST(ShardEquivalence, IncrementalInsertRoutingMatchesBulkLoad) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(70, 24, 31);
  const Database baseline = BuildDatabase(series, ShardingOptions());
  for (const auto partition : {ShardingOptions::Partition::kHash,
                               ShardingOptions::Partition::kRange}) {
    // Pure incremental build and a mixed bulk+incremental build must both
    // agree with the unsharded engine.
    const Database incremental =
        BuildDatabase(series, Sharded(3, partition), /*incremental=*/true);
    Database mixed(FeatureConfig(), RTree::Options(), Sharded(3, partition));
    ASSERT_TRUE(mixed.CreateRelation("r").ok());
    const std::vector<TimeSeries> head(series.begin(), series.begin() + 40);
    ASSERT_TRUE(mixed.BulkLoad("r", head).ok());
    for (size_t i = 40; i < series.size(); ++i) {
      ASSERT_TRUE(mixed.Insert("r", series[i]).ok());
    }
    for (const std::string& text :
         {std::string("RANGE r WITHIN 3.0 OF #walk5"),
          std::string("NEAREST 7 r TO #walk8 USING mavg(4)"),
          std::string("PAIRS r WITHIN 2.0")}) {
      const Result<QueryResult> want = baseline.ExecuteText(text);
      const Result<QueryResult> inc = incremental.ExecuteText(text);
      const Result<QueryResult> mix = mixed.ExecuteText(text);
      ASSERT_TRUE(want.ok() && inc.ok() && mix.ok()) << text;
      ExpectSameMatches(want.value(), inc.value(), "incremental " + text);
      ExpectSameMatches(want.value(), mix.value(), "mixed " + text);
      ExpectSamePairs(want.value(), inc.value(), "incremental " + text);
      ExpectSamePairs(want.value(), mix.value(), "mixed " + text);
    }
  }
}

TEST(ShardEquivalence, CrossShardPruningIsMonotoneAndAnswerPreserving) {
  const std::vector<TimeSeries> series = TieWorkload(200, 32, 53);
  for (const int shards : kShardCounts) {
    Database pruned = BuildDatabase(series, Sharded(shards));
    Database unpruned = BuildDatabase(series, Sharded(shards));
    unpruned.set_cross_shard_knn_pruning(false);
    ASSERT_TRUE(pruned.cross_shard_knn_pruning());
    for (const std::string& text :
         {std::string("NEAREST 3 r TO #walk11 VIA INDEX"),
          std::string("NEAREST 10 r TO #clone3 VIA INDEX"),
          std::string("NEAREST 25 r TO #walk40 USING mavg(4) VIA INDEX")}) {
      const std::string context =
          text + " @ shards=" + std::to_string(shards);
      const Result<QueryResult> fast = pruned.ExecuteText(text);
      const Result<QueryResult> slow = unpruned.ExecuteText(text);
      ASSERT_TRUE(fast.ok() && slow.ok()) << context;
      // Pruning must never change the answer...
      ExpectSameMatches(slow.value(), fast.value(), context);
      // ...and the node-access accounting must be monotone: the pruned
      // scatter visits a subset of the unpruned scatter's nodes, and
      // every scatter visits at least the shard roots.
      EXPECT_LE(fast.value().stats.node_accesses,
                slow.value().stats.node_accesses)
          << context;
      EXPECT_GE(fast.value().stats.node_accesses, shards) << context;
    }
  }
}

TEST(ShardEquivalence, EpochRollsUpOneBumpPerShardMutation) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(40, 16, 61);
  Database db(FeatureConfig(), RTree::Options(), Sharded(4));
  ASSERT_TRUE(db.CreateRelation("r").ok());
  const Relation* relation = db.GetRelation("r");
  ASSERT_NE(relation, nullptr);
  EXPECT_EQ(relation->epoch(), 0u);

  // A bulk load bumps each loaded shard once (all 4 receive records).
  ASSERT_TRUE(db.BulkLoad("r", series).ok());
  EXPECT_EQ(relation->epoch(), 4u);

  // Each insert bumps exactly one shard.
  TimeSeries extra = series[0];
  extra.id = "extra0";
  ASSERT_TRUE(db.Insert("r", extra).ok());
  EXPECT_EQ(relation->epoch(), 5u);
  extra.id = "extra1";
  ASSERT_TRUE(db.Insert("r", extra).ok());
  EXPECT_EQ(relation->epoch(), 6u);

  // The locator and shard sizes stay consistent.
  const ShardedRelation& data = relation->sharded();
  int64_t total = 0;
  for (int s = 0; s < data.num_shards(); ++s) {
    const RelationShard& shard = data.shard(s);
    for (int64_t i = 0; i < shard.size(); ++i) {
      const int64_t g = shard.global_id(i);
      EXPECT_EQ(data.shard_of(g), s);
      EXPECT_EQ(data.local_of(g), i);
    }
    total += shard.size();
  }
  EXPECT_EQ(total, relation->size());
}

}  // namespace
}  // namespace simq
