// Shard-equivalence property suite: the sharded scatter-gather engine
// must return answers bit-identical to the unsharded engine -- same ids,
// same names, same IEEE-754 distance bits, same tie-breaking -- for every
// shard count and strategy, on randomized workloads, loaded in bulk or row
// by row. Also asserts the accounting contracts: node accesses are
// monotone under cross-shard kNN pruning (pruned <= unpruned), relation
// epochs roll up one bump per shard mutation, and every work count is the
// same for one pool block or many.
//
// The comparison discipline mirrors the engine's determinism contracts:
// range/kNN answers are canonically ordered by (distance, id) by the
// engine itself and are compared verbatim; join pair sets are compared
// after sorting by (first, second), since the per-probe candidate order
// of the index join legitimately depends on tree shape (each shard's
// tree is packed over that shard's rows only).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/sharded_relation.h"
#include "core/transformation.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace simq {
namespace {

// Four pool threads unless the caller chose a width, pinned before
// anything instantiates the pool, so the full pool splits every fan-out
// into several blocks even on a one-CPU machine.
const bool kPoolWidthPinned = [] {
  ::setenv("SIMQ_THREADS", "4", /*overwrite=*/0);
  return true;
}();

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

ShardingOptions Sharded(int shards) {
  ShardingOptions options;
  options.num_shards = shards;
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

TEST(ShardEquivalence, RangeQueriesAllStrategies) {
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
      const Database sharded = BuildDatabase(series, Sharded(shards));
      for (const std::string& text : queries) {
        const std::string context =
            text + " @ shards=" + std::to_string(shards);
        const Result<QueryResult> want = baseline.ExecuteText(text);
        const Result<QueryResult> got = sharded.ExecuteText(text);
        ASSERT_TRUE(want.ok()) << context << ": " << want.status().ToString();
        ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
        ExpectSameMatches(want.value(), got.value(), context);
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
  // Pure incremental build and a mixed bulk+incremental build must both
  // agree with the unsharded engine.
  const Database incremental =
      BuildDatabase(series, Sharded(3), /*incremental=*/true);
  Database mixed(FeatureConfig(), RTree::Options(), Sharded(3));
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

// Per-shard exact checks add up to the total (range and nearest queries,
// which report per-shard actuals under EXPLAIN).
void ExpectShardChecksSum(const ExecutionStats& stats,
                          const std::string& context) {
  if (stats.shard_stats.empty()) {
    return;
  }
  int64_t sum = 0;
  for (const ExecutionStats::ShardStats& ss : stats.shard_stats) {
    sum += ss.exact_checks;
  }
  EXPECT_EQ(sum, stats.exact_checks) << context;
}

// Pairs in emission order: blocks join in block order, so the order is
// the same for any partition of the outer rows.
void ExpectSamePairOrder(const QueryResult& expected,
                         const QueryResult& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.pairs.size(), actual.pairs.size()) << context;
  for (size_t i = 0; i < expected.pairs.size(); ++i) {
    EXPECT_EQ(expected.pairs[i].first, actual.pairs[i].first) << context;
    EXPECT_EQ(expected.pairs[i].second, actual.pairs[i].second) << context;
    EXPECT_EQ(expected.pairs[i].distance, actual.pairs[i].distance)
        << context;  // bit-exact: distances are never -0.0 or NaN
  }
}

void ExpectSameStats(const ExecutionStats& a, const ExecutionStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.used_index, b.used_index) << context;
  EXPECT_EQ(a.used_filter, b.used_filter) << context;
  EXPECT_EQ(a.node_accesses, b.node_accesses) << context;
  EXPECT_EQ(a.candidates, b.candidates) << context;
  EXPECT_EQ(a.exact_checks, b.exact_checks) << context;
  EXPECT_EQ(a.filter_scanned, b.filter_scanned) << context;
  EXPECT_EQ(a.degraded, b.degraded) << context;
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size()) << context;
  for (size_t s = 0; s < a.shard_stats.size(); ++s) {
    const ExecutionStats::ShardStats& x = a.shard_stats[s];
    const ExecutionStats::ShardStats& y = b.shard_stats[s];
    EXPECT_EQ(x.shard, y.shard) << context;
    EXPECT_EQ(x.rows, y.rows) << context;
    EXPECT_EQ(x.estimated_candidates, y.estimated_candidates) << context;
    EXPECT_EQ(x.candidates, y.candidates) << context;
    EXPECT_EQ(x.exact_checks, y.exact_checks) << context;
  }
}

// Every executor loop folds per-block tallies, so the answer and every
// work count must be the same whether a query runs as one block (a
// parallelism budget of 1) or as the full pool's blocks: index, scan,
// no-abandon scan and filtered range and nearest queries, and join
// methods a-d plus the filtered join, at 1 and 3 shards, freshly loaded
// and again with delta rows and tombstones. Each query runs under
// EXPLAIN, so per-shard estimates and actuals are compared too. The
// filtered kNN is the exception: each block seeds its own radius, so its
// work counts depend on the partition and only its answer is compared.
TEST(ShardEquivalence, WorkCountsDoNotDependOnTheBlockPartition) {
  // 512-value series make 512-row scan units, so one shard holds three
  // units and three shards one each: the full pool splits both into
  // blocks that a budget of 1 runs as one.
  // The joins split outer rows, so a small relation has many blocks. The
  // middle of each workload is held back and inserted as delta rows.
  std::vector<TimeSeries> scan_rows = TieWorkload(1300, 512, 71);
  std::vector<TimeSeries> join_rows = TieWorkload(240, 32, 73);
  const std::vector<TimeSeries> scan_delta(scan_rows.begin() + 600,
                                           scan_rows.begin() + 640);
  const std::vector<TimeSeries> join_delta(join_rows.begin() + 100,
                                           join_rows.begin() + 120);
  scan_rows.erase(scan_rows.begin() + 600, scan_rows.begin() + 640);
  join_rows.erase(join_rows.begin() + 100, join_rows.begin() + 120);
  const std::vector<std::string> scan_queries = {
      "RANGE r WITHIN 22 OF #walk5 VIA INDEX",
      "RANGE r WITHIN 22 OF #walk5 VIA SCAN",
      "RANGE r WITHIN 22 OF #walk5 VIA FULLSCAN",
      "RANGE r WITHIN 22 OF #walk5 VIA SCAN MODE FILTERED",
      "RANGE r WITHIN 14 OF #walk9 USING mavg(8) VIA INDEX",
      "RANGE r WITHIN 14 OF #walk9 USING mavg(8) VIA SCAN MODE FILTERED",
      "RANGE r WITHIN 26 OF #walk3 MEAN 0 60 VIA SCAN",
      "NEAREST 7 r TO #clone1 VIA INDEX",
      "NEAREST 7 r TO #clone1 VIA SCAN",
      "NEAREST 7 r TO #clone1 VIA FULLSCAN",
      "NEAREST 7 r TO #clone1 VIA SCAN MODE FILTERED",
      "NEAREST 12 r TO #walk4 USING mavg(8) VIA INDEX",
      "NEAREST 12 r TO #walk4 USING mavg(8) VIA SCAN MODE FILTERED",
  };
  const std::vector<std::string> join_queries = {
      "PAIRS r WITHIN 2 USING mavg(6) VIA FULLSCAN",       // a
      "PAIRS r WITHIN 2 USING mavg(6) VIA SCAN",           // b
      "PAIRS r WITHIN 1.5 VIA INDEX",                      // c
      "PAIRS r WITHIN 2 USING mavg(6) VIA INDEX",          // d
      "PAIRS r WITHIN 1.5 VIA SCAN MODE FILTERED",         // filtered join
  };
  for (const int shards : {1, 3}) {
    Database scan_db = BuildDatabase(scan_rows, Sharded(shards));
    Database join_db = BuildDatabase(join_rows, Sharded(shards));
    for (const bool delta : {false, true}) {
      if (delta) {
        // The fresh pass compiled every tree and code set; these rows are
        // their delta, and the tombstones hide compiled rows.
        for (const TimeSeries& ts : scan_delta) {
          ASSERT_TRUE(scan_db.Insert("r", ts).ok());
        }
        for (const TimeSeries& ts : join_delta) {
          ASSERT_TRUE(join_db.Insert("r", ts).ok());
        }
        for (const int64_t id : {2, 17, 600, 1100, 1290}) {
          ASSERT_TRUE(scan_db.Delete("r", id).ok());
        }
        for (const int64_t id : {1, 50, 150, 225}) {
          ASSERT_TRUE(join_db.Delete("r", id).ok());
        }
      }
      for (const bool join : {false, true}) {
        const Database& db = join ? join_db : scan_db;
        for (const std::string& text : join ? join_queries : scan_queries) {
          const std::string context =
              text + " @ shards=" + std::to_string(shards) +
              (delta ? " with delta" : " fresh");
          Result<QueryResult> one_block = Status::Internal("not run");
          {
            ThreadPool::ScopedParallelismBudget budget(1);
            one_block = db.ExecuteText("EXPLAIN " + text);
          }
          const Result<QueryResult> pool = db.ExecuteText("EXPLAIN " + text);
          ASSERT_TRUE(one_block.ok())
              << context << ": " << one_block.status().ToString();
          ASSERT_TRUE(pool.ok()) << context << ": " << pool.status().ToString();
          const QueryResult& a = one_block.value();
          const QueryResult& b = pool.value();
          EXPECT_FALSE(a.matches.empty() && a.pairs.empty()) << context;
          ExpectSameMatches(a, b, context);
          ExpectSamePairOrder(a, b, context);
          ExpectShardChecksSum(a.stats, context);
          ExpectShardChecksSum(b.stats, context);
          const bool filtered_knn =
              text.rfind("NEAREST", 0) == 0 &&
              text.find("MODE FILTERED") != std::string::npos;
          if (!filtered_knn) {
            ExpectSameStats(a.stats, b.stats, context);
          }
        }
      }
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
