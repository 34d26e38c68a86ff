#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/parser.h"
#include "ts/feature.h"
#include "ts/transforms.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace simq {
namespace {

// Reference implementation: normal-form distance between T(x) and q
// computed purely in the time domain.
double ReferenceDistance(const std::vector<double>& data_raw,
                         const std::vector<double>& query_raw,
                         const TransformationRule* rule) {
  std::vector<double> lhs = ToNormalForm(data_raw).values;
  if (rule != nullptr) {
    lhs = rule->Apply(lhs);
  }
  const std::vector<double> rhs = ToNormalForm(query_raw).values;
  return EuclideanDistance(lhs, rhs);
}

// Ids a whole-space traversal of the relation's packed tree returns, in
// ascending order -- the structural check of its one index: every live id
// exactly once.
std::vector<int64_t> IndexedIds(const Relation& relation) {
  std::vector<int64_t> ids;
  relation.packed_index().SearchGeneric(
      [](const auto&) { return true; },
      [](const auto&, int64_t) { return true; },
      [&](int64_t id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int64_t> LiveIds(const Relation& relation) {
  std::vector<int64_t> ids;
  for (int64_t id = 0; id < relation.size(); ++id) {
    if (relation.sharded().alive(id)) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<TimeSeries> TestSeries(int count, int length, uint64_t seed) {
  return workload::RandomWalkSeries(count, length, seed);
}

Database MakeLoadedDatabase(const std::vector<TimeSeries>& series,
                            FeatureConfig config = FeatureConfig()) {
  Database db(config);
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(db.BulkLoad("r", series).ok());
  return db;
}

std::set<int64_t> MatchIds(const QueryResult& result) {
  std::set<int64_t> ids;
  for (const Match& match : result.matches) {
    ids.insert(match.id);
  }
  return ids;
}

TEST(DatabaseTest, CreateInsertBasics) {
  Database db;
  EXPECT_TRUE(db.CreateRelation("stocks").ok());
  EXPECT_EQ(db.CreateRelation("stocks").code(), StatusCode::kAlreadyExists);

  TimeSeries series;
  series.id = "ibm";
  series.values = {1.0, 2.0, 3.0, 4.0};
  const Result<int64_t> id = db.Insert("stocks", series);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 0);

  EXPECT_EQ(db.Insert("nope", series).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.Insert("stocks", series).status().code(),
            StatusCode::kAlreadyExists);  // duplicate name

  TimeSeries wrong_length;
  wrong_length.id = "short";
  wrong_length.values = {1.0, 2.0};
  EXPECT_EQ(db.Insert("stocks", wrong_length).status().code(),
            StatusCode::kInvalidArgument);

  TimeSeries empty;
  empty.id = "empty";
  EXPECT_EQ(db.Insert("stocks", empty).status().code(),
            StatusCode::kInvalidArgument);

  const Relation* relation = db.GetRelation("stocks");
  ASSERT_NE(relation, nullptr);
  EXPECT_EQ(relation->size(), 1);
  EXPECT_EQ(relation->series_length(), 4);
  EXPECT_TRUE(relation->FindByName("ibm").ok());
  EXPECT_FALSE(relation->FindByName("zzz").ok());
}

TEST(DatabaseTest, BulkLoadMatchesIncrementalInsert) {
  const std::vector<TimeSeries> series = TestSeries(200, 64, 7);
  Database bulk;
  ASSERT_TRUE(bulk.CreateRelation("r").ok());
  ASSERT_TRUE(bulk.BulkLoad("r", series).ok());

  Database incremental;
  ASSERT_TRUE(incremental.CreateRelation("r").ok());
  for (const TimeSeries& ts : series) {
    ASSERT_TRUE(incremental.Insert("r", ts).ok());
  }

  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.literal = series[0].values;
  query.epsilon = 5.0;
  const Result<QueryResult> a = bulk.Execute(query);
  const Result<QueryResult> b = incremental.Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(MatchIds(a.value()), MatchIds(b.value()));
  EXPECT_EQ(IndexedIds(*bulk.GetRelation("r")),
            LiveIds(*bulk.GetRelation("r")));
  EXPECT_EQ(IndexedIds(*incremental.GetRelation("r")),
            LiveIds(*incremental.GetRelation("r")));
  EXPECT_EQ(LiveIds(*bulk.GetRelation("r")).size(), series.size());
}

// pending_tombstones counts the deletes the last recompaction publish has
// not shed: a fold sheds every dead row, and a later fold must not
// subtract the rows an earlier one already shed.
TEST(DatabaseTest, PendingTombstonesCountUnshedDeletesAcrossFolds) {
  Database db = MakeLoadedDatabase(TestSeries(40, 32, 3));
  const ShardedRelation& data = db.GetRelation("r")->sharded();
  ASSERT_TRUE(db.Delete("r", 4).ok());
  ASSERT_TRUE(db.Delete("r", 9).ok());
  EXPECT_EQ(data.pending_tombstones(), 2);
  ASSERT_TRUE(db.Recompact("r").ok());
  EXPECT_EQ(data.pending_tombstones(), 0);
  ASSERT_TRUE(db.Delete("r", 12).ok());
  EXPECT_EQ(data.pending_tombstones(), 1);
  ASSERT_TRUE(db.Recompact("r").ok());
  EXPECT_EQ(data.pending_tombstones(), 0);
  EXPECT_EQ(IndexedIds(*db.GetRelation("r")), LiveIds(*db.GetRelation("r")));
}

TEST(DatabaseTest, BulkLoadRequiresEmptyRelation) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  TimeSeries one;
  one.values = {1.0, 2.0, 3.0};
  ASSERT_TRUE(db.Insert("r", one).ok());
  EXPECT_EQ(db.BulkLoad("r", TestSeries(3, 3, 1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DatabaseTest, FailedBulkLoadLeavesRelationEmptyAndReloadable) {
  // All-or-nothing: a batch that fails validation part-way must leave no
  // records, no names, and no series-length sentinel behind -- a retry
  // with a DIFFERENT (but internally consistent) length must succeed.
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  std::vector<TimeSeries> bad = TestSeries(3, 10, 1);
  bad.push_back(TimeSeries{});  // empty series -> InvalidArgument
  EXPECT_EQ(db.BulkLoad("r", bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.GetRelation("r")->size(), 0);

  std::vector<TimeSeries> mismatched = TestSeries(2, 10, 2);
  mismatched.push_back(TestSeries(1, 20, 3)[0]);  // length mismatch
  EXPECT_EQ(db.BulkLoad("r", mismatched).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.GetRelation("r")->size(), 0);

  const std::vector<TimeSeries> good = TestSeries(4, 20, 4);
  ASSERT_TRUE(db.BulkLoad("r", good).ok());
  EXPECT_EQ(db.GetRelation("r")->size(), 4);
  EXPECT_EQ(db.GetRelation("r")->series_length(), 20);
}

TEST(DatabaseTest, NonFiniteValuesAreRejectedAtInsertAndBulkLoad) {
  // A stored NaN or infinity used to reach the index geometry and abort
  // the process at the first index kNN or join over it.
  Database db = MakeLoadedDatabase(TestSeries(20, 16, 61));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    TimeSeries series = TestSeries(1, 16, 62)[0];
    series.id = "bad";
    series.values[5] = bad;
    const Result<int64_t> inserted = db.Insert("r", series);
    ASSERT_FALSE(inserted.ok()) << bad;
    EXPECT_EQ(inserted.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(inserted.status().message(),
              "series 'bad' has a non-finite value at position 5");
  }
  EXPECT_EQ(db.GetRelation("r")->size(), 20);
  EXPECT_FALSE(db.GetRelation("r")->FindByName("bad").ok());
  for (const char* text :
       {"NEAREST 10 r TO #walk0 VIA INDEX", "PAIRS r WITHIN 1"}) {
    EXPECT_TRUE(db.ExecuteText(text).ok()) << text;
  }

  // All-or-nothing: one bad value anywhere in the batch loads nothing.
  Database empty;
  ASSERT_TRUE(empty.CreateRelation("r").ok());
  std::vector<TimeSeries> batch = TestSeries(6, 16, 63);
  batch[4].values[15] = std::numeric_limits<double>::quiet_NaN();
  const Status loaded = empty.BulkLoad("r", batch);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.message(), "series '" + batch[4].id +
                                  "' has a non-finite value at position 15");
  EXPECT_EQ(empty.GetRelation("r")->size(), 0);
  batch[4].values[15] = 0.5;
  ASSERT_TRUE(empty.BulkLoad("r", batch).ok());
  EXPECT_EQ(empty.GetRelation("r")->size(), 6);
}

TEST(DatabaseTest, OverflowingMeanOrSpreadIsRejectedAtInsertLoadAndQuery) {
  // Every value is finite, but the mean overflows (1.7e308 - i * 1e300
  // over 16 values) or the spread does (+-1.7e308 alternating); the normal
  // form and the index point of such a row hold inf/NaN.
  std::vector<double> high_mean;
  std::vector<double> wide;
  for (int i = 0; i < 16; ++i) {
    high_mean.push_back(1.7e308 - i * 1e300);
    wide.push_back(i % 2 == 0 ? 1.7e308 : -1.7e308);
  }
  Database db = MakeLoadedDatabase(TestSeries(20, 16, 7));
  for (const std::vector<double>& values : {high_mean, wide}) {
    TimeSeries series;
    series.id = "over";
    series.values = values;
    const Result<int64_t> inserted = db.Insert("r", series);
    ASSERT_FALSE(inserted.ok());
    EXPECT_EQ(inserted.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(inserted.status().message(),
              "series 'over' has a non-finite mean or standard deviation");

    // The same values as a query series, the form a prepared statement's
    // bound series takes.
    Query query;
    query.kind = QueryKind::kNearest;
    query.relation = "r";
    query.k = 3;
    query.query_series.literal = values;
    for (const ExecutionStrategy strategy :
         {ExecutionStrategy::kIndex, ExecutionStrategy::kScan}) {
      query.strategy = strategy;
      const Result<QueryResult> result = db.Execute(query);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(result.status().message(),
                "query series has a non-finite mean or standard deviation");
    }
    query.query_prenormalized = true;
    const Result<QueryResult> prenormalized = db.Execute(query);
    ASSERT_FALSE(prenormalized.ok());
    EXPECT_EQ(prenormalized.status().message(),
              "PRENORMALIZED query series has a non-finite spectrum");
  }
  EXPECT_EQ(db.GetRelation("r")->size(), 20);
  for (const char* text :
       {"NEAREST 10 r TO #walk0 VIA INDEX", "PAIRS r WITHIN 1"}) {
    EXPECT_TRUE(db.ExecuteText(text).ok()) << text;
  }

  // All-or-nothing: one such series anywhere in the batch loads nothing.
  Database empty;
  ASSERT_TRUE(empty.CreateRelation("r").ok());
  std::vector<TimeSeries> batch = TestSeries(6, 16, 63);
  batch[3].values = wide;
  const Status loaded = empty.BulkLoad("r", batch);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.message(),
            "series '" + batch[3].id +
                "' has a non-finite mean or standard deviation");
  EXPECT_EQ(empty.GetRelation("r")->size(), 0);
}

class RangeQueryEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(RangeQueryEquivalenceTest, IndexScanAndBruteForceAgree) {
  // The Lemma 1 integration property: for every transformation, index
  // execution returns exactly the same answer set as scanning, which in
  // turn matches the time-domain reference distance.
  const std::string rule_name = GetParam();
  const std::vector<TimeSeries> series = TestSeries(250, 64, 11);
  Database db = MakeLoadedDatabase(series);

  std::shared_ptr<TransformationRule> shared_rule;
  if (rule_name == "mavg20") {
    shared_rule = MakeMovingAverageRule(20);
  } else if (rule_name == "reverse") {
    shared_rule = MakeReverseRule();
  } else if (rule_name == "mavg5_reverse") {
    std::vector<std::unique_ptr<TransformationRule>> parts;
    parts.push_back(MakeMovingAverageRule(5));
    parts.push_back(MakeReverseRule());
    shared_rule = MakeCompositeRule(std::move(parts));
  } else if (rule_name == "scale_negative") {
    shared_rule = MakeScaleRule(-2.0);
  }

  for (const double epsilon : {0.5, 2.0, 6.0, 12.0}) {
    Query query;
    query.kind = QueryKind::kRange;
    query.relation = "r";
    query.query_series.literal = series[17].values;
    query.epsilon = epsilon;
    query.transform = shared_rule;

    query.strategy = ExecutionStrategy::kIndex;
    const Result<QueryResult> via_index = db.Execute(query);
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    EXPECT_TRUE(via_index.value().stats.used_index);

    query.strategy = ExecutionStrategy::kScan;
    const Result<QueryResult> via_scan = db.Execute(query);
    ASSERT_TRUE(via_scan.ok()) << via_scan.status().ToString();
    EXPECT_FALSE(via_scan.value().stats.used_index);

    EXPECT_EQ(MatchIds(via_index.value()), MatchIds(via_scan.value()))
        << "eps=" << epsilon;

    // Brute-force reference.
    std::set<int64_t> expected;
    for (size_t i = 0; i < series.size(); ++i) {
      if (ReferenceDistance(series[i].values, series[17].values,
                            shared_rule.get()) <= epsilon) {
        expected.insert(static_cast<int64_t>(i));
      }
    }
    EXPECT_EQ(MatchIds(via_index.value()), expected) << "eps=" << epsilon;

    // Distances agree with the reference within numerical tolerance.
    for (const Match& match : via_index.value().matches) {
      const double reference = ReferenceDistance(
          series[static_cast<size_t>(match.id)].values, series[17].values,
          shared_rule.get());
      EXPECT_NEAR(match.distance, reference, 1e-7);
    }

    // The index filter admits a superset of the answers (Lemma 1), and
    // never more than the whole relation.
    EXPECT_GE(via_index.value().stats.candidates,
              static_cast<int64_t>(via_index.value().matches.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Rules, RangeQueryEquivalenceTest,
                         ::testing::Values("none", "mavg20", "reverse",
                                           "mavg5_reverse",
                                           "scale_negative"));

TEST(DatabaseTest, ShiftScaleAreNormalFormInvariant) {
  const std::vector<TimeSeries> series = TestSeries(100, 64, 13);
  Database db = MakeLoadedDatabase(series);

  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = 3;
  query.epsilon = 4.0;
  const Result<QueryResult> plain = db.Execute(query);
  ASSERT_TRUE(plain.ok());

  std::vector<std::unique_ptr<TransformationRule>> parts;
  parts.push_back(MakeShiftRule(42.0));
  parts.push_back(MakeScaleRule(3.0));
  query.transform = MakeCompositeRule(std::move(parts));
  const Result<QueryResult> shifted = db.Execute(query);
  ASSERT_TRUE(shifted.ok());
  EXPECT_TRUE(shifted.value().stats.used_index);
  EXPECT_EQ(MatchIds(plain.value()), MatchIds(shifted.value()));
}

TEST(DatabaseTest, TimeWarpQueryAcrossLengths) {
  // Data of length 64; query of length 128 compared under warp(2).
  const std::vector<TimeSeries> series = TestSeries(150, 64, 17);
  Database db = MakeLoadedDatabase(series);

  // The query: the warped version of series 5, plus noise.
  std::vector<double> target =
      TimeWarpSeries(ToNormalForm(series[5].values).values, 2);
  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.literal = target;
  query.epsilon = 0.1;
  query.transform = std::shared_ptr<const TransformationRule>(
      MakeTimeWarpRule(2).release());

  query.strategy = ExecutionStrategy::kIndex;
  const Result<QueryResult> via_index = db.Execute(query);
  ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
  query.strategy = ExecutionStrategy::kScan;
  const Result<QueryResult> via_scan = db.Execute(query);
  ASSERT_TRUE(via_scan.ok());

  EXPECT_EQ(MatchIds(via_index.value()), MatchIds(via_scan.value()));
  EXPECT_EQ(MatchIds(via_index.value()).count(5), 1u);

  // Mismatched query length is rejected.
  query.query_series.literal.pop_back();
  EXPECT_FALSE(db.Execute(query).ok());
}

TEST(DatabaseTest, RawModeUsesScanAndRawDistances) {
  const std::vector<TimeSeries> series = TestSeries(80, 32, 19);
  Database db = MakeLoadedDatabase(series);

  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = 0;
  query.epsilon = 25.0;
  query.mode = DistanceMode::kRaw;
  const Result<QueryResult> result = db.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().stats.used_index);

  std::set<int64_t> expected;
  for (size_t i = 0; i < series.size(); ++i) {
    if (EuclideanDistance(series[i].values, series[0].values) <= 25.0) {
      expected.insert(static_cast<int64_t>(i));
    }
  }
  EXPECT_EQ(MatchIds(result.value()), expected);

  // Raw mode cannot be forced onto the index.
  query.strategy = ExecutionStrategy::kIndex;
  EXPECT_EQ(db.Execute(query).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DatabaseTest, NonSpectralRuleFallsBackToScan) {
  const std::vector<TimeSeries> series = TestSeries(60, 32, 23);
  Database db = MakeLoadedDatabase(series);

  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = 1;
  query.epsilon = 3.0;
  query.transform =
      std::shared_ptr<const TransformationRule>(MakeDespikeRule(2.0).release());
  const Result<QueryResult> result = db.Execute(query);  // auto strategy
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().stats.used_index);

  query.strategy = ExecutionStrategy::kIndex;
  EXPECT_EQ(db.Execute(query).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DatabaseTest, PlannerRespectsFeatureSpaceSafety) {
  // mavg has a complex multiplier: safe in polar space, unsafe in
  // rectangular space. The planner must scan in the latter.
  const std::vector<TimeSeries> series = TestSeries(60, 64, 29);

  FeatureConfig polar;
  polar.space = FeatureSpace::kPolar;
  Database polar_db = MakeLoadedDatabase(series, polar);

  FeatureConfig rect;
  rect.space = FeatureSpace::kRectangular;
  Database rect_db = MakeLoadedDatabase(series, rect);

  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = 2;
  query.epsilon = 2.0;
  query.transform = std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(20).release());

  const Result<QueryResult> via_polar = polar_db.Execute(query);
  ASSERT_TRUE(via_polar.ok());
  EXPECT_TRUE(via_polar.value().stats.used_index);

  const Result<QueryResult> via_rect = rect_db.Execute(query);
  ASSERT_TRUE(via_rect.ok());
  EXPECT_FALSE(via_rect.value().stats.used_index);

  EXPECT_EQ(MatchIds(via_polar.value()), MatchIds(via_rect.value()));

  // Reverse has a real multiplier: indexable in both spaces.
  query.transform = std::shared_ptr<const TransformationRule>(
      MakeReverseRule().release());
  const Result<QueryResult> rect_reverse = rect_db.Execute(query);
  ASSERT_TRUE(rect_reverse.ok());
  EXPECT_TRUE(rect_reverse.value().stats.used_index);
}

TEST(DatabaseTest, NearestNeighborIndexMatchesScan) {
  const std::vector<TimeSeries> series = TestSeries(300, 64, 31);
  Database db = MakeLoadedDatabase(series);

  for (const char* rule_name : {"none", "mavg20", "reverse"}) {
    std::shared_ptr<TransformationRule> rule;
    if (std::string(rule_name) == "mavg20") {
      rule = MakeMovingAverageRule(20);
    } else if (std::string(rule_name) == "reverse") {
      rule = MakeReverseRule();
    }
    Query query;
    query.kind = QueryKind::kNearest;
    query.relation = "r";
    query.query_series.id = 42;
    query.k = 9;
    query.transform = rule;

    query.strategy = ExecutionStrategy::kIndex;
    const Result<QueryResult> via_index = db.Execute(query);
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    query.strategy = ExecutionStrategy::kScan;
    const Result<QueryResult> via_scan = db.Execute(query);
    ASSERT_TRUE(via_scan.ok());

    ASSERT_EQ(via_index.value().matches.size(), 9u) << rule_name;
    ASSERT_EQ(via_scan.value().matches.size(), 9u);
    for (size_t i = 0; i < 9; ++i) {
      EXPECT_NEAR(via_index.value().matches[i].distance,
                  via_scan.value().matches[i].distance, 1e-7)
          << rule_name << " rank " << i;
    }
    // With the identity, the query object itself is the nearest neighbor.
    if (rule == nullptr) {
      EXPECT_EQ(via_index.value().matches[0].id, 42);
      EXPECT_NEAR(via_index.value().matches[0].distance, 0.0, 1e-9);
    }
  }
}

TEST(DatabaseTest, PatternMeanStdFilters) {
  const std::vector<TimeSeries> series = TestSeries(120, 32, 37);
  Database db = MakeLoadedDatabase(series);

  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = 0;
  query.epsilon = 10.0;
  query.pattern.mean_range = {40.0, 70.0};
  query.pattern.std_range = {0.0, 8.0};

  query.strategy = ExecutionStrategy::kIndex;
  const Result<QueryResult> via_index = db.Execute(query);
  ASSERT_TRUE(via_index.ok());
  query.strategy = ExecutionStrategy::kScan;
  const Result<QueryResult> via_scan = db.Execute(query);
  ASSERT_TRUE(via_scan.ok());
  EXPECT_EQ(MatchIds(via_index.value()), MatchIds(via_scan.value()));

  const Relation* relation = db.GetRelation("r");
  for (const Match& match : via_index.value().matches) {
    const SeriesFeatures features =
        ComputeFeatures(relation->record(match.id).raw);
    EXPECT_GE(features.mean, 40.0);
    EXPECT_LE(features.mean, 70.0);
    EXPECT_LE(features.std_dev, 8.0);
  }
}

TEST(DatabaseTest, ConstantPatternChecksSingleObject) {
  const std::vector<TimeSeries> series = TestSeries(50, 32, 41);
  Database db = MakeLoadedDatabase(series);

  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = 10;
  query.epsilon = 100.0;
  query.pattern.kind = Pattern::Kind::kConstant;
  query.pattern.constant_id = 10;
  const Result<QueryResult> result = db.Execute(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().matches[0].id, 10);
  EXPECT_EQ(result.value().stats.exact_checks, 1);

  query.pattern.constant_id = 999;
  EXPECT_EQ(db.Execute(query).status().code(), StatusCode::kOutOfRange);
}

TEST(DatabaseTest, SelfJoinMethodsAgree) {
  const std::vector<TimeSeries> series = TestSeries(120, 64, 43);
  Database db = MakeLoadedDatabase(series);
  const auto rule = MakeMovingAverageRule(20);
  const double epsilon = 2.0;

  const Result<QueryResult> a =
      db.SelfJoin("r", epsilon, rule.get(), JoinMethod::kFullScan);
  const Result<QueryResult> b =
      db.SelfJoin("r", epsilon, rule.get(), JoinMethod::kScanEarlyAbandon);
  const Result<QueryResult> d =
      db.SelfJoin("r", epsilon, rule.get(), JoinMethod::kIndexTransform);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(d.ok());

  auto unordered = [](const QueryResult& result) {
    std::set<std::pair<int64_t, int64_t>> pairs;
    for (const PairMatch& pair : result.pairs) {
      pairs.insert({std::min(pair.first, pair.second),
                    std::max(pair.first, pair.second)});
    }
    return pairs;
  };
  // a and b: identical ordered pairs.
  EXPECT_EQ(a.value().pairs.size(), b.value().pairs.size());
  EXPECT_EQ(unordered(a.value()), unordered(b.value()));
  // d finds every pair in both directions.
  EXPECT_EQ(d.value().pairs.size(), 2 * a.value().pairs.size());
  EXPECT_EQ(unordered(d.value()), unordered(a.value()));
  EXPECT_TRUE(d.value().stats.used_index);

  // Method c (no transformation) finds at most the pairs similar without
  // smoothing -- a subset of the smoothed answer for smoothing transforms.
  const Result<QueryResult> c =
      db.SelfJoin("r", epsilon, nullptr, JoinMethod::kIndexNoTransform);
  ASSERT_TRUE(c.ok());
  for (const auto& pair : unordered(c.value())) {
    EXPECT_EQ(unordered(d.value()).count(pair), 1u)
        << "untransformed pair should survive smoothing";
  }
}

TEST(DatabaseTest, AsymmetricJoinFindsInversePairs) {
  // The paper's hedging join r >< T_rev(r): build a relation containing an
  // engineered inverse pair and find it via the one-sided reverse join.
  workload::StockMarketOptions options;
  options.num_series = 120;
  options.num_smoothed_similar_pairs = 0;
  options.num_inverse_pairs = 5;
  options.num_resampled_pairs = 0;
  const std::vector<TimeSeries> market = workload::StockMarket(options);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", market).ok());

  std::vector<std::unique_ptr<TransformationRule>> right_parts;
  right_parts.push_back(MakeReverseRule());
  right_parts.push_back(MakeMovingAverageRule(20));
  const auto right = MakeCompositeRule(std::move(right_parts));
  const auto left = MakeMovingAverageRule(20);

  const Result<QueryResult> via_index = db.SelfJoin(
      "r", 1.0, left.get(), right.get(), JoinMethod::kIndexTransform);
  ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
  const Result<QueryResult> via_scan = db.SelfJoin(
      "r", 1.0, left.get(), right.get(), JoinMethod::kScanEarlyAbandon);
  ASSERT_TRUE(via_scan.ok());

  auto ordered = [](const QueryResult& result) {
    std::set<std::pair<int64_t, int64_t>> pairs;
    for (const PairMatch& pair : result.pairs) {
      pairs.insert({pair.first, pair.second});
    }
    return pairs;
  };
  // Asymmetric scans check every ordered pair, so index and scan agree
  // on the full ordered answer set.
  EXPECT_EQ(ordered(via_index.value()), ordered(via_scan.value()));

  // Every engineered inverse pair (ids 0..9 pairwise) must be found.
  for (int p = 0; p < options.num_inverse_pairs; ++p) {
    const int64_t a = 2 * p;
    const int64_t b = 2 * p + 1;
    EXPECT_EQ(ordered(via_index.value()).count({a, b}), 1u) << "pair " << p;
  }

  // Same query through the textual language.
  const Result<QueryResult> via_text = db.ExecuteText(
      "PAIRS r WITHIN 1.0 USING mavg(20) VS reverse|mavg(20)");
  ASSERT_TRUE(via_text.ok()) << via_text.status().ToString();
  EXPECT_EQ(ordered(via_text.value()), ordered(via_index.value()));
}

TEST(DatabaseTest, PrenormalizedQueryPattern) {
  // A smoothed normal form used directly as a search pattern: with the
  // PRENORMALIZED flag the engine must not re-normalize it.
  const std::vector<TimeSeries> series = TestSeries(100, 64, 59);
  Database db = MakeLoadedDatabase(series);
  const auto mavg20 = std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(20).release());

  const std::vector<double> pattern =
      mavg20->Apply(ToNormalForm(series[8].values).values);

  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.literal = pattern;
  query.query_prenormalized = true;
  query.epsilon = 1e-6;
  query.transform = mavg20;
  const Result<QueryResult> result = db.Execute(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Series 8 transforms exactly onto the pattern.
  ASSERT_GE(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().matches[0].id, 8);
  EXPECT_NEAR(result.value().matches[0].distance, 0.0, 1e-7);
}

TEST(DatabaseTest, ExecuteTextEndToEnd) {
  const std::vector<TimeSeries> series = TestSeries(100, 64, 47);
  Database db = MakeLoadedDatabase(series);

  const Result<QueryResult> range =
      db.ExecuteText("RANGE r WITHIN 3.0 OF #walk7 USING mavg(20)");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_TRUE(range.value().stats.used_index);
  const Result<QueryResult> range_scan = db.ExecuteText(
      "RANGE r WITHIN 3.0 OF #walk7 USING mavg(20) VIA SCAN");
  ASSERT_TRUE(range_scan.ok());
  EXPECT_EQ(MatchIds(range.value()), MatchIds(range_scan.value()));

  const Result<QueryResult> nearest =
      db.ExecuteText("NEAREST 3 r TO #walk7");
  ASSERT_TRUE(nearest.ok());
  ASSERT_EQ(nearest.value().matches.size(), 3u);
  EXPECT_EQ(nearest.value().matches[0].name, "walk7");

  const Result<QueryResult> pairs =
      db.ExecuteText("PAIRS r WITHIN 1.0 USING mavg(20) VIA SCAN");
  ASSERT_TRUE(pairs.ok());

  EXPECT_FALSE(db.ExecuteText("RANGE missing WITHIN 1 OF #walk7").ok());
  EXPECT_FALSE(db.ExecuteText("RANGE r WITHIN 1 OF #nope").ok());
  EXPECT_FALSE(db.ExecuteText("garbage").ok());
}

TEST(DatabaseTest, EmptyRelationQueries) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.literal = {1.0, 2.0};
  query.epsilon = 1.0;
  const Result<QueryResult> result = db.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().matches.empty());

  const Result<QueryResult> join =
      db.SelfJoin("r", 1.0, nullptr, JoinMethod::kIndexNoTransform);
  ASSERT_TRUE(join.ok());
  EXPECT_TRUE(join.value().pairs.empty());
}

TEST(DatabaseTest, NegativeEpsilonRejected) {
  const std::vector<TimeSeries> series = TestSeries(10, 16, 53);
  Database db = MakeLoadedDatabase(series);
  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = 0;
  query.epsilon = -1.0;
  EXPECT_EQ(db.Execute(query).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace simq
