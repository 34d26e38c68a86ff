// The paper's work counts, pinned exactly. Each test rebuilds one figure's
// or table's workload with the bench's own generator call, seed and
// threshold (bench/fig10_index_vs_scan_length.cc,
// bench/fig11_index_vs_scan_count.cc, bench/fig12_answer_set_size.cc,
// bench/table1_spatial_join.cc) and asserts the integers those benches
// print: R-tree node accesses, index candidates, exact checks and answer
// sizes. The counts are deterministic -- the packed trees, the candidate
// superset and the exact refine do not depend on the thread count or the
// build type -- so a changed count is a changed engine, never noise.
//
// The figure sweeps are summed over their 20 queries; the benches print
// the per-query means (the sums divided by 20, truncated).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/transformation.h"
#include "ts/transforms.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace simq {
namespace {

// bench::BuildDatabase: one relation "r", bulk-loaded, default options.
std::unique_ptr<Database> BuildDatabase(const std::vector<TimeSeries>& series) {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateRelation("r").ok());
  EXPECT_TRUE(db->BulkLoad("r", series).ok());
  return db;
}

// bench::IdentityViaTransformPath: mavg(1), the identity routed through the
// transformation machinery.
std::shared_ptr<const TransformationRule> IdentityViaTransformPath() {
  return std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(1).release());
}

struct SweepCounts {
  int64_t node_accesses = 0;
  int64_t candidates = 0;
  int64_t answers = 0;
};

// The 20 range queries of fig10/fig11 under one strategy, summed; query q
// probes series (q * stride) % rows.
SweepCounts RunSweep(const Database& db, ExecutionStrategy strategy,
                     double epsilon, int queries, int64_t stride,
                     int64_t rows) {
  const auto identity = IdentityViaTransformPath();
  SweepCounts sums;
  for (int q = 0; q < queries; ++q) {
    Query query;
    query.kind = QueryKind::kRange;
    query.relation = "r";
    query.query_series.id = (q * stride) % rows;
    query.epsilon = epsilon;
    query.strategy = strategy;
    query.transform = identity;
    const Result<QueryResult> result = db.Execute(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) {
      return sums;
    }
    sums.node_accesses += result.value().stats.node_accesses;
    sums.candidates += result.value().stats.candidates;
    sums.answers += static_cast<int64_t>(result.value().matches.size());
  }
  return sums;
}

TEST(PaperCounts, Fig10IndexVsScanLength) {
  const int kNumSeries = 1000;
  const int kQueries = 20;
  const int lengths[] = {64, 128, 256, 512, 1024};
  // Per-query means 18/16/17/16/16 node accesses, 51/70/64/53/40
  // candidates.
  const SweepCounts want[] = {
      {371, 1037, 20}, {339, 1402, 20}, {353, 1299, 20},
      {331, 1076, 20}, {321, 801, 20},
  };
  for (size_t p = 0; p < std::size(lengths); ++p) {
    const int length = lengths[p];
    const double epsilon = 0.2 * std::sqrt(static_cast<double>(length));
    const auto db = BuildDatabase(workload::RandomWalkSeries(
        kNumSeries, length, 7 + static_cast<uint64_t>(length)));
    const SweepCounts index = RunSweep(*db, ExecutionStrategy::kIndex,
                                       epsilon, kQueries, 1, kNumSeries);
    const SweepCounts scan = RunSweep(*db, ExecutionStrategy::kScan, epsilon,
                                      kQueries, 1, kNumSeries);
    const std::string context = "length " + std::to_string(length);
    EXPECT_EQ(index.node_accesses, want[p].node_accesses) << context;
    EXPECT_EQ(index.candidates, want[p].candidates) << context;
    EXPECT_EQ(index.answers, want[p].answers) << context;
    EXPECT_EQ(scan.answers, want[p].answers) << context;
    EXPECT_EQ(scan.node_accesses, 0) << context;
  }
}

TEST(PaperCounts, Fig11IndexVsScanCount) {
  const int kLength = 128;
  const int kQueries = 20;
  const double kEpsilon = 2.0;
  const int counts[] = {500, 1000, 2000, 4000, 8000, 12000};
  // Per-query means 9/15/25/58/84/136 node accesses, 16/44/79/156/296/459
  // candidates.
  const SweepCounts want[] = {
      {194, 322, 20},   {318, 888, 20},    {507, 1581, 20},
      {1164, 3120, 20}, {1696, 5933, 20},  {2729, 9187, 20},
  };
  for (size_t p = 0; p < std::size(counts); ++p) {
    const int count = counts[p];
    const auto db = BuildDatabase(workload::RandomWalkSeries(
        count, kLength, 1234 + static_cast<uint64_t>(count)));
    const SweepCounts index = RunSweep(*db, ExecutionStrategy::kIndex,
                                       kEpsilon, kQueries, 53, count);
    const SweepCounts scan = RunSweep(*db, ExecutionStrategy::kScan,
                                      kEpsilon, kQueries, 53, count);
    const std::string context = "count " + std::to_string(count);
    EXPECT_EQ(index.node_accesses, want[p].node_accesses) << context;
    EXPECT_EQ(index.candidates, want[p].candidates) << context;
    EXPECT_EQ(index.answers, want[p].answers) << context;
    EXPECT_EQ(scan.answers, want[p].answers) << context;
  }
}

TEST(PaperCounts, Fig12AnswerSetSize) {
  workload::StockMarketOptions market_options;
  market_options.num_sectors = 3;
  market_options.sector_correlation = 0.9;
  market_options.idiosyncratic_step = 0.4;
  const auto db = BuildDatabase(workload::StockMarket(market_options));
  const auto mavg20 = std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(20).release());
  const Relation* relation = db->GetRelation("r");
  ASSERT_NE(relation, nullptr);
  const std::vector<double> probe_pattern =
      mavg20->Apply(ToNormalForm(relation->record(200).raw).values);
  std::vector<double> distances;
  for (const Record& record : relation->records()) {
    distances.push_back(EuclideanDistance(
        mavg20->Apply(ToNormalForm(record.raw).values), probe_pattern));
  }
  std::sort(distances.begin(), distances.end());

  const int targets[] = {1, 25, 50, 100, 150, 200, 250, 300, 350, 400};
  const int64_t want_answers[] = {1, 25, 50, 100, 150,
                                  200, 250, 300, 350, 400};
  const int64_t want_candidates[] = {1,   166, 255, 320,  335,
                                     339, 343, 346, 1067, 1067};
  for (size_t p = 0; p < std::size(targets); ++p) {
    Query query;
    query.kind = QueryKind::kRange;
    query.relation = "r";
    query.query_series.literal = probe_pattern;
    query.query_prenormalized = true;
    query.epsilon = workload::CalibrateEpsilon(distances, targets[p]);
    query.transform = mavg20;
    const std::string context = "target " + std::to_string(targets[p]);
    query.strategy = ExecutionStrategy::kIndex;
    const Result<QueryResult> index = db->Execute(query);
    query.strategy = ExecutionStrategy::kScan;
    const Result<QueryResult> scan = db->Execute(query);
    ASSERT_TRUE(index.ok() && scan.ok()) << context;
    EXPECT_EQ(static_cast<int64_t>(index.value().matches.size()),
              want_answers[p])
        << context;
    EXPECT_EQ(static_cast<int64_t>(scan.value().matches.size()),
              want_answers[p])
        << context;
    EXPECT_EQ(index.value().stats.candidates, want_candidates[p]) << context;
  }
}

TEST(PaperCounts, Table1SpatialJoin) {
  const auto db =
      BuildDatabase(workload::StockMarket(workload::StockMarketOptions()));
  const auto mavg20 = MakeMovingAverageRule(20);
  const Relation* relation = db->GetRelation("r");
  ASSERT_NE(relation, nullptr);
  std::vector<std::vector<double>> smoothed;
  for (const Record& record : relation->records()) {
    smoothed.push_back(mavg20->Apply(ToNormalForm(record.raw).values));
  }
  std::vector<double> pair_distances;
  for (size_t i = 0; i < smoothed.size(); ++i) {
    for (size_t j = i + 1; j < smoothed.size(); ++j) {
      const double d =
          EuclideanDistanceEarlyAbandon(smoothed[i], smoothed[j], 2.0);
      if (d <= 2.0) {
        pair_distances.push_back(d);
      }
    }
  }
  std::sort(pair_distances.begin(), pair_distances.end());
  const double epsilon = workload::CalibrateEpsilon(pair_distances, 12);

  struct Method {
    const char* label;
    JoinMethod method;
    const TransformationRule* rule;
    int64_t answers;
    int64_t node_accesses;
    int64_t exact_checks;
  };
  const Method methods[] = {
      {"a", JoinMethod::kFullScan, mavg20.get(), 12, 0, 568711},
      {"b", JoinMethod::kScanEarlyAbandon, mavg20.get(), 12, 0, 568711},
      {"c", JoinMethod::kIndexNoTransform, nullptr, 8, 9379, 405},
      {"d", JoinMethod::kIndexTransform, mavg20.get(), 24, 9887, 572},
  };
  for (const Method& m : methods) {
    const Result<QueryResult> result =
        db->SelfJoin("r", epsilon, m.rule, m.method);
    ASSERT_TRUE(result.ok()) << m.label;
    EXPECT_EQ(static_cast<int64_t>(result.value().pairs.size()), m.answers)
        << m.label;
    EXPECT_EQ(result.value().stats.node_accesses, m.node_accesses) << m.label;
    EXPECT_EQ(result.value().stats.exact_checks, m.exact_checks) << m.label;
  }
}

}  // namespace
}  // namespace simq
