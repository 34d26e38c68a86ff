// Quickstart: build a similarity database, run range / nearest-neighbor /
// textual queries with transformations.
//
//   $ ./quickstart
//
// Walks through the core public API in ~60 lines: Database, TimeSeries,
// Query, and the textual query language.

#include <cstdio>

#include "core/database.h"
#include "core/transformation.h"
#include "workload/generators.h"

int main() {
  using namespace simq;  // NOLINT: example brevity

  // 1. A database holds relations of equal-length series, each indexed by
  //    an R-tree over normal-form DFT features (the paper's 6-d layout).
  Database db;
  SIMQ_CHECK(db.CreateRelation("stocks").ok());

  // 2. Load 500 synthetic random-walk "stocks" (128 trading days each).
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(/*count=*/500, /*length=*/128, /*seed=*/1);
  SIMQ_CHECK(db.BulkLoad("stocks", series).ok());

  // 3. Range query: series whose normal form is within 2.0 of walk42's.
  Query range;
  range.kind = QueryKind::kRange;
  range.relation = "stocks";
  range.query_series.name = "walk42";
  range.epsilon = 2.0;
  const QueryResult range_result = db.Execute(range).value();
  std::printf("series within 2.0 of walk42 (normal-form distance):\n");
  for (const Match& match : range_result.matches) {
    std::printf("  %-8s distance %.3f\n", match.name.c_str(),
                match.distance);
  }
  std::printf("  [executed via %s, %lld R-tree node accesses, %lld exact "
              "checks]\n\n",
              range_result.stats.used_index ? "index" : "scan",
              static_cast<long long>(range_result.stats.node_accesses),
              static_cast<long long>(range_result.stats.exact_checks));

  // 4. The same query with a transformation: compare 20-day moving
  //    averages instead of the raw normal forms. The moving average is
  //    evaluated through the index (Theorem 3 + Algorithm 2 of the paper).
  range.transform = std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(20).release());
  range.epsilon = 1.0;
  const QueryResult smoothed = db.Execute(range).value();
  std::printf("series whose 20-day moving average is within 1.0:\n");
  for (const Match& match : smoothed.matches) {
    std::printf("  %-8s distance %.3f\n", match.name.c_str(),
                match.distance);
  }

  // 5. Nearest neighbors, via the textual query language.
  const QueryResult nearest =
      db.ExecuteText("NEAREST 5 stocks TO #walk42 USING mavg(20)").value();
  std::printf("\n5 nearest to walk42 under mavg(20):\n");
  for (const Match& match : nearest.matches) {
    std::printf("  %-8s distance %.3f\n", match.name.c_str(),
                match.distance);
  }

  // 6. Similarity join: all pairs of opposite movers (reverse transform).
  const QueryResult pairs =
      db.ExecuteText("PAIRS stocks WITHIN 3.0 USING reverse|mavg(20)")
          .value();
  std::printf("\nhedging pairs (reverse + smoothing) within 3.0: %zu\n",
              pairs.pairs.size());
  return 0;
}
