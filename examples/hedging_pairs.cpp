// Hedging-pair discovery: the paper's T_rev spatial join.
//
// "Transformation T_rev can be used to obtain all the pairs of series that
//  move in opposite directions. This can be formulated ... as a spatial
//  join between r and T_rev(r)."  -- [RM97] §3.2
//
// Finds all pairs of stocks whose smoothed normal forms mirror each other:
// D( mavg20(nf(a)), -mavg20(nf(b)) ) <= eps, evaluated through the R-tree
// with the reversal applied to the index on the fly.

#include <algorithm>
#include <cstdio>

#include "core/database.h"
#include "workload/generators.h"

int main() {
  using namespace simq;  // NOLINT: example brevity

  workload::StockMarketOptions options;
  options.num_series = 500;
  options.num_inverse_pairs = 6;
  const std::vector<TimeSeries> market = workload::StockMarket(options);

  Database db;
  SIMQ_CHECK(db.CreateRelation("stocks").ok());
  SIMQ_CHECK(db.BulkLoad("stocks", market).ok());

  // One-sided reversal: left side smoothed, right side reversed+smoothed.
  const QueryResult result =
      db.ExecuteText(
            "PAIRS stocks WITHIN 1.5 USING mavg(20) VS reverse|mavg(20)")
          .value();

  std::printf("hedging pairs (opposite movers after 20-day smoothing):\n\n");
  std::vector<PairMatch> pairs = result.pairs;
  std::sort(pairs.begin(), pairs.end(),
            [](const PairMatch& a, const PairMatch& b) {
              return a.distance < b.distance;
            });
  const Relation* relation = db.GetRelation("stocks");
  int printed = 0;
  for (const PairMatch& pair : pairs) {
    if (pair.first > pair.second) {
      continue;  // each unordered pair appears in both orientations
    }
    std::printf("  %-14s <-> %-14s  D = %.4f\n",
                relation->record(pair.first).name.c_str(),
                relation->record(pair.second).name.c_str(), pair.distance);
    if (++printed >= 15) {
      break;
    }
  }
  std::printf(
      "\n  [%zu ordered pairs found; %lld R-tree node accesses; "
      "%lld exact distance checks over %lld series]\n",
      pairs.size(), static_cast<long long>(result.stats.node_accesses),
      static_cast<long long>(result.stats.exact_checks),
      static_cast<long long>(relation->size()));

  // The engineered inverse pairs should top the list.
  std::printf("\n  engineered inverse pairs in the data: %d\n",
              options.num_inverse_pairs);
  return 0;
}
