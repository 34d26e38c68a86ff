// The query language L end to end: parse, plan, execute, explain.
//
// Shows the textual surface syntax for every query shape, how the planner
// decides between the R-tree and scanning, and how the [GK95] statistic
// predicates (MEAN/STD) combine with similarity predicates.

#include <cstdio>

#include "core/database.h"
#include "core/parser.h"
#include "workload/generators.h"

namespace {

void RunAndExplain(const simq::Database& db, const char* text) {
  std::printf("query> %s\n", text);
  const simq::Result<simq::QueryResult> result = db.ExecuteText(text);
  if (!result.ok()) {
    std::printf("  error: %s\n\n", result.status().ToString().c_str());
    return;
  }
  const simq::QueryResult& r = result.value();
  std::printf("  plan: %s | node accesses %lld | candidates %lld | exact "
              "checks %lld\n",
              r.stats.used_index ? "INDEX (Algorithm 2)" : "SEQUENTIAL SCAN",
              static_cast<long long>(r.stats.node_accesses),
              static_cast<long long>(r.stats.candidates),
              static_cast<long long>(r.stats.exact_checks));
  if (!r.matches.empty()) {
    std::printf("  answers (%zu):", r.matches.size());
    for (size_t i = 0; i < r.matches.size() && i < 6; ++i) {
      std::printf(" %s(%.2f)", r.matches[i].name.c_str(),
                  r.matches[i].distance);
    }
    std::printf(r.matches.size() > 6 ? " ...\n" : "\n");
  }
  if (!r.pairs.empty()) {
    std::printf("  pairs: %zu\n", r.pairs.size());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace simq;  // NOLINT: example brevity

  Database db;
  SIMQ_CHECK(db.CreateRelation("stocks").ok());
  workload::StockMarketOptions options;
  options.num_series = 800;
  SIMQ_CHECK(db.BulkLoad("stocks", workload::StockMarket(options)).ok());

  std::printf("=== similarity queries over 800 stocks (128 days) ===\n\n");

  // Plain range query: indexed.
  RunAndExplain(db, "RANGE stocks WITHIN 2.0 OF #stock100");

  // Transformed range query: the moving average runs through the index
  // because its multiplier is safe in the polar feature space (Theorem 3).
  RunAndExplain(db, "RANGE stocks WITHIN 1.0 OF #stock100 USING mavg(20)");

  // Shift/scale are invisible to normal-form distances ([GK95]): the
  // planner drops them and still uses the index.
  RunAndExplain(db,
                "RANGE stocks WITHIN 2.0 OF #stock100 USING "
                "shift(10)|scale(3)");

  // A non-spectral rule forces a scan.
  RunAndExplain(db, "RANGE stocks WITHIN 2.0 OF #stock100 USING despike(1)");

  // Statistic predicates narrow the pattern (and prune index subtrees).
  RunAndExplain(db,
                "RANGE stocks WITHIN 3.0 OF #stock100 MEAN 20 60 STD 0 15");

  // Nearest neighbors under a transformation.
  RunAndExplain(db, "NEAREST 5 stocks TO #stock100 USING mavg(20)");

  // Similarity join, smoothing both sides (Table 1 method d).
  RunAndExplain(db, "PAIRS stocks WITHIN 0.5 USING mavg(20)");

  // One-sided reversal: the hedging join r >< T_rev(r).
  RunAndExplain(db,
                "PAIRS stocks WITHIN 1.0 USING mavg(20) VS reverse|mavg(20)");

  // Raw distances bypass the normal-form machinery (scan only).
  RunAndExplain(db, "RANGE stocks WITHIN 30 OF #stock100 MODE RAW");

  // Errors are reported with positions.
  RunAndExplain(db, "RANGE stocks WITHIN oops OF #stock100");
  return 0;
}
