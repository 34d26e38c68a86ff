// [Ablation-space] Polar vs. rectangular complex-coordinate representation.
// [RM97] §5 chose polar coordinates because vector multiplication (moving
// averages!) is only safe there (Theorem 3); rectangular coordinates admit
// real stretches plus arbitrary shifts (Theorem 2). This ablation runs the
// same queries under both layouts: reverse (safe in both) executes on the
// index either way, while mavg(20) is index-accelerated only in polar --
// the rectangular planner falls back to scanning yet returns the same
// answers.

#include "bench/bench_common.h"
#include "core/transformation.h"
#include "ts/transforms.h"
#include "util/table_printer.h"
#include "workload/generators.h"

namespace simq {
namespace {

void Run() {
  bench::PrintHeader(
      "Ablation-space: polar vs rectangular coefficient representation",
      "claim: identical answers; mavg only index-accelerable in polar "
      "(Theorem 3), reverse in both (real multiplier)");

  workload::StockMarketOptions market_options;
  market_options.num_series = 4000;
  market_options.num_sectors = 12;
  market_options.sector_correlation = 0.9;
  market_options.idiosyncratic_step = 0.4;
  const std::vector<TimeSeries> series =
      workload::StockMarket(market_options);
  const int kQueries = 15;

  FeatureConfig polar;
  polar.space = FeatureSpace::kPolar;
  FeatureConfig rect;
  rect.space = FeatureSpace::kRectangular;
  const auto polar_db = bench::BuildDatabase(series, polar);
  const auto rect_db = bench::BuildDatabase(series, rect);

  const auto mavg20 = std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(20).release());
  const auto reverse = std::shared_ptr<const TransformationRule>(
      MakeReverseRule().release());

  TablePrinter table({"space", "transform", "execution", "answers",
                      "candidates", "query_ms"});
  const struct {
    const char* label;
    std::shared_ptr<const TransformationRule> rule;
  } transforms[] = {{"identity", nullptr},
                    {"reverse", reverse},
                    {"mavg(20)", mavg20}};

  for (const auto& [space_label, db] :
       {std::pair<const char*, const Database*>{"polar", polar_db.get()},
        std::pair<const char*, const Database*>{"rect", rect_db.get()}}) {
    for (const auto& spec : transforms) {
      std::vector<double> epsilons(kQueries);
      for (int q = 0; q < kQueries; ++q) {
        epsilons[static_cast<size_t>(q)] = bench::CalibrateRangeEpsilon(
            *db, "r", (q * 67) % 4000, spec.rule.get(), 20);
      }
      int64_t answers = 0;
      int64_t candidates = 0;
      bool used_index = false;
      // Query patterns are the *transformed* normal forms of the probes so
      // the calibrated answer sizes apply (distance D(T(x), T(probe))).
      std::vector<std::vector<double>> patterns(kQueries);
      for (int q = 0; q < kQueries; ++q) {
        const std::vector<double> probe = ToNormalForm(
            db->GetRelation("r")->record((q * 67) % 4000).raw).values;
        patterns[static_cast<size_t>(q)] =
            spec.rule != nullptr ? spec.rule->Apply(probe) : probe;
      }
      auto run_queries = [&] {
        answers = candidates = 0;
        for (int q = 0; q < kQueries; ++q) {
          Query query;
          query.kind = QueryKind::kRange;
          query.relation = "r";
          query.query_series.literal = patterns[static_cast<size_t>(q)];
          query.query_prenormalized = true;
          query.epsilon = epsilons[static_cast<size_t>(q)];
          query.transform = spec.rule;
          // Auto strategy: let the planner decide per safety.
          const QueryResult result = db->Execute(query).value();
          answers += static_cast<int64_t>(result.matches.size());
          candidates += result.stats.candidates;
          used_index = result.stats.used_index;
        }
      };
      const double ms = bench::MedianMillis(run_queries, 5) / kQueries;
      table.AddRow({space_label, spec.label, used_index ? "index" : "scan",
                    TablePrinter::FormatInt(answers),
                    TablePrinter::FormatInt(candidates),
                    TablePrinter::FormatDouble(ms, 4)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace simq

int main() {
  simq::Run();
  return 0;
}
