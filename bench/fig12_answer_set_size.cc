// [RM97-Fig12] Query time vs. answer-set size on the stock relation
// (1067 series x 128 days, synthetic substitute -- see DESIGN.md): the
// epsilon of a smoothed (mavg(20)) range query is swept so the answer set
// grows from ~1 to ~400 series. The claim is that the index wins until the
// answer set reaches roughly one third of the relation, after which
// sequential scanning catches up (the crossover of Figure 12).

#include "bench/bench_common.h"
#include "core/transformation.h"
#include "ts/transforms.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "workload/generators.h"

namespace simq {
namespace {

void Run() {
  bench::PrintHeader(
      "RM97-Fig12: time per query varying the size of the answer set",
      "claim: index faster until the answer set reaches ~1/3 of the "
      "relation (~350 of 1067), then sequential scan wins");

  // Market with strong co-movement (few sectors, high correlation): the
  // low-frequency coefficients of same-sector stocks cluster, which is the
  // property of real stock data that keeps the 2-coefficient filter
  // selective out to large answer sets (see DESIGN.md data substitutions).
  workload::StockMarketOptions market_options;
  market_options.num_sectors = 3;
  market_options.sector_correlation = 0.9;
  market_options.idiosyncratic_step = 0.4;
  const std::vector<TimeSeries> market =
      workload::StockMarket(market_options);
  const auto db = bench::BuildDatabase(market);
  const auto mavg20 = std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(20).release());

  // Transformed normal forms, computed once for calibration.
  const Relation* relation = db->GetRelation("r");
  const int64_t probe_id = 200;
  const std::vector<double> probe_pattern =
      mavg20->Apply(ToNormalForm(relation->record(probe_id).raw).values);
  std::vector<double> distances;
  for (const Record& record : relation->records()) {
    distances.push_back(EuclideanDistance(
        mavg20->Apply(ToNormalForm(record.raw).values), probe_pattern));
  }
  std::sort(distances.begin(), distances.end());

  TablePrinter table({"target_answers", "epsilon", "actual_answers",
                      "index_ms", "scan_ms", "index_candidates",
                      "faster"});
  for (const int target : {1, 25, 50, 100, 150, 200, 250, 300, 350, 400}) {
    const double epsilon = workload::CalibrateEpsilon(distances, target);

    Query query;
    query.kind = QueryKind::kRange;
    query.relation = "r";
    query.query_series.literal = probe_pattern;
    query.query_prenormalized = true;
    query.epsilon = epsilon;
    query.transform = mavg20;

    int64_t answers = 0;
    int64_t candidates = 0;
    auto run = [&](ExecutionStrategy strategy) {
      query.strategy = strategy;
      const Result<QueryResult> result = db->Execute(query);
      answers = static_cast<int64_t>(result.value().matches.size());
      if (strategy == ExecutionStrategy::kIndex) {
        candidates = result.value().stats.candidates;
      }
    };

    const double index_ms =
        bench::MedianMillis([&] { run(ExecutionStrategy::kIndex); }, 15);
    const double scan_ms =
        bench::MedianMillis([&] { run(ExecutionStrategy::kScan); }, 15);

    table.AddRow({TablePrinter::FormatInt(target),
                  TablePrinter::FormatDouble(epsilon, 3),
                  TablePrinter::FormatInt(answers),
                  TablePrinter::FormatDouble(index_ms, 4),
                  TablePrinter::FormatDouble(scan_ms, 4),
                  TablePrinter::FormatInt(candidates),
                  index_ms <= scan_ms ? "index" : "scan"});
  }
  table.Print();
}

}  // namespace
}  // namespace simq

int main() {
  simq::Run();
  return 0;
}
