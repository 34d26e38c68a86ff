// [RM97-Fig11] Index-based similarity search vs. early-abandoning
// sequential scan, varying the number of sequences (length 128). The claim
// is that the index advantage grows with the relation size.

#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/generators.h"

namespace simq {
namespace {

void Run() {
  bench::PrintHeader(
      "RM97-Fig11: index vs sequential scan, varying the number of "
      "sequences",
      "claim: the index advantage grows with the number of sequences");

  TablePrinter table({"num_series", "index_ms", "scan_ms", "speedup",
                      "index_candidates", "answers", "index_node_io",
                      "scan_page_io", "io_advantage"});
  const int kLength = 128;
  const int kQueries = 20;
  const double kEpsilon = 2.0;

  for (const int count : {500, 1000, 2000, 4000, 8000, 12000}) {
    const std::vector<TimeSeries> series = workload::RandomWalkSeries(
        count, kLength, 1234 + static_cast<uint64_t>(count));
    const auto db = bench::BuildDatabase(series);
    const auto identity = bench::IdentityViaTransformPath();
    // Fixed, user-scale threshold: the paper's similarity queries operate
    // in the near-exact-match regime ("competitive to ... exact match
    // queries"); iid random walks are near-equidistant in high dimension,
    // so answer-set-targeted thresholds would defeat any filter (the
    // crossover regime is studied systematically in fig12).

    int64_t candidates = 0;
    int64_t answers = 0;
    int64_t index_nodes = 0;
    auto run_queries = [&](ExecutionStrategy strategy) {
      int64_t local_candidates = 0;
      int64_t local_answers = 0;
      int64_t local_nodes = 0;
      for (int q = 0; q < kQueries; ++q) {
        Query query;
        query.kind = QueryKind::kRange;
        query.relation = "r";
        query.query_series.id = (q * 53) % count;
        query.epsilon = kEpsilon;
        query.strategy = strategy;
        query.transform = identity;
        const Result<QueryResult> result = db->Execute(query);
        local_candidates += result.value().stats.candidates;
        local_nodes += result.value().stats.node_accesses;
        local_answers += static_cast<int64_t>(result.value().matches.size());
      }
      if (strategy == ExecutionStrategy::kIndex) {
        candidates = local_candidates / kQueries;
        index_nodes = local_nodes / kQueries;
      }
      answers = local_answers / kQueries;
    };

    const double index_ms = bench::MedianMillis(
        [&] { run_queries(ExecutionStrategy::kIndex); }, 5) / kQueries;
    const double scan_ms = bench::MedianMillis(
        [&] { run_queries(ExecutionStrategy::kScan); }, 5) / kQueries;

    // 1995 economics: a sequential scan reads the whole coefficient
    // relation (16 bytes per complex coefficient, 8 KiB pages), while the
    // index reads one page per node it touches. In-memory wall clock hides
    // this; the I/O columns make the paper's comparison visible.
    const int64_t scan_pages =
        (static_cast<int64_t>(count) * kLength * 16 + 8191) / 8192;
    table.AddRow({TablePrinter::FormatInt(count),
                  TablePrinter::FormatDouble(index_ms, 4),
                  TablePrinter::FormatDouble(scan_ms, 4),
                  TablePrinter::FormatDouble(scan_ms / index_ms, 2),
                  TablePrinter::FormatInt(candidates),
                  TablePrinter::FormatInt(answers),
                  TablePrinter::FormatInt(index_nodes),
                  TablePrinter::FormatInt(scan_pages),
                  TablePrinter::FormatDouble(
                      static_cast<double>(scan_pages) /
                          static_cast<double>(std::max<int64_t>(
                              1, index_nodes)),
                      1)});
  }
  table.Print();
}

}  // namespace
}  // namespace simq

int main() {
  simq::Run();
  return 0;
}
