// [FILTER] Quantized filter-and-refine scan vs the exact columnar scans
// on the Table-1 stock workloads (1067 x 128 and the 12000 x 128
// scale-up), at an epsilon calibrated to Table-1-sized answer sets.
//
// Per workload, three range-scan engines over the same probe batch:
//   full_scan    VIA FULLSCAN -- the exact columnar scan with no early
//                abandoning (Table 1 method a), the ISSUE-5 baseline.
//   ea_scan      VIA SCAN -- the early-abandoning columnar scan with the
//                packed 2-coefficient prefix screen (the strongest
//                pre-existing scan engine).
//   filtered_bN  VIA SCAN MODE FILTERED at N bits/dim -- phase 1 scans
//                the code columns with the lower-bound LUT kernel,
//                phase 2 refines survivors through the exact kernels.
// plus the same comparison for kNN (scan vs the filtered scan at a
// shrinking radius) and, on
// the 1067-series workload, the self-join (early-abandon vs pairwise
// code-gap filtered).
//
// Self-check (reported in BENCH_filter.json and grepped by CI): every
// filtered answer -- ids, IEEE-754 distance bits, pair emission order --
// must be identical to the exact engines' ("mismatch": true fails the
// build, and the process exits nonzero).
//
// BENCH_filter.json records per-mode wall time plus the filter's
// candidate counts and pruning ratio, and the filtered-vs-full-scan /
// filtered-vs-ea-scan speedups the acceptance bar reads.
//
// Usage: filter_pruning [count] [out.json]   (count 0 = both workloads)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/database.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace simq {
namespace {

const int kBitWidths[] = {4, 6, 8};

struct ModeResult {
  std::string mode;
  double ms = 0.0;
  int64_t scanned = 0;     // filter paths only
  int64_t candidates = 0;  // filter paths only
  int64_t exact_checks = 0;
  double pruning = 0.0;
};

struct WorkloadResult {
  std::string name;
  int count = 0;
  int length = 0;
  double epsilon = 0.0;
  std::vector<ModeResult> range;
  std::vector<ModeResult> knn;
  std::vector<ModeResult> join;
  double range_speedup_vs_full = 0.0;
  double range_speedup_vs_ea = 0.0;
  bool mismatch = false;
};

bool SameMatches(const std::vector<Match>& a, const std::vector<Match>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

bool SamePairs(const std::vector<PairMatch>& a,
               const std::vector<PairMatch>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second != b[i].second ||
        a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

Query RangeQuery(int64_t probe, double epsilon, ExecutionStrategy strategy,
                 FilterMode filter) {
  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = probe;
  query.epsilon = epsilon;
  query.strategy = strategy;
  query.filter = filter;
  return query;
}

Query KnnQuery(int64_t probe, int k, FilterMode filter) {
  Query query;
  query.kind = QueryKind::kNearest;
  query.relation = "r";
  query.query_series.id = probe;
  query.k = k;
  query.strategy = ExecutionStrategy::kScan;
  query.filter = filter;
  return query;
}

// Runs the probe batch once, accumulating stats and answers.
std::vector<QueryResult> RunBatch(const Database& db,
                                  const std::vector<Query>& queries) {
  std::vector<QueryResult> answers;
  answers.reserve(queries.size());
  for (const Query& query : queries) {
    Result<QueryResult> result = db.Execute(query);
    SIMQ_CHECK(result.ok()) << result.status().ToString();
    answers.push_back(std::move(result).value());
  }
  return answers;
}

ModeResult MeasureBatch(Database* db, const std::vector<Query>& queries,
                        const std::string& mode, int repetitions) {
  ModeResult out;
  out.mode = mode;
  out.ms = bench::MedianMillis([&] { RunBatch(*db, queries); }, repetitions);
  for (const QueryResult& answer : RunBatch(*db, queries)) {
    out.scanned += answer.stats.filter_scanned;
    out.candidates += answer.stats.candidates;
    out.exact_checks += answer.stats.exact_checks;
  }
  out.pruning = out.scanned > 0
                    ? 1.0 - static_cast<double>(out.candidates) /
                                static_cast<double>(out.scanned)
                    : 0.0;
  return out;
}

WorkloadResult RunWorkload(const std::string& name, int count,
                           int repetitions, bool with_join) {
  WorkloadResult result;
  result.name = name;
  result.count = count;
  result.length = 128;

  workload::StockMarketOptions options;
  options.num_series = count;
  std::unique_ptr<Database> db =
      bench::BuildDatabase(workload::StockMarket(options));
  result.epsilon =
      bench::CalibrateRangeEpsilon(*db, "r", /*probe_id=*/0, nullptr,
                                   /*target_answers=*/24);

  std::vector<int64_t> probes;
  for (int p = 0; p < 16; ++p) {
    probes.push_back(static_cast<int64_t>(p) * count / 16);
  }

  const auto range_batch = [&](ExecutionStrategy strategy,
                               FilterMode filter) {
    std::vector<Query> batch;
    for (const int64_t probe : probes) {
      batch.push_back(RangeQuery(probe, result.epsilon, strategy, filter));
    }
    return batch;
  };
  const auto knn_batch = [&](FilterMode filter) {
    std::vector<Query> batch;
    for (const int64_t probe : probes) {
      batch.push_back(KnnQuery(probe, /*k=*/10, filter));
    }
    return batch;
  };

  // ---- Range: exact baselines, then every code width. ----
  const std::vector<Query> full_queries = range_batch(
      ExecutionStrategy::kScanNoEarlyAbandon, FilterMode::kExact);
  const std::vector<Query> ea_queries =
      range_batch(ExecutionStrategy::kScan, FilterMode::kExact);
  const std::vector<Query> filtered_queries =
      range_batch(ExecutionStrategy::kScan, FilterMode::kFiltered);
  const std::vector<QueryResult> range_expected = RunBatch(*db, ea_queries);
  {
    // Sanity-check the two exact baselines against each other by id only:
    // the no-abandon and abandoning kernels associate their sums
    // differently, so their distance DOUBLES differ in ulps by design.
    // The filtered engine is held to the stricter bar below: bit-identity
    // with the strategy it replaces.
    const std::vector<QueryResult> full = RunBatch(*db, full_queries);
    for (size_t i = 0; i < full.size(); ++i) {
      bool same_ids = full[i].matches.size() ==
                      range_expected[i].matches.size();
      for (size_t m = 0; same_ids && m < full[i].matches.size(); ++m) {
        same_ids = full[i].matches[m].id ==
                   range_expected[i].matches[m].id;
      }
      result.mismatch = result.mismatch || !same_ids;
    }
  }
  result.range.push_back(
      MeasureBatch(db.get(), full_queries, "full_scan", repetitions));
  result.range.push_back(
      MeasureBatch(db.get(), ea_queries, "ea_scan", repetitions));
  double filtered_best_ms = 0.0;
  for (const int bits : kBitWidths) {
    FilterOptions filter_options;
    filter_options.bits_per_dim = bits;
    db->set_filter_options(filter_options);
    const std::vector<QueryResult> answers =
        RunBatch(*db, filtered_queries);
    for (size_t i = 0; i < answers.size(); ++i) {
      result.mismatch = result.mismatch ||
                        !answers[i].stats.used_filter ||
                        !SameMatches(answers[i].matches,
                                     range_expected[i].matches);
    }
    result.range.push_back(MeasureBatch(db.get(), filtered_queries,
                                        "filtered_b" + std::to_string(bits),
                                        repetitions));
    if (bits == 8) {
      filtered_best_ms = result.range.back().ms;
    }
  }
  result.range_speedup_vs_full =
      filtered_best_ms > 0.0 ? result.range[0].ms / filtered_best_ms : 0.0;
  result.range_speedup_vs_ea =
      filtered_best_ms > 0.0 ? result.range[1].ms / filtered_best_ms : 0.0;

  // ---- kNN: exact scan vs the filtered shrinking-radius scan (8 bits). ----
  {
    FilterOptions filter_options;
    filter_options.bits_per_dim = 8;
    db->set_filter_options(filter_options);
    const std::vector<Query> exact_knn = knn_batch(FilterMode::kExact);
    const std::vector<Query> filtered_knn = knn_batch(FilterMode::kFiltered);
    const std::vector<QueryResult> expected = RunBatch(*db, exact_knn);
    const std::vector<QueryResult> actual = RunBatch(*db, filtered_knn);
    for (size_t i = 0; i < expected.size(); ++i) {
      result.mismatch = result.mismatch ||
                        !actual[i].stats.used_filter ||
                        !SameMatches(expected[i].matches, actual[i].matches);
    }
    result.knn.push_back(
        MeasureBatch(db.get(), exact_knn, "scan", repetitions));
    result.knn.push_back(
        MeasureBatch(db.get(), filtered_knn, "filtered_b8", repetitions));
  }

  // ---- Self-join (1067-series workload only: O(N^2) pairs). ----
  if (with_join) {
    const auto run_join = [&](FilterMode filter) {
      Result<QueryResult> joined =
          db->SelfJoin("r", result.epsilon, nullptr, nullptr,
                       JoinMethod::kScanEarlyAbandon, filter);
      SIMQ_CHECK(joined.ok()) << joined.status().ToString();
      return std::move(joined).value();
    };
    const QueryResult expected = run_join(FilterMode::kExact);
    const QueryResult actual = run_join(FilterMode::kFiltered);
    result.mismatch = result.mismatch || !actual.stats.used_filter ||
                      !SamePairs(expected.pairs, actual.pairs);
    ModeResult exact;
    exact.mode = "ea_join";
    exact.ms = bench::MedianMillis([&] { run_join(FilterMode::kExact); },
                                   repetitions);
    exact.exact_checks = expected.stats.exact_checks;
    result.join.push_back(exact);
    ModeResult filtered;
    filtered.mode = "filtered_b8";
    filtered.ms = bench::MedianMillis(
        [&] { run_join(FilterMode::kFiltered); }, repetitions);
    filtered.scanned = actual.stats.filter_scanned;
    filtered.candidates = actual.stats.candidates;
    filtered.exact_checks = actual.stats.exact_checks;
    filtered.pruning =
        filtered.scanned > 0
            ? 1.0 - static_cast<double>(filtered.candidates) /
                        static_cast<double>(filtered.scanned)
            : 0.0;
    result.join.push_back(filtered);
  }
  return result;
}

void PrintModes(const std::string& title,
                const std::vector<ModeResult>& modes) {
  if (modes.empty()) {
    return;
  }
  std::printf("%s\n", title.c_str());
  TablePrinter table(
      {"mode", "ms", "scanned", "candidates", "exact_checks", "pruned"});
  for (const ModeResult& mode : modes) {
    table.AddRow({mode.mode, TablePrinter::FormatDouble(mode.ms, 3),
                  std::to_string(mode.scanned),
                  std::to_string(mode.candidates),
                  std::to_string(mode.exact_checks),
                  TablePrinter::FormatDouble(100.0 * mode.pruning, 1) + "%"});
  }
  table.Print();
}

void WriteModes(std::FILE* out, const char* key,
                const std::vector<ModeResult>& modes, bool trailing_comma) {
  std::fprintf(out, "     \"%s\": [\n", key);
  for (size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& mode = modes[i];
    std::fprintf(out,
                 "      {\"mode\": \"%s\", \"ms\": %.4f, \"scanned\": %lld, "
                 "\"candidates\": %lld, \"exact_checks\": %lld, "
                 "\"pruning\": %.4f}%s\n",
                 mode.mode.c_str(), mode.ms,
                 static_cast<long long>(mode.scanned),
                 static_cast<long long>(mode.candidates),
                 static_cast<long long>(mode.exact_checks), mode.pruning,
                 i + 1 < modes.size() ? "," : "");
  }
  std::fprintf(out, "     ]%s\n", trailing_comma ? "," : "");
}

void Run(int only_count, const std::string& out_path) {
  bench::PrintHeader(
      "FILTER: quantized filter-and-refine vs exact columnar scans",
      "claims: >= 2x over the exact full scan at Table-1 epsilon on the "
      "12000x128 workload, answers bit-identical across all bit widths");

  std::vector<WorkloadResult> results;
  if (only_count == 0 || only_count == 1067) {
    results.push_back(
        RunWorkload("stock_1067x128", 1067, 7, /*with_join=*/true));
  }
  if (only_count == 0 || only_count == 12000) {
    results.push_back(
        RunWorkload("stock_12000x128", 12000, 3, /*with_join=*/false));
  }
  if (results.empty()) {
    results.push_back(RunWorkload(
        "stock_" + std::to_string(only_count) + "x128", only_count, 3,
        /*with_join=*/only_count <= 2000));
  }

  bool mismatch = false;
  for (const WorkloadResult& result : results) {
    std::printf("\n== %s  (eps = %.4f, %d probes) ==\n", result.name.c_str(),
                result.epsilon, 16);
    PrintModes("range", result.range);
    PrintModes("knn (k=10)", result.knn);
    PrintModes("self-join", result.join);
    std::printf(
        "range filtered_b8 speedup: x%.2f vs full scan, x%.2f vs "
        "early-abandon scan; answers %s\n",
        result.range_speedup_vs_full, result.range_speedup_vs_ea,
        result.mismatch ? "MISMATCH" : "identical");
    mismatch = mismatch || result.mismatch;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  SIMQ_CHECK(out != nullptr) << "cannot write " << out_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"filter_pruning\",\n"
               "  \"threads\": %d,\n"
               "  \"workloads\": [\n",
               ThreadPool::Global().num_threads());
  for (size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& result = results[w];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"count\": %d, \"length\": %d, "
                 "\"epsilon\": %.17g,\n",
                 result.name.c_str(), result.count, result.length,
                 result.epsilon);
    WriteModes(out, "range", result.range, /*trailing_comma=*/true);
    WriteModes(out, "knn", result.knn, /*trailing_comma=*/true);
    if (!result.join.empty()) {
      WriteModes(out, "join", result.join, /*trailing_comma=*/true);
    }
    std::fprintf(out,
                 "     \"range_speedup_vs_full\": %.3f,\n"
                 "     \"range_speedup_vs_ea\": %.3f,\n"
                 "     \"mismatch\": %s}%s\n",
                 result.range_speedup_vs_full, result.range_speedup_vs_ea,
                 result.mismatch ? "true" : "false",
                 w + 1 < results.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"mismatch\": %s\n"
               "}\n",
               mismatch ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (mismatch) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace simq

int main(int argc, char** argv) {
  const int count = argc > 1 ? std::atoi(argv[1]) : 0;
  const std::string out = argc > 2 ? argv[2] : "BENCH_filter.json";
  simq::Run(count, out);
  return 0;
}
