// [SHARD] Sharded scatter-gather engine vs the unsharded engine on the
// Table-1 stock workloads (1067 x 128 and the 12000-series scale-up).
//
// Per shard count (1 / 2 / 4 / 8), four trajectories:
//   bulk_load   CreateRelation + BulkLoad wall time. The per-shard
//               derived data is computed on the thread pool, so this
//               scales with min(shards, cores).
//   load_query  bulk_load plus the first index range query, which
//               compiles every shard's packed R-tree (again one pool task
//               per shard): the time until the index answers.
//   churn       alternating Insert + index range query. Each insert
//               lands in the routed shard's delta, which the next query
//               scans exactly beside the packed trees.
//   queries     batch range / kNN / index-join latency (expected roughly
//               neutral: same kernels, same exact checks, S tree roots).
//
// Self-check (reported in BENCH_shard.json and grepped by CI): range,
// kNN, and join answers at every shard count must be bit-identical to
// the 1-shard answers ("mismatch": true fails the build). Join pairs are
// compared as sorted sets -- the index join's emission order is
// tree-shape-dependent (each shard's tree covers only its own rows).
//
// BENCH_shard.json records shard counts, the thread-pool width, and the
// workload dimensions so the perf trajectory stays interpretable across
// machines and PRs.
//
// Usage: shard_scaling [count] [out.json]   (count 0 = both workloads)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/database.h"
#include "core/sharded_relation.h"
#include "core/transformation.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace simq {
namespace {

const int kShardCounts[] = {1, 2, 4, 8};

struct ConfigResult {
  int shards = 1;
  double bulk_load_ms = 0.0;
  double load_query_ms = 0.0;
  double churn_qps = 0.0;
  double range_ms = 0.0;
  double knn_ms = 0.0;
  double join_ms = 0.0;
};

ShardingOptions Sharded(int shards) {
  ShardingOptions options;
  options.num_shards = shards;
  return options;
}

std::unique_ptr<Database> Build(const std::vector<TimeSeries>& series,
                                int shards) {
  auto db = std::make_unique<Database>(FeatureConfig(), RTree::Options(),
                                       Sharded(shards));
  SIMQ_CHECK(db->CreateRelation("r").ok());
  SIMQ_CHECK(db->BulkLoad("r", series).ok());
  return db;
}

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

std::vector<PairMatch> SortedPairs(std::vector<PairMatch> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const PairMatch& a, const PairMatch& b) {
              if (a.first != b.first) {
                return a.first < b.first;
              }
              return a.second < b.second;
            });
  return pairs;
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

struct WorkloadResult {
  std::string name;
  int count = 0;
  int length = 0;
  double epsilon = 0.0;
  std::vector<ConfigResult> configs;
  double bulk_load_speedup_4 = 0.0;
  double churn_speedup_4 = 0.0;
  bool mismatch = false;
};

WorkloadResult RunWorkload(const std::string& name, int count, int reps,
                           int churn_cycles) {
  workload::StockMarketOptions options;
  options.num_series = count;
  const std::vector<TimeSeries> market = workload::StockMarket(options);

  WorkloadResult out;
  out.name = name;
  out.count = count;
  out.length = options.length;

  const auto mavg20 = MakeMovingAverageRule(20);
  {
    const auto db = Build(market, 1);
    out.epsilon =
        bench::CalibrateRangeEpsilon(*db, "r", 0, mavg20.get(), 12);
  }
  char eps_text[64];
  std::snprintf(eps_text, sizeof(eps_text), "%.17g", out.epsilon);
  const std::string range_text = std::string("RANGE r WITHIN ") + eps_text +
                                 " OF #" + market[0].id + " USING mavg(20)";
  const std::string knn_text = "NEAREST 10 r TO #" + market[1].id;

  // Fresh series for the churn phase, unique names per cycle.
  std::vector<TimeSeries> churn_series =
      workload::RandomWalkSeries(churn_cycles, options.length, 77);
  for (int i = 0; i < churn_cycles; ++i) {
    churn_series[static_cast<size_t>(i)].id = "churn" + std::to_string(i);
  }

  std::vector<Match> base_range;
  std::vector<Match> base_knn;
  std::vector<PairMatch> base_join;
  for (const int shards : kShardCounts) {
    ConfigResult config;
    config.shards = shards;

    config.bulk_load_ms =
        bench::MedianMillis([&] { Build(market, shards); }, reps);
    config.load_query_ms = bench::MedianMillis(
        [&] {
          const auto fresh = Build(market, shards);
          SIMQ_CHECK(fresh->ExecuteText(range_text + " VIA INDEX").ok());
        },
        reps);

    const auto db = Build(market, shards);
    const Result<QueryResult> range = db->ExecuteText(range_text);
    const Result<QueryResult> knn = db->ExecuteText(knn_text);
    const Result<QueryResult> join = db->SelfJoin(
        "r", out.epsilon, mavg20.get(), JoinMethod::kIndexTransform);
    SIMQ_CHECK(range.ok() && knn.ok() && join.ok());
    config.range_ms = bench::MedianMillis(
        [&] { SIMQ_CHECK(db->ExecuteText(range_text).ok()); }, reps);
    config.knn_ms = bench::MedianMillis(
        [&] { SIMQ_CHECK(db->ExecuteText(knn_text).ok()); }, reps);
    config.join_ms = bench::MedianMillis(
        [&] {
          SIMQ_CHECK(db->SelfJoin("r", out.epsilon, mavg20.get(),
                                  JoinMethod::kIndexTransform)
                         .ok());
        },
        reps);

    // Parity vs the 1-shard engine: bit-identical answers required.
    if (shards == 1) {
      base_range = range.value().matches;
      base_knn = knn.value().matches;
      base_join = SortedPairs(join.value().pairs);
    } else {
      const bool ok = SameMatches(base_range, range.value().matches) &&
                      SameMatches(base_knn, knn.value().matches) &&
                      SamePairs(base_join, SortedPairs(join.value().pairs));
      if (!ok) {
        out.mismatch = true;
        std::fprintf(stderr, "ANSWER MISMATCH at %d shards (%s)\n", shards,
                     name.c_str());
      }
    }

    // Mutation churn: insert one fresh series, then run the index range
    // query (which recompiles the invalidated shard's packed snapshot).
    {
      const auto churn_db = Build(market, shards);
      Stopwatch watch;
      for (const TimeSeries& fresh : churn_series) {
        SIMQ_CHECK(churn_db->Insert("r", fresh).ok());
        SIMQ_CHECK(churn_db->ExecuteText(range_text).ok());
      }
      config.churn_qps =
          static_cast<double>(churn_cycles) / watch.ElapsedSeconds();
    }

    out.configs.push_back(config);
  }
  for (const ConfigResult& config : out.configs) {
    if (config.shards == 4) {
      out.bulk_load_speedup_4 =
          out.configs.front().bulk_load_ms / config.bulk_load_ms;
      out.churn_speedup_4 = config.churn_qps / out.configs.front().churn_qps;
    }
  }
  return out;
}

void PrintWorkload(const WorkloadResult& result) {
  std::printf("\n[%s] %d x %d, epsilon=%.4f\n", result.name.c_str(),
              result.count, result.length, result.epsilon);
  TablePrinter table(
      {"shards", "bulk_ms", "load_query_ms", "churn_qps", "range_ms",
       "knn_ms", "join_ms"});
  for (const ConfigResult& config : result.configs) {
    table.AddRow({std::to_string(config.shards),
                  TablePrinter::FormatDouble(config.bulk_load_ms, 2),
                  TablePrinter::FormatDouble(config.load_query_ms, 2),
                  TablePrinter::FormatDouble(config.churn_qps, 1),
                  TablePrinter::FormatDouble(config.range_ms, 3),
                  TablePrinter::FormatDouble(config.knn_ms, 3),
                  TablePrinter::FormatDouble(config.join_ms, 2)});
  }
  table.Print();
  std::printf(
      "bulk_load x%.2f, churn x%.2f at 4 shards; answers %s\n",
      result.bulk_load_speedup_4, result.churn_speedup_4,
      result.mismatch ? "MISMATCH" : "identical");
}

void Run(int only_count, const std::string& out_path) {
  bench::PrintHeader(
      "SHARD: scatter-gather engine scaling across shard counts",
      "claims: parallel per-shard bulk load and churn (insert+query) "
      "throughput improve with shards; all answers bit-identical to the "
      "unsharded engine");

  std::vector<WorkloadResult> results;
  if (only_count == 0 || only_count == 1067) {
    results.push_back(RunWorkload("stock_1067x128", 1067, 5, 120));
  }
  if (only_count == 0 || only_count == 12000) {
    results.push_back(RunWorkload("stock_12000x128", 12000, 3, 40));
  }
  if (results.empty()) {
    results.push_back(RunWorkload(
        "stock_" + std::to_string(only_count) + "x128", only_count, 3, 40));
  }

  bool mismatch = false;
  for (const WorkloadResult& result : results) {
    PrintWorkload(result);
    mismatch = mismatch || result.mismatch;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  SIMQ_CHECK(out != nullptr) << "cannot write " << out_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"shard_scaling\",\n"
               "  \"threads\": %d,\n"
               "  \"workloads\": [\n",
               ThreadPool::Global().num_threads());
  for (size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& result = results[w];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"count\": %d, \"length\": %d, "
                 "\"epsilon\": %.17g,\n     \"configs\": [\n",
                 result.name.c_str(), result.count, result.length,
                 result.epsilon);
    for (size_t c = 0; c < result.configs.size(); ++c) {
      const ConfigResult& config = result.configs[c];
      std::fprintf(
          out,
          "      {\"shards\": %d, \"bulk_load_ms\": %.3f, "
          "\"load_query_ms\": %.3f, \"churn_qps\": %.2f, "
          "\"range_ms\": %.4f, \"knn_ms\": %.4f, \"join_ms\": %.3f}%s\n",
          config.shards, config.bulk_load_ms, config.load_query_ms,
          config.churn_qps, config.range_ms, config.knn_ms, config.join_ms,
          c + 1 < result.configs.size() ? "," : "");
    }
    std::fprintf(out,
                 "     ],\n"
                 "     \"bulk_load_speedup_4\": %.3f,\n"
                 "     \"churn_speedup_4\": %.3f,\n"
                 "     \"mismatch\": %s}%s\n",
                 result.bulk_load_speedup_4, result.churn_speedup_4,
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
  const std::string out = argc > 2 ? argv[2] : "BENCH_shard.json";
  simq::Run(count, out);
  return 0;
}
