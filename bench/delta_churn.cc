// [DELTA] Mutation churn through the per-shard delta layer, on the
// 12000 x 128 scale-up workload.
//
// Churn schedule: interleaved {insert one series, run one index range
// query}. Inserts land in the exactly-scanned delta and the shard's packed
// tree stands, so each query pays one extra exact check per delta row
// instead of a tree rebuild.
//
// Reported per shard count (1 and 4):
//   churn_ms       wall time of the whole schedule
//   ops_per_sec    schedule throughput (one op = insert + query)
// plus the recompaction cost profile: build (runs under the service's
// shared lock; readers keep executing) and publish (the only exclusive
// section) percentiles across repeated folds -- publish p99 is the MVCC
// pause bound readers can ever observe.
//
// Self-check (reported in BENCH_delta.json and grepped by CI): answer
// identity. After every churn op, and after a final fold, the churned
// database's answer must match, bit for bit, the answer of a fresh
// database bulk-loaded from the same rows at both shard counts
// ("mismatch": true fails the build, and the process exits nonzero).
//
// Usage: delta_churn [count] [out.json]   (default 12000 BENCH_delta.json)

#include <algorithm>
#include <chrono>
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

constexpr int kChurnOps = 64;
constexpr int kIdentityOps = 12;
constexpr int kFolds = 25;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ConfigResult {
  int shards = 1;
  double churn_ms = 0.0;
  double ops_per_sec = 0.0;
};

struct FoldProfile {
  double build_p50_ms = 0.0;
  double build_p99_ms = 0.0;
  double publish_p50_ms = 0.0;
  double publish_p99_ms = 0.0;
};

double Percentile(std::vector<double> samples, double q) {
  SIMQ_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

std::unique_ptr<Database> BuildDb(const std::vector<TimeSeries>& series,
                                  int shards) {
  ShardingOptions sharding;
  sharding.num_shards = shards;
  auto db = std::make_unique<Database>(FeatureConfig(), RTree::Options(),
                                       sharding);
  SIMQ_CHECK(db->CreateRelation("r").ok());
  SIMQ_CHECK(db->BulkLoad("r", series).ok());
  return db;
}

Query RangeQuery(int64_t probe, double epsilon) {
  Query query;
  query.kind = QueryKind::kRange;
  query.relation = "r";
  query.query_series.id = probe;
  query.epsilon = epsilon;
  query.strategy = ExecutionStrategy::kIndex;
  return query;
}

// One churn op: insert series[i] under a unique name, then answer an
// index range query. Returns the query answer for identity checks.
QueryResult ChurnOp(Database* db, const TimeSeries& fresh, int64_t probe,
                    double epsilon) {
  SIMQ_CHECK(db->Insert("r", fresh).ok());
  Result<QueryResult> result = db->Execute(RangeQuery(probe, epsilon));
  SIMQ_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<TimeSeries> ChurnSeries(int ops, int length, uint64_t seed) {
  std::vector<TimeSeries> series =
      workload::RandomWalkSeries(ops, length, seed);
  for (int i = 0; i < ops; ++i) {
    series[static_cast<size_t>(i)].id = "churn" + std::to_string(i);
  }
  return series;
}

ConfigResult RunChurn(const std::vector<TimeSeries>& base, int shards,
                      double epsilon) {
  ConfigResult result;
  result.shards = shards;
  std::unique_ptr<Database> db = BuildDb(base, shards);
  const std::vector<TimeSeries> fresh = ChurnSeries(kChurnOps, 128, 71);
  const int64_t count = static_cast<int64_t>(base.size());
  // Warm: compile the snapshot the first query would otherwise pay for.
  SIMQ_CHECK(db->Execute(RangeQuery(0, epsilon)).ok());
  const double start = NowMs();
  for (int i = 0; i < kChurnOps; ++i) {
    ChurnOp(db.get(), fresh[static_cast<size_t>(i)],
            (static_cast<int64_t>(i) * 37) % count, epsilon);
  }
  result.churn_ms = NowMs() - start;
  result.ops_per_sec =
      result.churn_ms > 0.0 ? 1000.0 * kChurnOps / result.churn_ms : 0.0;
  return result;
}

bool SameMatches(const QueryResult& a, const QueryResult& b) {
  if (a.matches.size() != b.matches.size()) {
    return false;
  }
  for (size_t m = 0; m < a.matches.size(); ++m) {
    if (a.matches[m].id != b.matches[m].id ||
        a.matches[m].name != b.matches[m].name ||
        a.matches[m].distance != b.matches[m].distance) {
      return false;
    }
  }
  return true;
}

// The identity oracle: a fresh bulk load of the subject's rows (no
// deletes happen here, so ids line up) answers every churn query.
bool IdentityHolds(const std::vector<TimeSeries>& base, int shards,
                   double epsilon) {
  std::unique_ptr<Database> subject = BuildDb(base, shards);
  std::vector<TimeSeries> rows = base;
  const std::vector<TimeSeries> fresh = ChurnSeries(kIdentityOps, 128, 72);
  const int64_t count = static_cast<int64_t>(base.size());
  const auto oracle_answer = [&](int64_t probe) {
    Result<QueryResult> result =
        BuildDb(rows, shards)->Execute(RangeQuery(probe, epsilon));
    SIMQ_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  for (int i = 0; i < kIdentityOps; ++i) {
    const int64_t probe = (static_cast<int64_t>(i) * 41) % count;
    const QueryResult got =
        ChurnOp(subject.get(), fresh[static_cast<size_t>(i)], probe, epsilon);
    rows.push_back(fresh[static_cast<size_t>(i)]);
    if (!SameMatches(got, oracle_answer(probe))) {
      return false;
    }
  }
  // Fold everything, then the answers must still be the oracle's.
  SIMQ_CHECK(subject->Recompact("r").ok());
  const int64_t probe = 3 % count;
  Result<QueryResult> got = subject->Execute(RangeQuery(probe, epsilon));
  SIMQ_CHECK(got.ok());
  return SameMatches(got.value(), oracle_answer(probe));
}

FoldProfile ProfileRecompaction(const std::vector<TimeSeries>& base,
                                int shards) {
  std::unique_ptr<Database> db = BuildDb(base, shards);
  SIMQ_CHECK(db->Execute(RangeQuery(0, 1.0)).ok());  // compile once
  const std::vector<TimeSeries> fresh = ChurnSeries(kFolds * 4, 128, 73);
  std::vector<double> build_ms;
  std::vector<double> publish_ms;
  for (int fold = 0; fold < kFolds; ++fold) {
    for (int i = 0; i < 4; ++i) {
      SIMQ_CHECK(
          db->Insert("r", fresh[static_cast<size_t>(fold * 4 + i)]).ok());
    }
    std::vector<RelationShard::Recompaction> built;
    const double t0 = NowMs();
    SIMQ_CHECK(db->BuildRecompaction("r", &built).ok());
    const double t1 = NowMs();
    SIMQ_CHECK(db->PublishRecompaction("r", std::move(built)).ok());
    const double t2 = NowMs();
    build_ms.push_back(t1 - t0);
    publish_ms.push_back(t2 - t1);
  }
  FoldProfile profile;
  profile.build_p50_ms = Percentile(build_ms, 0.50);
  profile.build_p99_ms = Percentile(build_ms, 0.99);
  profile.publish_p50_ms = Percentile(publish_ms, 0.50);
  profile.publish_p99_ms = Percentile(publish_ms, 0.99);
  return profile;
}

void Run(int count, const std::string& out_path) {
  bench::PrintHeader(
      "DELTA: mutation churn through the delta layer",
      "claims: answers bit-identical to a fresh bulk load of the same "
      "rows, publish pause bounded");

  workload::StockMarketOptions options;
  options.num_series = count;
  const std::vector<TimeSeries> base = workload::StockMarket(options);
  std::unique_ptr<Database> calibration = BuildDb(base, 1);
  const double epsilon = bench::CalibrateRangeEpsilon(
      *calibration, "r", /*probe_id=*/0, nullptr, /*target_answers=*/24);
  calibration.reset();

  const bool mismatch =
      !IdentityHolds(base, 1, epsilon) || !IdentityHolds(base, 4, epsilon);

  std::vector<ConfigResult> configs;
  for (const int shards : {1, 4}) {
    configs.push_back(RunChurn(base, shards, epsilon));
  }

  const FoldProfile folds = ProfileRecompaction(base, 1);

  TablePrinter table({"shards", "churn_ms", "ops_per_sec"});
  for (const ConfigResult& config : configs) {
    table.AddRow({std::to_string(config.shards),
                  TablePrinter::FormatDouble(config.churn_ms, 2),
                  TablePrinter::FormatDouble(config.ops_per_sec, 1)});
  }
  table.Print();
  std::printf(
      "recompaction @1 shard: build p50/p99 = %.3f/%.3f ms, "
      "publish p50/p99 = %.3f/%.3f ms\n"
      "answers %s\n",
      folds.build_p50_ms, folds.build_p99_ms, folds.publish_p50_ms,
      folds.publish_p99_ms, mismatch ? "MISMATCH" : "identical");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  SIMQ_CHECK(out != nullptr) << "cannot write " << out_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"delta_churn\",\n"
               "  \"threads\": %d,\n"
               "  \"count\": %d,\n"
               "  \"length\": 128,\n"
               "  \"churn_ops\": %d,\n"
               "  \"epsilon\": %.17g,\n"
               "  \"configs\": [\n",
               ThreadPool::Global().num_threads(), count, kChurnOps,
               epsilon);
  for (size_t i = 0; i < configs.size(); ++i) {
    const ConfigResult& config = configs[i];
    std::fprintf(out,
                 "    {\"shards\": %d, \"churn_ms\": %.4f, "
                 "\"ops_per_sec\": %.2f}%s\n",
                 config.shards, config.churn_ms, config.ops_per_sec,
                 i + 1 < configs.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"recompaction\": {\"folds\": %d, "
               "\"build_p50_ms\": %.4f, \"build_p99_ms\": %.4f, "
               "\"publish_p50_ms\": %.4f, \"publish_p99_ms\": %.4f},\n"
               "  \"mismatch\": %s\n"
               "}\n",
               kFolds, folds.build_p50_ms, folds.build_p99_ms,
               folds.publish_p50_ms, folds.publish_p99_ms,
               mismatch ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (mismatch) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace simq

int main(int argc, char** argv) {
  const int count = argc > 1 ? std::atoi(argv[1]) : 12000;
  const std::string out = argc > 2 ? argv[2] : "BENCH_delta.json";
  simq::Run(count, out);
  return 0;
}
