// [SERVE] Closed-loop multi-client throughput of the query service on the
// Table-1 stock workload (1067 x 128 series, T_mavg20 range queries with
// literal query series -- what a network client would actually ship).
//
// Three modes over the same query set:
//   cold_parse       every request is parse -> plan -> execute
//   prepared         Prepare once per client, Execute(statement) per
//                    request (result cache off, so the engine runs
//                    every time)
//   prepared_cached  prepared execution with the result cache on
//
// Self-checks (reported in BENCH_serve.json and grepped by CI):
//   * all three modes return bit-identical answer sets per query
//     ("mismatch": true fails the build)
//   * claims: prepared beats cold parse-per-query; cached beats prepared.
//     Cloud runners are too noisy for hard thresholds, so the speedups are
//     recorded, not asserted.
//
// Usage: serve_throughput [clients] [queries_per_mode] [probes] [out.json]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_relation.h"
#include "core/transformation.h"
#include "service/query_service.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace simq {
namespace {

struct ModeResult {
  std::string name;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double total_s = 0.0;
  // Per-probe answers for the cross-mode identity check.
  std::vector<std::vector<Match>> answers;
};

// Round-trip-exact rendering of the probe series into query text: %.17g
// guarantees strtod gives back the same double, so the cold parse path
// computes on bit-identical inputs.
std::string LiteralQueryText(const std::vector<double>& values,
                             double epsilon) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", epsilon);
  std::string text = std::string("RANGE r WITHIN ") + buffer + " OF [";
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", values[i]);
    if (i > 0) {
      text += ",";
    }
    text += buffer;
  }
  text += "] USING mavg(20)";
  return text;
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

// Runs one mode: `clients` threads executing `queries` requests total,
// round-robin over the probe texts. `use_prepared` switches the per-client
// request from ExecuteText to ExecutePrepared.
ModeResult RunMode(const std::string& name, QueryService* service,
                   const std::vector<std::string>& texts, int clients,
                   int queries, bool use_prepared) {
  ModeResult mode;
  mode.name = name;
  mode.answers.assign(texts.size(), {});
  std::vector<std::vector<double>> client_latencies(
      static_cast<size_t>(clients));
  std::atomic<bool> failed{false};
  std::mutex answers_mutex;  // clients of one mode share the answer table

  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto session = service->OpenSession();
      std::vector<int64_t> statements;
      if (use_prepared) {
        for (const std::string& text : texts) {
          const Result<int64_t> statement = session->Prepare(text);
          if (!statement.ok()) {
            failed = true;
            return;
          }
          statements.push_back(statement.value());
        }
      }
      std::vector<double>& latencies =
          client_latencies[static_cast<size_t>(c)];
      const int quota = queries / clients + (c < queries % clients ? 1 : 0);
      for (int i = 0; i < quota; ++i) {
        const size_t which = static_cast<size_t>(
            (i * clients + c) % static_cast<int>(texts.size()));
        Stopwatch watch;
        const Result<ServiceResult> result =
            use_prepared ? session->ExecutePrepared(statements[which])
                         : session->Execute(texts[which]);
        latencies.push_back(watch.ElapsedMillis());
        if (!result.ok()) {
          failed = true;
          return;
        }
        // Record (and cross-check within the mode) the probe's answer.
        {
          std::lock_guard<std::mutex> lock(answers_mutex);
          std::vector<Match>& expected = mode.answers[which];
          if (expected.empty()) {
            expected = result.value().result.matches;
          } else if (!SameMatches(expected, result.value().result.matches)) {
            failed = true;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  mode.total_s = wall.ElapsedSeconds();
  if (failed.load()) {
    std::fprintf(stderr, "mode %s FAILED\n", name.c_str());
    std::exit(1);
  }
  std::vector<double> all;
  for (const std::vector<double>& samples : client_latencies) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  mode.qps = static_cast<double>(queries) / mode.total_s;
  mode.p50_ms = Percentile(all, 50.0);
  mode.p95_ms = Percentile(all, 95.0);
  return mode;
}

void Run(int clients, int queries, int probes, const std::string& out_path) {
  bench::PrintHeader(
      "SERVE: multi-client service throughput (1067 x 128 stock relation, "
      "T_mavg20 literal range queries)",
      "claims: prepared beats cold parse-per-query; cached beats prepared; "
      "all modes return bit-identical answers");

  const std::vector<TimeSeries> market =
      workload::StockMarket(workload::StockMarketOptions());

  // Calibrate epsilon once for a ~12-answer operating point, as in the
  // Table-1 reproduction.
  double epsilon = 0.0;
  {
    const auto db = bench::BuildDatabase(market);
    const auto mavg20 = MakeMovingAverageRule(20);
    epsilon =
        bench::CalibrateRangeEpsilon(*db, "r", 0, mavg20.get(), 12);
  }

  // Query texts: `probes` distinct stock series shipped as literals.
  std::vector<std::string> texts;
  texts.reserve(static_cast<size_t>(probes));
  for (int p = 0; p < probes; ++p) {
    const size_t index =
        static_cast<size_t>(p) * market.size() / static_cast<size_t>(probes);
    texts.push_back(LiteralQueryText(market[index].values, epsilon));
  }

  // Two services over identically generated data: cold and prepared run
  // uncached (the engine must execute), the cached mode gets the cache.
  // SIMQ_SHARDS shards the relation so the serve trajectory can be read
  // against the shard bench; the shard count and thread budget land in
  // the JSON metadata either way.
  const ShardingOptions sharding = ShardingOptions::FromEnv();
  ServiceOptions uncached;
  uncached.result_cache_capacity = 0;
  auto BuildService = [&](const ServiceOptions& options) {
    Database db(FeatureConfig(), RTree::Options(), sharding);
    SIMQ_CHECK(db.CreateRelation("r").ok());
    SIMQ_CHECK(db.BulkLoad("r", market).ok());
    return std::make_unique<QueryService>(std::move(db), options);
  };
  auto uncached_service = BuildService(uncached);
  auto cached_service = BuildService(ServiceOptions());

  std::vector<ModeResult> modes;
  modes.push_back(RunMode("cold_parse", uncached_service.get(), texts,
                          clients, queries, /*use_prepared=*/false));
  modes.push_back(RunMode("prepared", uncached_service.get(), texts, clients,
                          queries, /*use_prepared=*/true));
  modes.push_back(RunMode("prepared_cached", cached_service.get(), texts,
                          clients, queries, /*use_prepared=*/true));

  // Cross-mode identity: every probe's answer set must be bit-identical in
  // all three modes.
  bool mismatch = false;
  for (size_t which = 0; which < texts.size(); ++which) {
    for (size_t m = 1; m < modes.size(); ++m) {
      if (!SameMatches(modes[0].answers[which], modes[m].answers[which])) {
        mismatch = true;
        std::fprintf(stderr, "ANSWER MISMATCH: probe %zu, mode %s\n", which,
                     modes[m].name.c_str());
      }
    }
  }

  TablePrinter table({"mode", "qps", "p50_ms", "p95_ms", "total_s"});
  for (const ModeResult& mode : modes) {
    table.AddRow({mode.name, TablePrinter::FormatDouble(mode.qps, 0),
                  TablePrinter::FormatDouble(mode.p50_ms, 3),
                  TablePrinter::FormatDouble(mode.p95_ms, 3),
                  TablePrinter::FormatDouble(mode.total_s, 2)});
  }
  table.Print();
  const double prepared_speedup = modes[1].qps / modes[0].qps;
  const double cached_speedup = modes[2].qps / modes[0].qps;
  const ServiceStats cached_stats = cached_service->stats();
  const int64_t lookups =
      cached_stats.cache.hits + cached_stats.cache.misses;
  std::printf(
      "\nprepared/cold = %.2fx   cached/cold = %.2fx   cache hit rate = "
      "%.1f%%   answers %s\n",
      prepared_speedup, cached_speedup,
      lookups > 0 ? 100.0 * static_cast<double>(cached_stats.cache.hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      mismatch ? "MISMATCH" : "identical");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  SIMQ_CHECK(out != nullptr) << "cannot write " << out_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"serve_throughput\",\n"
               "  \"workload\": \"stock_1067x128_mavg20_range\",\n"
               "  \"clients\": %d,\n"
               "  \"queries_per_mode\": %d,\n"
               "  \"probes\": %d,\n"
               "  \"num_shards\": %d,\n"
               "  \"pool_threads\": %d,\n"
               "  \"max_concurrent_queries\": %d,\n"
               "  \"epsilon\": %.17g,\n"
               "  \"modes\": [\n",
               clients, queries, probes, sharding.num_shards,
               ThreadPool::Global().num_threads(),
               uncached.max_concurrent_queries > 0
                   ? uncached.max_concurrent_queries
                   : ThreadPool::Global().num_threads(),
               epsilon);
  for (size_t m = 0; m < modes.size(); ++m) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"qps\": %.1f, \"p50_ms\": %.4f, "
                 "\"p95_ms\": %.4f, \"total_s\": %.3f}%s\n",
                 modes[m].name.c_str(), modes[m].qps, modes[m].p50_ms,
                 modes[m].p95_ms, modes[m].total_s,
                 m + 1 < modes.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"prepared_speedup\": %.3f,\n"
               "  \"cached_speedup\": %.3f,\n"
               "  \"mismatch\": %s\n"
               "}\n",
               prepared_speedup, cached_speedup,
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
  const int clients = argc > 1 ? std::atoi(argv[1]) : 4;
  const int queries = argc > 2 ? std::atoi(argv[2]) : 2000;
  const int probes = argc > 3 ? std::atoi(argv[3]) : 24;
  const std::string out = argc > 4 ? argv[4] : "BENCH_serve.json";
  simq::Run(clients, queries, probes, out);
  return 0;
}
