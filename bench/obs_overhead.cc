// [OBS] Observability overhead on the hot paths: what the tracing and
// metrics instrumentation costs when it is off, sampled, and always on.
//
// Engine-level A/B on two workloads, with the modes run back-to-back per
// probe (rotating order) and compared by per-probe median latency, so
// machine drift and scheduling noise hit every mode equally:
//   table1_range   Table-1 stock relation (1067 x 128), T_mavg20 literal
//                  range queries at the ~12-answer operating point
//   filtered_knn   12000 x 128 random walks, quantized filter engine,
//                  NEAREST 10 VIA SCAN MODE FILTERED
//
// Modes per workload:
//   baseline    Query::exec == nullptr -- no context, every trace branch
//               short-circuits on the null pointer
//   off         an ExecutionContext is attached but carries no trace: the
//               dormant-instrumentation path every production query pays
//   accounting  a QueryAccounting is attached and the pool CPU sink +
//               calling-thread CLOCK_THREAD_CPUTIME_ID delta are metered,
//               exactly what enable_resource_accounting pays per query
//   sampled     1 in 64 executions carries a Trace
//   always      every execution carries a Trace
//
// Self-checks (reported in BENCH_obs.json and grepped by CI):
//   * overhead_off_pct (baseline vs off) stays under 2% on both
//     workloads -- the tracing-off budget. "gate_failed": true fails CI.
//   * overhead_accounting_pct (baseline vs accounting) stays under 2% --
//     the resource-accounting budget, gated the same way.
//   * traced and untraced answer sets are bit-identical ("mismatch").
// The sampled/always overheads and the metrics scrape latency (median
// HTTP GET against obs::MetricsHttpExporter) are recorded, not gated.
//
// Usage: obs_overhead [rounds] [out.json]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/database.h"
#include "core/parser.h"
#include "core/sharded_relation.h"
#include "core/transformation.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/resource_usage.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "util/thread_pool.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/generators.h"

namespace simq {
namespace {

enum class Mode { kBaseline, kOff, kAccounting, kSampled, kAlways };
constexpr int kModeCount = 5;

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kBaseline: return "baseline";
    case Mode::kOff: return "off";
    case Mode::kAccounting: return "accounting";
    case Mode::kSampled: return "sampled";
    case Mode::kAlways: return "always";
  }
  return "?";
}

struct WorkloadReport {
  std::string name;
  double qps[kModeCount] = {};  // indexed by Mode
  double overhead_off_pct = 0.0;
  double overhead_accounting_pct = 0.0;
  double overhead_sampled_pct = 0.0;
  double overhead_always_pct = 0.0;
};

std::string LiteralRangeText(const std::vector<double>& values,
                             double epsilon) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", epsilon);
  std::string text = std::string("RANGE r WITHIN ") + buffer + " OF [";
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", values[i]);
    if (i > 0) text += ",";
    text += buffer;
  }
  text += "] USING mavg(20)";
  return text;
}

bool SameMatches(const std::vector<Match>& a, const std::vector<Match>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  }
  return true;
}

// Executes `query` once in `mode` and returns the wall time in ms. The
// query objects are prebuilt (parse cost excluded); the per-query work
// here is exactly what the mode is defined to pay.
double TimeOne(Database* db, const Query& query, Mode mode,
               const std::shared_ptr<const ExecutionContext>& ctx,
               int64_t* tick) {
  Query bound = query;  // cheap: shares the compiled rule chain
  std::shared_ptr<obs::QueryAccounting> accounting;
  if (mode != Mode::kBaseline) {
    bound.exec = ctx;
    const bool traced =
        mode == Mode::kAlways ||
        (mode == Mode::kSampled && ((*tick)++ % 64) == 0);
    ctx->set_trace(traced ? std::make_shared<obs::Trace>() : nullptr);
    if (mode == Mode::kAccounting) {
      accounting = std::make_shared<obs::QueryAccounting>();
      ctx->set_accounting(accounting);
    }
  }
  Stopwatch watch;
  // Accounting mode pays exactly what the service pays per metered query:
  // the pool workers' CPU sink plus the calling thread's own delta.
  const Result<QueryResult> result = [&] {
    if (accounting == nullptr) {
      return db->Execute(bound);
    }
    ThreadPool::ScopedCpuAccounting meter(&accounting->cpu_ns,
                                          &accounting->pool_tasks);
    const int64_t cpu_begin = ThreadPool::ThreadCpuNs();
    Result<QueryResult> r = db->Execute(bound);
    accounting->cpu_ns.fetch_add(ThreadPool::ThreadCpuNs() - cpu_begin,
                                 std::memory_order_relaxed);
    return r;
  }();
  const double elapsed = watch.ElapsedMillis();
  SIMQ_CHECK(result.ok()) << result.status().ToString();
  if (mode != Mode::kBaseline) {
    ctx->set_trace(nullptr);
    if (accounting != nullptr) {
      SIMQ_CHECK(accounting->cpu_ns.load() > 0) << "accounting metered no CPU";
      ctx->set_accounting(nullptr);
    }
  }
  return elapsed;
}

WorkloadReport MeasureWorkload(const std::string& name, Database* db,
                               const std::vector<Query>& queries,
                               int rounds) {
  WorkloadReport report;
  report.name = name;
  auto ctx = std::make_shared<const ExecutionContext>();

  // Identity check first (and warm-up): a traced execution must return
  // the bit-identical answer set of an untraced one.
  for (const Query& query : queries) {
    const Result<QueryResult> plain = db->Execute(query);
    SIMQ_CHECK(plain.ok()) << plain.status().ToString();
    Query traced = query;
    traced.exec = ctx;
    ctx->set_trace(std::make_shared<obs::Trace>());
    const Result<QueryResult> with_trace = db->Execute(traced);
    ctx->set_trace(nullptr);
    SIMQ_CHECK(with_trace.ok()) << with_trace.status().ToString();
    SIMQ_CHECK(SameMatches(plain.value().matches,
                           with_trace.value().matches) &&
               plain.value().pairs.size() == with_trace.value().pairs.size())
        << "traced answers differ on " << name;
  }

  // Per-(probe, mode) latency samples, executed back-to-back per probe so
  // every mode sees the same caches, clocks, and background noise; the
  // per-mode order rotates each round to cancel residual position bias.
  // Medians per probe, summed across probes, yield each mode's cost; this
  // is what survives a noisy shared machine where round-level A/B
  // interleaving does not.
  const Mode kModes[] = {Mode::kBaseline, Mode::kOff, Mode::kAccounting,
                         Mode::kSampled, Mode::kAlways};
  int64_t tick = 0;
  std::vector<std::vector<double>> samples[kModeCount];
  for (auto& per_mode : samples) {
    per_mode.assign(queries.size(), {});
  }
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      for (int slot = 0; slot < kModeCount; ++slot) {
        const Mode mode = kModes[(slot + round) % kModeCount];
        samples[static_cast<int>(mode)][i].push_back(
            TimeOne(db, queries[i], mode, ctx, &tick));
      }
    }
  }
  double total_ms[kModeCount] = {};
  for (const Mode mode : kModes) {
    const int m = static_cast<int>(mode);
    for (size_t i = 0; i < queries.size(); ++i) {
      total_ms[m] += Percentile(samples[m][i], 50.0);
    }
    report.qps[m] =
        1000.0 * static_cast<double>(queries.size()) / total_ms[m];
  }
  const double base = total_ms[static_cast<int>(Mode::kBaseline)];
  report.overhead_off_pct =
      100.0 * (total_ms[static_cast<int>(Mode::kOff)] - base) / base;
  report.overhead_accounting_pct =
      100.0 * (total_ms[static_cast<int>(Mode::kAccounting)] - base) / base;
  report.overhead_sampled_pct =
      100.0 * (total_ms[static_cast<int>(Mode::kSampled)] - base) / base;
  report.overhead_always_pct =
      100.0 * (total_ms[static_cast<int>(Mode::kAlways)] - base) / base;
  return report;
}

// Minimal HTTP GET against 127.0.0.1:`port`; returns false on any socket
// failure or an empty response.
bool HttpGet(uint16_t port, std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::send(fd, request, sizeof(request) - 1, 0) < 0) {
    ::close(fd);
    return false;
  }
  char buffer[4096];
  body->clear();
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    body->append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return !body->empty();
}

// Median / p95 scrape latency against a live exporter whose registry
// holds the full service catalog.
bool MeasureScrape(int requests, double* p50_ms, double* p95_ms) {
  Database db;
  SIMQ_CHECK(db.CreateRelation("r").ok());
  SIMQ_CHECK(
      db.BulkLoad("r", workload::RandomWalkSeries(200, 64, 11)).ok());
  QueryService service(std::move(db));
  for (int i = 0; i < 50; ++i) {
    SIMQ_CHECK(service.ExecuteText("NEAREST 3 r TO #walk1").ok());
  }
  obs::MetricsHttpExporter exporter(
      service.metrics_registry(),
      [&service] { service.RefreshScrapeGauges(); });
  if (!exporter.Start(0)) return false;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(requests));
  std::string body;
  if (!HttpGet(exporter.port(), &body)) return false;  // warm-up
  SIMQ_CHECK(body.find("simq_queries_total") != std::string::npos);
  for (int i = 0; i < requests; ++i) {
    Stopwatch watch;
    if (!HttpGet(exporter.port(), &body)) return false;
    latencies.push_back(watch.ElapsedMillis());
  }
  exporter.Stop();
  *p50_ms = Percentile(latencies, 50.0);
  *p95_ms = Percentile(latencies, 95.0);
  return true;
}

void Run(int rounds, const std::string& out_path) {
  bench::PrintHeader(
      "OBS: observability overhead (tracing off / accounting / sampled / "
      "always)",
      "claims: dormant instrumentation and resource accounting each cost "
      "<2% on the Table-1 range and filtered-kNN hot paths; traced answers "
      "are bit-identical");

  std::vector<WorkloadReport> reports;

  // Workload 1: Table-1 stock range queries.
  {
    const std::vector<TimeSeries> market =
        workload::StockMarket(workload::StockMarketOptions());
    auto db = bench::BuildDatabase(market);
    const auto mavg20 = MakeMovingAverageRule(20);
    const double epsilon =
        bench::CalibrateRangeEpsilon(*db, "r", 0, mavg20.get(), 12);
    std::vector<Query> queries;
    constexpr int kProbes = 16;
    for (int p = 0; p < kProbes; ++p) {
      const size_t index =
          static_cast<size_t>(p) * market.size() / kProbes;
      Result<Query> parsed =
          ParseQuery(LiteralRangeText(market[index].values, epsilon));
      SIMQ_CHECK(parsed.ok()) << parsed.status().ToString();
      queries.push_back(std::move(parsed).value());
    }
    reports.push_back(
        MeasureWorkload("table1_range", db.get(), queries, rounds));
  }

  // Workload 2: filtered kNN over 12000 x 128 walks.
  {
    auto db = bench::BuildDatabase(workload::RandomWalkSeries(12000, 128, 5));
    std::vector<Query> queries;
    constexpr int kProbes = 8;
    for (int p = 0; p < kProbes; ++p) {
      const std::string text =
          "NEAREST 10 r TO #walk" + std::to_string(p * 1500) +
          " VIA SCAN MODE FILTERED";
      Result<Query> parsed = ParseQuery(text);
      SIMQ_CHECK(parsed.ok()) << parsed.status().ToString();
      queries.push_back(std::move(parsed).value());
    }
    reports.push_back(
        MeasureWorkload("filtered_knn", db.get(), queries, rounds));
  }

  double scrape_p50 = 0.0;
  double scrape_p95 = 0.0;
  constexpr int kScrapeRequests = 50;
  const bool scrape_ok =
      MeasureScrape(kScrapeRequests, &scrape_p50, &scrape_p95);
  SIMQ_CHECK(scrape_ok) << "metrics scrape failed";

  TablePrinter table({"workload", "baseline_qps", "off_qps", "acct_qps",
                      "sampled_qps", "always_qps", "off_%", "acct_%",
                      "always_%"});
  bool gate_failed = false;
  for (const WorkloadReport& report : reports) {
    table.AddRow(
        {report.name, TablePrinter::FormatDouble(report.qps[0], 0),
         TablePrinter::FormatDouble(report.qps[1], 0),
         TablePrinter::FormatDouble(report.qps[2], 0),
         TablePrinter::FormatDouble(report.qps[3], 0),
         TablePrinter::FormatDouble(report.qps[4], 0),
         TablePrinter::FormatDouble(report.overhead_off_pct, 2),
         TablePrinter::FormatDouble(report.overhead_accounting_pct, 2),
         TablePrinter::FormatDouble(report.overhead_always_pct, 2)});
    if (report.overhead_off_pct >= 2.0) gate_failed = true;
    if (report.overhead_accounting_pct >= 2.0) gate_failed = true;
  }
  table.Print();
  std::printf("\nscrape: p50=%.3f ms p95=%.3f ms (%d requests)   "
              "tracing-off + accounting gates %s\n",
              scrape_p50, scrape_p95, kScrapeRequests,
              gate_failed ? "FAILED (>= 2%)" : "ok (< 2%)");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  SIMQ_CHECK(out != nullptr) << "cannot write " << out_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"obs_overhead\",\n"
               "  \"rounds\": %d,\n"
               "  \"workloads\": [\n",
               rounds);
  for (size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"qps_baseline\": %.1f, \"qps_off\": %.1f, "
        "\"qps_accounting\": %.1f, \"qps_sampled\": %.1f, "
        "\"qps_always\": %.1f, \"overhead_off_pct\": %.3f, "
        "\"overhead_accounting_pct\": %.3f, \"overhead_sampled_pct\": %.3f, "
        "\"overhead_always_pct\": %.3f}%s\n",
        r.name.c_str(), r.qps[0], r.qps[1], r.qps[2], r.qps[3], r.qps[4],
        r.overhead_off_pct, r.overhead_accounting_pct,
        r.overhead_sampled_pct, r.overhead_always_pct,
        i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"scrape_requests\": %d,\n"
               "  \"scrape_p50_ms\": %.4f,\n"
               "  \"scrape_p95_ms\": %.4f,\n"
               "  \"gate_failed\": %s\n"
               "}\n",
               kScrapeRequests, scrape_p50, scrape_p95,
               gate_failed ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (gate_failed) std::exit(1);
}

}  // namespace
}  // namespace simq

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 25;
  const std::string out = argc > 2 ? argv[2] : "BENCH_obs.json";
  simq::Run(rounds, out);
  return 0;
}
