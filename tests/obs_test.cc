// Observability subsystem tests: the metrics registry (sharded counters
// under concurrent writers, histogram bucket math, text exposition), the
// per-query trace span tree and its shape across engine paths, EXPLAIN
// ANALYZE answer identity, the slow-query JSONL log (round-trip,
// threshold, sampling), the kMetrics wire codec's hostile-input matrix,
// and the service-counter regression through the registry.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "workload/generators.h"

namespace simq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Database MakeDatabase(int count = 120, int length = 64, uint64_t seed = 7) {
  Database db;
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(
      db.BulkLoad("r", workload::RandomWalkSeries(count, length, seed)).ok());
  return db;
}

void ExpectSameMatches(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].id, b.matches[i].id);
    EXPECT_EQ(a.matches[i].name, b.matches[i].name);
    EXPECT_EQ(a.matches[i].distance, b.matches[i].distance);  // bit-exact
  }
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].first, b.pairs[i].first);
    EXPECT_EQ(a.pairs[i].second, b.pairs[i].second);
    EXPECT_EQ(a.pairs[i].distance, b.pairs[i].distance);
  }
}

// --- metrics registry ---

TEST(MetricsTest, CounterMergesConcurrentWriters) {
  obs::MetricRegistry registry;
  obs::Counter* counter = registry.GetCounter("test_total");
  obs::Gauge* gauge = registry.GetGauge("test_gauge");
  obs::Histogram* histogram = registry.GetHistogram("test_ms");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([=] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add();
        gauge->Add(1);
        histogram->Observe(0.5);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(gauge->Value(), kThreads * kPerThread);
  const obs::Histogram::Snapshot snap = histogram->snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_NEAR(snap.sum_ms, 0.5 * kThreads * kPerThread,
              0.01 * kThreads * kPerThread);
}

TEST(MetricsTest, RegistryInternsStablePointers) {
  obs::MetricRegistry registry;
  obs::Counter* a = registry.GetCounter("x_total");
  EXPECT_EQ(a, registry.GetCounter("x_total"));
  // A type-mismatched re-registration must not alias through the wrong
  // type: it returns a distinct private metric.
  obs::Gauge* mismatched = registry.GetGauge("x_total");
  ASSERT_NE(mismatched, nullptr);
  mismatched->Set(7);
  a->Add(3);
  EXPECT_EQ(a->Value(), 3);
  EXPECT_EQ(mismatched->Value(), 7);
  // The first registration owns the name in snapshots.
  const std::vector<obs::MetricSample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "x_total");
  EXPECT_EQ(samples[0].type, obs::MetricSample::Type::kCounter);
  EXPECT_EQ(samples[0].value, 3.0);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  using H = obs::Histogram;
  // UpperBound(i) = kFirstBoundMs * 2^i.
  EXPECT_DOUBLE_EQ(H::UpperBound(0), 0.001);
  EXPECT_DOUBLE_EQ(H::UpperBound(1), 0.002);
  EXPECT_DOUBLE_EQ(H::UpperBound(10), 0.001 * 1024.0);
  // Bucket i spans (UpperBound(i-1), UpperBound(i)]: the bound itself is
  // inclusive, one ulp above it spills into the next bucket.
  EXPECT_EQ(H::BucketIndex(0.0), 0);
  EXPECT_EQ(H::BucketIndex(0.001), 0);
  EXPECT_EQ(H::BucketIndex(0.0011), 1);
  EXPECT_EQ(H::BucketIndex(0.002), 1);
  EXPECT_EQ(H::BucketIndex(0.001 * 1024.0), 10);
  // Beyond the last bound: the overflow bucket.
  EXPECT_EQ(H::BucketIndex(H::UpperBound(H::kBuckets - 1)), H::kBuckets - 1);
  EXPECT_EQ(H::BucketIndex(H::UpperBound(H::kBuckets - 1) * 2.1),
            H::kBuckets);
  EXPECT_EQ(H::BucketIndex(1e300), H::kBuckets);

  H histogram;
  histogram.Observe(0.001);            // bucket 0
  histogram.Observe(0.0015);           // bucket 1
  histogram.Observe(1e300);            // overflow
  const H::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.counts[0], 1);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[H::kBuckets], 1);
  EXPECT_EQ(snap.count, 3);
}

TEST(MetricsTest, HistogramPercentilesAreMonotoneAndBounded) {
  obs::Histogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.Observe(static_cast<double>(i) * 0.1);  // 0.1ms .. 100ms
  }
  const obs::Histogram::Snapshot snap = histogram.snapshot();
  const double p50 = snap.Percentile(50.0);
  const double p95 = snap.Percentile(95.0);
  const double p99 = snap.Percentile(99.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Bucketed percentiles are exact only to the bucket (a factor-of-two
  // band); assert the band, not the point.
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 105.0);
  // True p99 is ~99ms, inside the (65.5, 131.1] bucket; the interpolated
  // read may land anywhere in that bucket.
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 132.0);
}

TEST(MetricsTest, PrometheusTextRendersEveryRegisteredMetric) {
  obs::MetricRegistry registry;
  registry.GetCounter("a_total")->Add(3);
  registry.GetGauge("b")->Set(-2);
  registry.GetHistogram("c_ms")->Observe(0.5);
  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE a_total counter"), std::string::npos);
  EXPECT_NE(text.find("a_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE b gauge"), std::string::npos);
  EXPECT_NE(text.find("b -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE c_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("c_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("c_ms_count 1"), std::string::npos);
}

// --- trace span trees ---

TEST(TraceTest, SpanTreeRecordsShapeAndRows) {
  obs::Trace trace;
  const int child = trace.StartSpan("execute");
  const int grandchild = trace.StartSpan("scan", child);
  trace.SetShard(grandchild, 2);
  trace.SetRows(grandchild, 100, 90, 10);
  trace.EndSpan(grandchild);
  const int done =
      trace.AddCompleted("parse", obs::Trace::kRoot, 0.0, 0.0);
  trace.SetNote(child, "index/packed");
  trace.EndSpan(child);
  trace.EndSpan(obs::Trace::kRoot);

  const std::vector<obs::TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[child].name, "execute");
  EXPECT_EQ(spans[child].parent, obs::Trace::kRoot);
  EXPECT_EQ(spans[child].note, "index/packed");
  EXPECT_EQ(spans[grandchild].parent, child);
  EXPECT_EQ(spans[grandchild].shard, 2);
  EXPECT_EQ(spans[grandchild].rows_scanned, 100);
  EXPECT_EQ(spans[grandchild].rows_pruned, 90);
  EXPECT_EQ(spans[grandchild].rows_returned, 10);
  // An AddCompleted span with zero elapsed stays zero (it is closed, not
  // open); it must not report time-since-trace-start.
  EXPECT_EQ(spans[done].elapsed_ms, 0.0);

  const std::string rendered = obs::RenderTraceTree(spans);
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("execute"), std::string::npos);
  EXPECT_NE(rendered.find("scanned=100"), std::string::npos);
  EXPECT_NE(rendered.find("index/packed"), std::string::npos);
}

TEST(TraceTest, ForcedTraceCarriesServiceAndEngineSpans) {
  QueryService service(MakeDatabase());
  auto session = service.OpenSession();
  ExecOptions options;
  options.force_trace = true;
  const Result<ServiceResult> result =
      session->Execute("RANGE r WITHIN 4.0 OF #walk3", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result.value().trace, nullptr);

  std::map<std::string, int> names;
  const std::vector<obs::TraceSpan> spans = result.value().trace->spans();
  for (const obs::TraceSpan& span : spans) {
    names[span.name]++;
    // Every execution-side span is closed by the time the result returns.
    EXPECT_GE(span.elapsed_ms, 0.0);
  }
  EXPECT_EQ(names["query"], 1);
  EXPECT_EQ(names["parse"], 1);
  EXPECT_EQ(names["admission"], 1);
  EXPECT_EQ(names["execute"], 1);
  EXPECT_GE(names["index shard"], 1);  // one per shard the query touched
  // The root records the returned row count.
  EXPECT_EQ(spans[obs::Trace::kRoot].rows_returned,
            static_cast<int64_t>(result.value().result.matches.size()));
  // Untraced executions carry no trace.
  const Result<ServiceResult> untraced =
      session->Execute("RANGE r WITHIN 4.0 OF #walk3");
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced.value().trace, nullptr);
}

TEST(TraceTest, SamplerTracesOneInN) {
  ServiceOptions options;
  options.trace_sample_every = 4;
  options.result_cache_capacity = 0;  // hits would still trace; keep 1:1
  QueryService service(MakeDatabase(), options);
  int traced = 0;
  for (int i = 0; i < 16; ++i) {
    const Result<ServiceResult> result =
        service.ExecuteText("NEAREST 3 r TO #walk1");
    ASSERT_TRUE(result.ok());
    traced += result.value().trace != nullptr ? 1 : 0;
  }
  EXPECT_EQ(traced, 4);
  EXPECT_EQ(service.stats().traced_queries, 4);
}

// --- EXPLAIN / EXPLAIN ANALYZE ---

TEST(ExplainAnalyzeTest, AnswersBitIdenticalAndTraceAttached) {
  QueryService service(MakeDatabase());
  const std::vector<std::string> texts = {
      "RANGE r WITHIN 4.0 OF #walk3 USING mavg(8)",
      "NEAREST 7 r TO #walk5",
      "PAIRS r WITHIN 1.5",
  };
  for (const std::string& text : texts) {
    const Result<ServiceResult> plain = service.ExecuteText(text);
    ASSERT_TRUE(plain.ok()) << text;
    const Result<ServiceResult> analyzed =
        service.ExecuteText("EXPLAIN ANALYZE " + text);
    ASSERT_TRUE(analyzed.ok()) << text;
    EXPECT_TRUE(analyzed.value().plan.explain);
    EXPECT_TRUE(analyzed.value().plan.analyze);
    ASSERT_NE(analyzed.value().trace, nullptr) << text;
    ExpectSameMatches(plain.value().result, analyzed.value().result);

    // Plain EXPLAIN carries no analyze flag and, by default, no trace.
    const Result<ServiceResult> explained =
        service.ExecuteText("EXPLAIN " + text);
    ASSERT_TRUE(explained.ok()) << text;
    EXPECT_TRUE(explained.value().plan.explain);
    EXPECT_FALSE(explained.value().plan.analyze);
  }
}

TEST(ExplainAnalyzeTest, PerShardEstimatesLineUpWithActuals) {
  QueryService service(MakeDatabase());
  // A cold EXPLAIN (no ANALYZE) must already carry the per-shard rows
  // with the planner-side estimate, so the estimated column of EXPLAIN
  // and the actual columns of EXPLAIN ANALYZE come from the same table.
  const Result<ServiceResult> explained =
      service.ExecuteText("EXPLAIN RANGE r WITHIN 4.0 OF #walk3");
  ASSERT_TRUE(explained.ok());
  ASSERT_FALSE(explained.value().plan.per_shard.empty());
  int64_t total_rows = 0;
  for (const ExecutionStats::ShardStats& shard :
       explained.value().plan.per_shard) {
    EXPECT_GE(shard.estimated_candidates, 0);
    total_rows += shard.rows;
  }
  EXPECT_EQ(total_rows, 120);

  const Result<ServiceResult> analyzed =
      service.ExecuteText("EXPLAIN ANALYZE NEAREST 5 r TO #walk2");
  ASSERT_TRUE(analyzed.ok());
  ASSERT_FALSE(analyzed.value().plan.per_shard.empty());
  int64_t exact_checks = 0;
  for (const ExecutionStats::ShardStats& shard :
       analyzed.value().plan.per_shard) {
    exact_checks += shard.exact_checks;
  }
  EXPECT_GT(exact_checks, 0);
}

// --- slow-query log ---

TEST(SlowQueryLogTest, JsonRoundTripsEveryField) {
  obs::SlowQueryEntry entry;
  entry.unix_ms = 1723000000123;
  entry.fingerprint = "RANGE r WITHIN 4 OF #walk\\3 \"quoted\"\n";
  entry.epoch = 42;
  entry.relation = "r";
  entry.elapsed_ms = 12.5;
  entry.strategy = "index";
  entry.engine = "packed";
  entry.filtered = true;
  entry.cache_hit = false;
  entry.degraded = true;
  entry.shards = 3;
  obs::TraceSpan span;
  span.name = "execute";
  span.parent = 0;
  span.shard = 1;
  span.start_ms = 0.25;
  span.elapsed_ms = 12.0;
  span.rows_scanned = 100;
  span.rows_pruned = 90;
  span.rows_returned = 10;
  span.note = "index/packed";
  entry.spans.push_back(span);

  const std::string line = obs::FormatSlowQueryJson(entry);
  obs::SlowQueryEntry parsed;
  ASSERT_TRUE(obs::ParseSlowQueryJson(line, &parsed)) << line;
  EXPECT_EQ(parsed.unix_ms, entry.unix_ms);
  EXPECT_EQ(parsed.fingerprint, entry.fingerprint);
  EXPECT_EQ(parsed.epoch, entry.epoch);
  EXPECT_EQ(parsed.relation, entry.relation);
  EXPECT_DOUBLE_EQ(parsed.elapsed_ms, entry.elapsed_ms);
  EXPECT_EQ(parsed.strategy, entry.strategy);
  EXPECT_EQ(parsed.engine, entry.engine);
  EXPECT_EQ(parsed.filtered, entry.filtered);
  EXPECT_EQ(parsed.cache_hit, entry.cache_hit);
  EXPECT_EQ(parsed.degraded, entry.degraded);
  EXPECT_EQ(parsed.shards, entry.shards);
  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].name, span.name);
  EXPECT_EQ(parsed.spans[0].parent, span.parent);
  EXPECT_EQ(parsed.spans[0].shard, span.shard);
  EXPECT_DOUBLE_EQ(parsed.spans[0].start_ms, span.start_ms);
  EXPECT_DOUBLE_EQ(parsed.spans[0].elapsed_ms, span.elapsed_ms);
  EXPECT_EQ(parsed.spans[0].rows_scanned, span.rows_scanned);
  EXPECT_EQ(parsed.spans[0].rows_pruned, span.rows_pruned);
  EXPECT_EQ(parsed.spans[0].rows_returned, span.rows_returned);
  EXPECT_EQ(parsed.spans[0].note, span.note);

  obs::SlowQueryEntry bad;
  EXPECT_FALSE(obs::ParseSlowQueryJson("not json", &bad));
  EXPECT_FALSE(obs::ParseSlowQueryJson("{\"unix_ms\":1}", &bad));
}

TEST(SlowQueryLogTest, ThresholdElectsEveryQualifyingQuery) {
  obs::SlowQueryLogOptions options;
  options.path = TempPath("slow_threshold.jsonl");
  options.threshold_ms = 10.0;
  std::remove(options.path.c_str());
  obs::SlowQueryLog log(options);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(log.ShouldLog(9.9));
  }
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(log.ShouldLog(10.0));
    EXPECT_TRUE(log.ShouldLog(250.0));
  }
  // A log whose file did not open elects nothing.
  obs::SlowQueryLogOptions closed;
  closed.threshold_ms = 0.0;
  EXPECT_FALSE(obs::SlowQueryLog(closed).ShouldLog(1e9));
}

TEST(SlowQueryLogTest, ServiceAppendsParseableLinesForSlowQueries) {
  const std::string path = TempPath("slow_service.jsonl");
  std::remove(path.c_str());
  ServiceOptions options;
  options.trace_sample_every = 1;  // trace everything
  options.slow_query_log_path = path;
  options.slow_query_threshold_ms = 0.0;  // every traced query qualifies
  QueryService service(MakeDatabase(), options);
  const int64_t queries = 5;
  for (int64_t i = 0; i < queries; ++i) {
    ASSERT_TRUE(service.ExecuteText("NEAREST 3 r TO #walk1").ok());
  }
  EXPECT_EQ(service.stats().slow_query_log_lines, queries);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int64_t lines = 0;
  while (std::getline(in, line)) {
    obs::SlowQueryEntry entry;
    ASSERT_TRUE(obs::ParseSlowQueryJson(line, &entry)) << line;
    EXPECT_EQ(entry.relation, "r");
    EXPECT_GT(entry.unix_ms, 0);
    EXPECT_FALSE(entry.spans.empty());
    EXPECT_EQ(entry.strategy, "index");
    ++lines;
  }
  EXPECT_EQ(lines, queries);
}

// --- kMetrics wire codec ---

std::vector<net::WireMetric> SampleMetrics() {
  std::vector<net::WireMetric> metrics;
  net::WireMetric a;
  a.name = "simq_queries_total";
  a.type = 0;
  a.value = 17.0;
  metrics.push_back(a);
  net::WireMetric b;
  b.name = "simq_query_latency_ms_p99";
  b.type = 1;
  b.value = 1.75;
  metrics.push_back(b);
  net::WireMetric c;  // empty name is legal on the wire
  c.name = "";
  c.type = 1;
  c.value = -3.0;
  metrics.push_back(c);
  return metrics;
}

TEST(MetricsWireTest, EncodeDecodeRoundTrips) {
  const std::vector<net::WireMetric> metrics = SampleMetrics();
  const std::vector<uint8_t> payload = net::EncodeMetrics(metrics);
  std::vector<net::WireMetric> decoded;
  ASSERT_TRUE(
      net::DecodeMetrics(payload.data(), payload.size(), &decoded).ok());
  ASSERT_EQ(decoded.size(), metrics.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(decoded[i].name, metrics[i].name);
    EXPECT_EQ(decoded[i].type, metrics[i].type);
    EXPECT_EQ(decoded[i].value, metrics[i].value);
  }
  // The empty list is a valid frame too.
  const std::vector<uint8_t> empty = net::EncodeMetrics({});
  ASSERT_TRUE(net::DecodeMetrics(empty.data(), empty.size(), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(MetricsWireTest, EveryTruncationIsRejected) {
  const std::vector<uint8_t> payload = net::EncodeMetrics(SampleMetrics());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<net::WireMetric> decoded;
    const Status status =
        net::DecodeMetrics(payload.data(), cut, &decoded);
    EXPECT_FALSE(status.ok()) << "truncation at " << cut << " accepted";
  }
}

TEST(MetricsWireTest, TrailingGarbageAndHostileCountsAreRejected) {
  std::vector<uint8_t> padded = net::EncodeMetrics(SampleMetrics());
  padded.push_back(0xAB);  // one stray byte past a well-formed payload
  std::vector<net::WireMetric> decoded;
  EXPECT_FALSE(
      net::DecodeMetrics(padded.data(), padded.size(), &decoded).ok());

  // A count prefix promising far more samples than the payload holds must
  // fail up front (no giant reserve, no deep parse).
  const std::vector<uint8_t> huge = {0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(net::DecodeMetrics(huge.data(), huge.size(), &decoded).ok());

  // Garbage bytes never crash the decoder (poisoned-reader contract).
  std::vector<uint8_t> garbage(64);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  (void)net::DecodeMetrics(garbage.data(), garbage.size(), &decoded);
}

// --- service counters through the registry ---

TEST(ServiceMetricsTest, CountersMatchServiceStatsExactly) {
  QueryService service(MakeDatabase());
  auto session = service.OpenSession();
  const Result<int64_t> statement =
      session->Prepare("NEAREST 3 r TO #walk1");
  ASSERT_TRUE(statement.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session->ExecutePrepared(statement.value()).ok());
  }
  ASSERT_TRUE(service.ExecuteText("RANGE r WITHIN 2.0 OF #walk0").ok());
  ASSERT_TRUE(service.ExecuteText("RANGE r WITHIN 2.0 OF #walk0").ok());
  TimeSeries series;
  series.id = "extra";
  series.values.assign(64, 0.5);
  ASSERT_TRUE(service.Insert("r", series).ok());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 6);
  EXPECT_EQ(stats.prepared_executions, 4);
  // Prepare + two one-shots parse text; executing prepared does not.
  EXPECT_EQ(stats.cold_parses, 3);
  // The fixture mutates the Database before the service takes ownership,
  // so only the Insert counts as a service mutation.
  EXPECT_EQ(stats.mutations, 1);
  EXPECT_EQ(stats.sessions_opened, 1);
  EXPECT_EQ(stats.active_sessions, 1);
  // Repeats hit the cache: 3 of the 4 prepared runs + the repeated RANGE.
  EXPECT_EQ(stats.cache.hits, 4);

  // The registry is the source of truth behind those numbers.
  obs::MetricRegistry* registry = service.metrics_registry();
  EXPECT_EQ(registry->GetCounter("simq_queries_total")->Value(), 6);
  EXPECT_EQ(
      registry->GetCounter("simq_prepared_executions_total")->Value(), 4);
  EXPECT_EQ(registry->GetCounter("simq_cold_parses_total")->Value(), 3);
  EXPECT_EQ(registry->GetCounter("simq_mutations_total")->Value(), 1);
  EXPECT_EQ(registry->GetGauge("simq_cache_hits")->Value(), 4);
  // Latency percentiles come from the histogram now.
  const obs::Histogram::Snapshot latency =
      registry->GetHistogram("simq_query_latency_ms")->snapshot();
  EXPECT_EQ(latency.count, 6);
  EXPECT_GT(stats.latency_p99_ms, 0.0);

  // Two services never share a default registry.
  QueryService other(MakeDatabase());
  EXPECT_EQ(
      other.metrics_registry()->GetCounter("simq_queries_total")->Value(),
      0);
}

TEST(ServiceMetricsTest, InjectedRegistryIsShared) {
  obs::MetricRegistry shared;
  ServiceOptions options;
  options.metrics_registry = &shared;
  QueryService service(MakeDatabase(), options);
  ASSERT_TRUE(service.ExecuteText("NEAREST 1 r TO #walk1").ok());
  EXPECT_EQ(service.metrics_registry(), &shared);
  EXPECT_EQ(shared.GetCounter("simq_queries_total")->Value(), 1);
}

TEST(ServiceMetricsTest, ConcurrentQueriesKeepCountersExact) {
  ServiceOptions options;
  options.result_cache_capacity = 0;
  QueryService service(MakeDatabase(), options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &failures] {
      auto session = service.OpenSession();
      for (int i = 0; i < kPerThread; ++i) {
        if (!session->Execute("NEAREST 2 r TO #walk4").ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, kThreads * kPerThread);
  EXPECT_EQ(stats.sessions_opened, kThreads);
  EXPECT_EQ(stats.active_sessions, 0);
}

// --- snapshot accumulation (the statements table's rollup primitives) ---

TEST(MetricsTest, SnapshotObserveAndMergeAddBucketForBucket) {
  using H = obs::Histogram;
  H::Snapshot a;
  a.Observe(1.0);
  a.Observe(1.0);
  a.Observe(1.0);
  H::Snapshot b;
  b.Observe(10.0);
  a.Merge(b);
  EXPECT_EQ(a.count, 4);
  EXPECT_DOUBLE_EQ(a.sum_ms, 13.0);
  EXPECT_EQ(a.counts[H::BucketIndex(1.0)], 3);
  EXPECT_EQ(a.counts[H::BucketIndex(10.0)], 1);

  // Merging a live histogram's snapshot lands in the same buckets: every
  // histogram in the process shares the fixed exponential bounds.
  H live;
  live.Observe(1.0);
  live.Observe(10.0);
  a.Merge(live.snapshot());
  EXPECT_EQ(a.count, 6);
  EXPECT_EQ(a.counts[H::BucketIndex(1.0)], 4);
  EXPECT_EQ(a.counts[H::BucketIndex(10.0)], 2);
  // The merged distribution is unchanged in shape, so percentiles stay
  // inside the same buckets.
  EXPECT_EQ(H::BucketIndex(a.Percentile(50.0)), H::BucketIndex(1.0));
  EXPECT_EQ(H::BucketIndex(a.Percentile(100.0)), H::BucketIndex(10.0));
}

TEST(MetricsTest, PercentileInterpolatesLinearlyAtBucketBoundaries) {
  using H = obs::Histogram;
  H::Snapshot empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(50.0), 0.0);

  // Four identical samples pin one bucket, making the interpolation
  // arithmetic exact: rank r of n samples in a bucket (lo, hi] reads
  // back lo + (r/n)(hi - lo).
  H::Snapshot snap;
  for (int i = 0; i < 4; ++i) {
    snap.Observe(3.0);
  }
  const int bucket = H::BucketIndex(3.0);
  const double lo = H::UpperBound(bucket - 1);
  const double hi = H::UpperBound(bucket);
  ASSERT_LT(lo, 3.0);
  ASSERT_LE(3.0, hi);
  EXPECT_DOUBLE_EQ(snap.Percentile(100.0), hi);           // rank 4: bucket top
  EXPECT_DOUBLE_EQ(snap.Percentile(75.0), lo + 0.75 * (hi - lo));
  EXPECT_DOUBLE_EQ(snap.Percentile(50.0), lo + 0.5 * (hi - lo));
  // Ranks clamp at 1, so every percentile at or below 1/n reads the
  // same point -- and none ever reads below the bucket's first rank.
  EXPECT_DOUBLE_EQ(snap.Percentile(25.0), lo + 0.25 * (hi - lo));
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), lo + 0.25 * (hi - lo));
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), lo + 0.25 * (hi - lo));

  // Overflow bucket: the report is one band above the top finite bound.
  H::Snapshot overflow;
  overflow.Observe(1e300);
  const double top = H::UpperBound(H::kBuckets - 1);
  EXPECT_DOUBLE_EQ(overflow.Percentile(99.0), top * 2.0);
}

// --- recompaction tracing ---

TEST(TraceTest, RecompactionPhasesVisibleInRenderedTree) {
  QueryService service(MakeDatabase());
  EXPECT_EQ(service.last_recompaction_trace(), nullptr);

  TimeSeries extra;
  extra.id = "extra";
  extra.values.assign(64, 0.5);
  ASSERT_TRUE(service.Insert("r", extra).ok());
  ASSERT_TRUE(service.Recompact("r").ok());

  const std::shared_ptr<obs::Trace> trace =
      service.last_recompaction_trace();
  ASSERT_NE(trace, nullptr);
  const std::vector<obs::TraceSpan> spans = trace->spans();
  bool build = false;
  bool publish = false;
  for (const obs::TraceSpan& span : spans) {
    if (span.name == "recompact.build") {
      build = true;
      EXPECT_GE(span.elapsed_ms, 0.0);
    }
    if (span.name == "recompact.publish") {
      publish = true;
    }
  }
  EXPECT_TRUE(build);
  EXPECT_TRUE(publish);

  const std::string tree = obs::RenderTraceTree(spans);
  EXPECT_NE(tree.find("recompact.build"), std::string::npos) << tree;
  EXPECT_NE(tree.find("recompact.publish"), std::string::npos) << tree;

  // A second recompaction replaces the trace, not appends to it.
  ASSERT_TRUE(service.Recompact("r").ok());
  const std::shared_ptr<obs::Trace> second =
      service.last_recompaction_trace();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, trace);
}

}  // namespace
}  // namespace simq
