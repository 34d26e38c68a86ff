// Statements-table tests: per-fingerprint aggregation across every
// outcome kind, LRU capacity eviction, deterministic Top() ordering, the
// kStatements wire codec's hostile-input matrix, resource accounting
// through the service, and the acceptance contract that the shell
// surface (Top), the wire frame, and the HTTP JSON body all report
// bit-identical aggregates from one snapshot.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/resource_usage.h"
#include "obs/slow_query_log.h"
#include "obs/statements.h"
#include "service/query_service.h"
#include "workload/generators.h"

namespace simq {
namespace {

Database MakeDatabase(int count = 120, int length = 64, uint64_t seed = 7) {
  Database db;
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(
      db.BulkLoad("r", workload::RandomWalkSeries(count, length, seed)).ok());
  return db;
}

obs::ResourceUsage MakeUsage(int64_t base, int64_t parallelism) {
  obs::ResourceUsage usage;
  usage.rows_scanned = base;
  usage.candidates = base / 2;
  usage.exact_checks = base / 4;
  usage.delta_rows_merged = base / 8;
  usage.result_bytes = base * 10;
  usage.cpu_ns = base * 100;
  usage.pool_tasks = base / 16;
  usage.peak_parallelism = parallelism;
  return usage;
}

// --- StatementsTable unit ---

TEST(StatementsTableTest, AggregatesEveryOutcomeAndUsage) {
  obs::StatementsTable table(8);
  EXPECT_TRUE(table.enabled());
  const obs::ResourceUsage a = MakeUsage(64, 2);
  const obs::ResourceUsage b = MakeUsage(16, 4);
  table.Record(1, "q1", Status::Ok(), false, 2.0, a);
  table.Record(1, "q1", Status::Ok(), true, 0.5, b);
  table.Record(1, "q1", Status::Timeout("t"), false, 3.0, {});
  table.Record(1, "q1", Status::Cancelled("c"), false, 0.1, {});
  table.Record(1, "q1", Status::Overloaded("o"), false, 0.1, {});
  table.Record(1, "q1", Status::Internal("i"), false, 0.1, {});

  const std::vector<obs::StatementStats> rows = table.Top(0);
  ASSERT_EQ(rows.size(), 1u);
  const obs::StatementStats& row = rows[0];
  EXPECT_EQ(row.fingerprint, 1u);
  EXPECT_EQ(row.text, "q1");
  EXPECT_EQ(row.calls, 6);
  EXPECT_EQ(row.errors, 1);
  EXPECT_EQ(row.timeouts, 1);
  EXPECT_EQ(row.cancellations, 1);
  EXPECT_EQ(row.sheds, 1);
  EXPECT_EQ(row.cache_hits, 1);
  EXPECT_DOUBLE_EQ(row.total_ms, 5.8);
  EXPECT_DOUBLE_EQ(row.max_ms, 3.0);
  EXPECT_EQ(row.latency.count, 6);
  // Sum everywhere, max on peak_parallelism.
  EXPECT_EQ(row.total.rows_scanned, a.rows_scanned + b.rows_scanned);
  EXPECT_EQ(row.total.cpu_ns, a.cpu_ns + b.cpu_ns);
  EXPECT_EQ(row.total.peak_parallelism, 4);
  // Component-wise max.
  EXPECT_EQ(row.max.rows_scanned, a.rows_scanned);
  EXPECT_EQ(row.max.result_bytes, a.result_bytes);
  EXPECT_EQ(row.max.peak_parallelism, 4);
}

TEST(StatementsTableTest, EvictsLeastRecentlyUpdated) {
  obs::StatementsTable table(2);
  table.Record(1, "q1", Status::Ok(), false, 1.0, {});
  table.Record(2, "q2", Status::Ok(), false, 1.0, {});
  // Touch q1 so q2 becomes the coldest; q3 then evicts q2.
  table.Record(1, "q1", Status::Ok(), false, 1.0, {});
  table.Record(3, "q3", Status::Ok(), false, 1.0, {});
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 1);
  const std::vector<obs::StatementStats> rows = table.Top(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].fingerprint, 1u);  // 2.0ms total beats 1.0ms
  EXPECT_EQ(rows[1].fingerprint, 3u);
  // A re-recorded fingerprint revives with its history intact.
  table.Record(2, "q2", Status::Ok(), false, 1.0, {});
  EXPECT_EQ(table.evictions(), 2);
  for (const obs::StatementStats& row : table.Top(0)) {
    if (row.fingerprint == 2) {
      EXPECT_EQ(row.calls, 1);  // the evicted history is gone
    }
  }
}

TEST(StatementsTableTest, TopOrderingIsDeterministic) {
  obs::StatementsTable table(8);
  table.Record(10, "a", Status::Ok(), false, 5.0, {});
  table.Record(20, "b", Status::Ok(), false, 2.5, {});
  table.Record(20, "b", Status::Ok(), false, 2.5, {});
  table.Record(30, "c", Status::Ok(), false, 9.0, {});
  // Same total and calls as fingerprint 10: the smaller fingerprint wins.
  table.Record(40, "d", Status::Ok(), false, 5.0, {});

  const std::vector<obs::StatementStats> all = table.Top(0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].fingerprint, 30u);  // 9.0ms
  EXPECT_EQ(all[1].fingerprint, 20u);  // 5.0ms total, 2 calls
  EXPECT_EQ(all[2].fingerprint, 10u);  // 5.0ms, 1 call, smaller fp
  EXPECT_EQ(all[3].fingerprint, 40u);

  const std::vector<obs::StatementStats> top2 = table.Top(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].fingerprint, 30u);
  EXPECT_EQ(top2[1].fingerprint, 20u);
}

TEST(StatementsTableTest, DisabledTextCapAndClear) {
  obs::StatementsTable disabled(0);
  EXPECT_FALSE(disabled.enabled());
  disabled.Record(1, "q", Status::Ok(), false, 1.0, {});
  EXPECT_EQ(disabled.size(), 0u);
  EXPECT_TRUE(disabled.Top(0).empty());

  obs::StatementsTable table(4);
  const std::string long_text(obs::kStatementTextCap + 100, 'x');
  table.Record(1, long_text, Status::Ok(), false, 1.0, {});
  const std::vector<obs::StatementStats> rows = table.Top(0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].text.size(), obs::kStatementTextCap);

  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Top(0).empty());
}

// The statements JSON and the slow-query log share one string escaper: a
// text that needs every kind of escape renders to the same bytes on both,
// and the slow log's parser reads it back unchanged.
TEST(StatementsTableTest, JsonEscapesTextLikeTheSlowQueryLog) {
  const std::string text =
      std::string("RANGE \"r\" \\ a\nb\tc\rd") + '\x01' + "e";
  const std::string escaped = "\"RANGE \\\"r\\\" \\\\ a\\nb\\tc\\rd\\u0001e\"";
  obs::StatementStats row;
  row.fingerprint = 1;
  row.text = text;
  const std::string json = obs::RenderStatementsJson({row});
  EXPECT_NE(json.find("\"text\":" + escaped + ","), std::string::npos)
      << json;
  obs::SlowQueryEntry entry;
  entry.fingerprint = text;
  entry.elapsed_ms = 1.0;
  const std::string line = obs::FormatSlowQueryJson(entry);
  EXPECT_NE(line.find("\"fingerprint\":" + escaped + ","), std::string::npos)
      << line;
  obs::SlowQueryEntry parsed;
  ASSERT_TRUE(obs::ParseSlowQueryJson(line, &parsed)) << line;
  EXPECT_EQ(parsed.fingerprint, text);
}

TEST(StatementsTableTest, ConcurrentRecordsStayExact) {
  obs::StatementsTable table(16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      for (int i = 0; i < kPerThread; ++i) {
        table.Record(static_cast<uint64_t>(t % 4), "q", Status::Ok(),
                     false, 0.5, MakeUsage(1, 1));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  int64_t calls = 0;
  for (const obs::StatementStats& row : table.Top(0)) {
    calls += row.calls;
    EXPECT_EQ(row.total.rows_scanned, row.calls);  // 1 per record
  }
  EXPECT_EQ(calls, kThreads * kPerThread);
}

// --- kStatements wire codec ---

std::vector<net::WireStatementRow> SampleRows() {
  std::vector<net::WireStatementRow> rows;
  net::WireStatementRow a;
  a.fingerprint = 0x0123456789abcdefULL;
  a.text = "NEAREST 3 r TO #walk1";
  a.calls = 17;
  a.errors = 1;
  a.timeouts = 2;
  a.cancellations = 3;
  a.sheds = 4;
  a.cache_hits = 5;
  a.total_ms = 0.1 + 0.2;  // not exactly representable: bit-identity test
  a.max_ms = 1e-17;
  a.p50_ms = 3.14159265358979;
  a.p95_ms = 12.5;
  a.p99_ms = 100.0;
  a.total = MakeUsage(1000, 8);
  a.max = MakeUsage(100, 8);
  rows.push_back(a);
  net::WireStatementRow b;  // empty text is legal on the wire
  b.fingerprint = 0;
  b.text = "";
  rows.push_back(b);
  return rows;
}

TEST(StatementsWireTest, EncodeDecodeRoundTripsBitExact) {
  const std::vector<net::WireStatementRow> rows = SampleRows();
  const std::vector<uint8_t> payload = net::EncodeStatements(rows);
  std::vector<net::WireStatementRow> decoded;
  ASSERT_TRUE(
      net::DecodeStatements(payload.data(), payload.size(), &decoded).ok());
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(decoded[i].fingerprint, rows[i].fingerprint);
    EXPECT_EQ(decoded[i].text, rows[i].text);
    EXPECT_EQ(decoded[i].calls, rows[i].calls);
    EXPECT_EQ(decoded[i].errors, rows[i].errors);
    EXPECT_EQ(decoded[i].timeouts, rows[i].timeouts);
    EXPECT_EQ(decoded[i].cancellations, rows[i].cancellations);
    EXPECT_EQ(decoded[i].sheds, rows[i].sheds);
    EXPECT_EQ(decoded[i].cache_hits, rows[i].cache_hits);
    // Doubles ride the wire as raw bits: EXPECT_EQ, not NEAR.
    EXPECT_EQ(decoded[i].total_ms, rows[i].total_ms);
    EXPECT_EQ(decoded[i].max_ms, rows[i].max_ms);
    EXPECT_EQ(decoded[i].p50_ms, rows[i].p50_ms);
    EXPECT_EQ(decoded[i].p95_ms, rows[i].p95_ms);
    EXPECT_EQ(decoded[i].p99_ms, rows[i].p99_ms);
    EXPECT_EQ(decoded[i].total.rows_scanned, rows[i].total.rows_scanned);
    EXPECT_EQ(decoded[i].total.cpu_ns, rows[i].total.cpu_ns);
    EXPECT_EQ(decoded[i].total.peak_parallelism,
              rows[i].total.peak_parallelism);
    EXPECT_EQ(decoded[i].max.result_bytes, rows[i].max.result_bytes);
    EXPECT_EQ(decoded[i].max.pool_tasks, rows[i].max.pool_tasks);
  }
  // The empty table is a valid frame.
  const std::vector<uint8_t> empty = net::EncodeStatements({});
  ASSERT_TRUE(
      net::DecodeStatements(empty.data(), empty.size(), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(StatementsWireTest, EveryTruncationIsRejected) {
  const std::vector<uint8_t> payload = net::EncodeStatements(SampleRows());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<net::WireStatementRow> decoded;
    EXPECT_FALSE(net::DecodeStatements(payload.data(), cut, &decoded).ok())
        << "truncation at " << cut << " accepted";
  }
}

TEST(StatementsWireTest, HostileCountsAndGarbageAreRejected) {
  std::vector<uint8_t> padded = net::EncodeStatements(SampleRows());
  padded.push_back(0xAB);  // stray byte past a well-formed payload
  std::vector<net::WireStatementRow> decoded;
  EXPECT_FALSE(
      net::DecodeStatements(padded.data(), padded.size(), &decoded).ok());

  // A count promising far more rows than the payload holds must fail up
  // front (no giant reserve, no deep parse).
  const std::vector<uint8_t> huge = {0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(
      net::DecodeStatements(huge.data(), huge.size(), &decoded).ok());

  // Garbage never crashes the decoder (poisoned-reader contract).
  std::vector<uint8_t> garbage(256);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  (void)net::DecodeStatements(garbage.data(), garbage.size(), &decoded);

  // The request codec has the same contract.
  net::StatementsRequest request;
  EXPECT_FALSE(net::DecodeStatementsRequest(garbage.data(), 3, &request).ok());
  const std::vector<uint8_t> req = net::EncodeStatementsRequest({});
  for (size_t cut = 0; cut < req.size(); ++cut) {
    EXPECT_FALSE(net::DecodeStatementsRequest(req.data(), cut, &request).ok());
  }
}

// --- resource accounting through the service ---

TEST(ResourceAccountingTest, UsageRidesOnServiceResults) {
  QueryService service(MakeDatabase());
  auto session = service.OpenSession();
  const Result<ServiceResult> cold =
      session->Execute("RANGE r WITHIN 4.0 OF #walk3");
  ASSERT_TRUE(cold.ok());
  const obs::ResourceUsage& usage = cold.value().usage;
  EXPECT_GT(usage.rows_scanned, 0);
  EXPECT_GT(usage.exact_checks, 0);
  EXPECT_GT(usage.result_bytes, 0);
  EXPECT_GE(usage.peak_parallelism, 1);
  EXPECT_GT(usage.cpu_ns, 0);  // the exact kernel burns real thread CPU

  // A cache hit re-serves the stored answer: engine counters are zero,
  // but the result bytes are still accounted.
  const Result<ServiceResult> hit =
      session->Execute("RANGE r WITHIN 4.0 OF #walk3");
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit.value().plan.cache_hit);
  EXPECT_EQ(hit.value().usage.rows_scanned, 0);
  EXPECT_EQ(hit.value().usage.exact_checks, 0);
  EXPECT_GT(hit.value().usage.result_bytes, 0);

  // The session rolls its executions up.
  const obs::ResourceUsage cumulative = session->cumulative_usage();
  EXPECT_EQ(cumulative.rows_scanned, usage.rows_scanned);
  EXPECT_EQ(cumulative.result_bytes,
            usage.result_bytes + hit.value().usage.result_bytes);
  EXPECT_GE(cumulative.cpu_ns, usage.cpu_ns);
}

TEST(ResourceAccountingTest, DisabledAccountingZeroesCpuOnly) {
  ServiceOptions options;
  options.enable_resource_accounting = false;
  QueryService service(MakeDatabase(), options);
  const Result<ServiceResult> result =
      service.ExecuteText("NEAREST 3 r TO #walk1");
  ASSERT_TRUE(result.ok());
  // Engine-effort counters still flow from ExecutionStats; only the CPU
  // metering is off.
  EXPECT_GT(result.value().usage.rows_scanned, 0);
  EXPECT_EQ(result.value().usage.cpu_ns, 0);
  EXPECT_EQ(result.value().usage.pool_tasks, 0);
}

TEST(StatementsServiceTest, RecordsCallsHitsAndFailures) {
  ServiceOptions options;
  options.statements_capacity = 16;
  QueryService service(MakeDatabase(), options);
  auto session = service.OpenSession();

  Result<ServiceResult> first = session->Execute("NEAREST 3 r TO #walk1");
  ASSERT_TRUE(first.ok());
  const uint64_t fp = first.value().plan.fingerprint;
  ASSERT_NE(fp, 0u);
  ASSERT_TRUE(session->Execute("NEAREST 3 r TO #walk1").ok());  // cache hit
  ASSERT_TRUE(session->Execute("NEAREST 3 r TO #walk1").ok());  // cache hit
  ASSERT_TRUE(session->Execute("RANGE r WITHIN 2.0 OF #walk0").ok());

  EXPECT_EQ(service.statements()->size(), 2u);
  bool found = false;
  for (const obs::StatementStats& row : service.statements()->Top(0)) {
    if (row.fingerprint != fp) {
      continue;
    }
    found = true;
    EXPECT_EQ(row.calls, 3);
    EXPECT_EQ(row.cache_hits, 2);
    EXPECT_EQ(row.errors + row.timeouts + row.cancellations + row.sheds, 0);
    EXPECT_EQ(row.latency.count, 3);
    EXPECT_GT(row.total_ms, 0.0);
    EXPECT_GT(row.total.rows_scanned, 0);
    // The text sample is the canonical key ("N|<rel>|k=..." here).
    EXPECT_EQ(row.text.rfind("N|", 0), 0u);
  }
  EXPECT_TRUE(found);

  // Distinct parameters are distinct statement shapes (the fingerprint
  // hashes the canonical AST, not the raw text).
  ASSERT_TRUE(session->Execute("NEAREST 5 r TO #walk1").ok());
  EXPECT_EQ(service.statements()->size(), 3u);
}

TEST(StatementsServiceTest, CapacityZeroDisablesTracking) {
  ServiceOptions options;
  options.statements_capacity = 0;
  QueryService service(MakeDatabase(), options);
  ASSERT_TRUE(service.ExecuteText("NEAREST 3 r TO #walk1").ok());
  EXPECT_EQ(service.statements()->size(), 0u);
  EXPECT_FALSE(service.statements()->enabled());
}

// --- the three surfaces agree bit-for-bit ---

struct TestServer {
  TestServer() : service(MakeDatabase(64, 32)) {
    server = std::make_unique<net::NetServer>(&service);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    loop = std::thread([this] { server->Run(); });
  }
  ~TestServer() {
    server->Shutdown();
    loop.join();
  }
  QueryService service;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;
};

// Extracts the value of `"key":` within `json` starting at `from`.
double JsonNumber(const std::string& json, const std::string& key,
                  size_t from = 0) {
  const size_t at = json.find("\"" + key + "\":", from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) {
    return -1.0;
  }
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

TEST(StatementsSurfacesTest, WireShellAndJsonAgreeBitIdentical) {
  TestServer harness;
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  net::ExecRequest exec;
  exec.text = "NEAREST 3 r TO #walk1";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Exec(exec).ok());
  }
  exec.text = "RANGE r WITHIN 2.0 OF #walk0";
  ASSERT_TRUE(client.Exec(exec).ok());

  // No executions between the three reads: one logical snapshot.
  const std::vector<obs::StatementStats> shell =
      harness.service.statements()->Top(0);
  const Result<std::vector<net::WireStatementRow>> wire =
      client.Statements(0);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  const std::string json = obs::RenderStatementsJson(shell);

  ASSERT_EQ(shell.size(), 2u);
  ASSERT_EQ(wire.value().size(), shell.size());
  size_t cursor = 0;
  for (size_t i = 0; i < shell.size(); ++i) {
    const obs::StatementStats& s = shell[i];
    const net::WireStatementRow& w = wire.value()[i];
    EXPECT_EQ(w.fingerprint, s.fingerprint);
    EXPECT_EQ(w.text, s.text);
    EXPECT_EQ(w.calls, static_cast<uint64_t>(s.calls));
    EXPECT_EQ(w.cache_hits, static_cast<uint64_t>(s.cache_hits));
    EXPECT_EQ(w.total_ms, s.total_ms);  // bit-identical
    EXPECT_EQ(w.max_ms, s.max_ms);
    EXPECT_EQ(w.p50_ms, s.latency.Percentile(50.0));
    EXPECT_EQ(w.p95_ms, s.latency.Percentile(95.0));
    EXPECT_EQ(w.p99_ms, s.latency.Percentile(99.0));
    EXPECT_EQ(w.total.rows_scanned, s.total.rows_scanned);
    EXPECT_EQ(w.total.cpu_ns, s.total.cpu_ns);
    EXPECT_EQ(w.max.exact_checks, s.max.exact_checks);

    // The JSON body renders the same row in the same order; shortest
    // round-trip doubles parse back to the exact wire values.
    char fp[32];
    std::snprintf(fp, sizeof(fp), "\"fingerprint\":\"%016llx\"",
                  static_cast<unsigned long long>(s.fingerprint));
    const size_t at = json.find(fp, cursor);
    ASSERT_NE(at, std::string::npos) << fp;
    cursor = at;
    EXPECT_EQ(JsonNumber(json, "total_ms", cursor), w.total_ms);
    EXPECT_EQ(JsonNumber(json, "max_ms", cursor), w.max_ms);
    EXPECT_EQ(JsonNumber(json, "p50_ms", cursor), w.p50_ms);
    EXPECT_EQ(JsonNumber(json, "p99_ms", cursor), w.p99_ms);
    EXPECT_EQ(static_cast<int64_t>(JsonNumber(json, "calls", cursor)),
              s.calls);
    EXPECT_EQ(static_cast<int64_t>(JsonNumber(json, "cpu_ns", cursor)),
              s.total.cpu_ns);
  }

  // top_n truncates identically on every surface.
  const Result<std::vector<net::WireStatementRow>> top1 =
      client.Statements(1);
  ASSERT_TRUE(top1.ok());
  ASSERT_EQ(top1.value().size(), 1u);
  EXPECT_EQ(top1.value()[0].fingerprint,
            harness.service.statements()->Top(1)[0].fingerprint);
  ASSERT_TRUE(client.Goodbye().ok());
}

}  // namespace
}  // namespace simq
