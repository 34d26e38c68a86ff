#include "service/query_service.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/parser.h"
#include "obs/slow_query_log.h"
#include "obs/statements.h"
#include "service/fingerprint.h"
#include "service/result_cache.h"
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

// Bit-exact equality of answer sets: ids, names, and distances.
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

TEST(QueryServiceTest, ColdCachedAndPreparedAnswersBitIdentical) {
  QueryService service(MakeDatabase());
  std::string literal = "[";
  for (int i = 0; i < 64; ++i) {
    literal += (i > 0 ? "," : "") + std::to_string((i * 7) % 5);
  }
  literal += "]";
  const std::vector<std::string> texts = {
      "RANGE r WITHIN 4.0 OF #walk3 USING mavg(8)",
      "NEAREST 7 r TO #walk5",
      "PAIRS r WITHIN 1.5",
      "RANGE r WITHIN 6.0 OF " + literal + " VIA SCAN",
  };
  auto session = service.OpenSession();
  for (const std::string& text : texts) {
    const Result<ServiceResult> cold = service.ExecuteText(text);
    ASSERT_TRUE(cold.ok()) << text << ": " << cold.status().ToString();
    EXPECT_FALSE(cold.value().plan.cache_hit) << text;

    const Result<ServiceResult> cached = service.ExecuteText(text);
    ASSERT_TRUE(cached.ok()) << text;
    EXPECT_TRUE(cached.value().plan.cache_hit) << text;
    ExpectSameMatches(cold.value().result, cached.value().result);

    const Result<int64_t> statement = session->Prepare(text);
    ASSERT_TRUE(statement.ok()) << text << statement.status().ToString();
    const Result<ServiceResult> prepared =
        session->ExecutePrepared(statement.value());
    ASSERT_TRUE(prepared.ok()) << text;
    EXPECT_TRUE(prepared.value().plan.prepared);
    ExpectSameMatches(cold.value().result, prepared.value().result);
  }
}

TEST(QueryServiceTest, PreparedParametersBindEpsilonKAndSeries) {
  QueryService service(MakeDatabase());
  auto session = service.OpenSession();

  const Result<int64_t> range =
      session->Prepare("RANGE r WITHIN 1.0 OF #walk3");
  ASSERT_TRUE(range.ok());
  BindParams params;
  params.epsilon = 5.0;
  const Result<ServiceResult> bound =
      session->ExecutePrepared(range.value(), params);
  ASSERT_TRUE(bound.ok());
  const Result<ServiceResult> cold =
      service.ExecuteText("RANGE r WITHIN 5.0 OF #walk3");
  ASSERT_TRUE(cold.ok());
  ExpectSameMatches(cold.value().result, bound.value().result);

  const Result<int64_t> nearest = session->Prepare("NEAREST 1 r TO #walk5");
  ASSERT_TRUE(nearest.ok());
  BindParams k_params;
  k_params.k = 9;
  const Result<ServiceResult> k_bound =
      session->ExecutePrepared(nearest.value(), k_params);
  ASSERT_TRUE(k_bound.ok());
  EXPECT_EQ(k_bound.value().result.matches.size(), 9u);

  BindParams series_params;
  series_params.series.emplace();
  series_params.series->name = "walk11";
  const Result<ServiceResult> series_bound =
      session->ExecutePrepared(range.value(), series_params);
  ASSERT_TRUE(series_bound.ok());
  const Result<ServiceResult> series_cold =
      service.ExecuteText("RANGE r WITHIN 1.0 OF #walk11");
  ASSERT_TRUE(series_cold.ok());
  ExpectSameMatches(series_cold.value().result, series_bound.value().result);

  // Parameter kinds are checked against the statement shape.
  BindParams bad_k;
  bad_k.k = 3;
  EXPECT_EQ(session->ExecutePrepared(range.value(), bad_k).status().code(),
            StatusCode::kInvalidArgument);
  BindParams bad_eps;
  bad_eps.epsilon = 1.0;
  EXPECT_EQ(
      session->ExecutePrepared(nearest.value(), bad_eps).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, MutationInvalidatesCacheAndBumpsEpoch) {
  QueryService service(MakeDatabase(50, 32, 3));
  const std::string text = "RANGE r WITHIN 0.5 OF #walk0";
  const Result<ServiceResult> before = service.ExecuteText(text);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(service.ExecuteText(text).value().plan.cache_hit);
  // The epoch rolls up the per-shard mutation counters, so the pre-loaded
  // relation already has a nonzero version; what matters is that every
  // mutation advances it.
  const uint64_t epoch0 = before.value().plan.relation_epoch;
  EXPECT_EQ(epoch0, service.RelationEpoch("r"));
  EXPECT_GT(epoch0, 0u);

  // Insert an exact duplicate of walk0's values: it lands at distance 0
  // and MUST appear in the next answer -- a stale cache would miss it.
  TimeSeries clone;
  clone.id = "clone_of_walk0";
  clone.values =
      service.database_unlocked().GetRelation("r")->record(0).raw;
  const Result<int64_t> inserted = service.Insert("r", clone);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(service.RelationEpoch("r"), epoch0 + 1);

  const Result<ServiceResult> after = service.ExecuteText(text);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().plan.cache_hit);
  EXPECT_EQ(after.value().plan.relation_epoch, epoch0 + 1);
  EXPECT_EQ(after.value().result.matches.size(),
            before.value().result.matches.size() + 1);
  bool found = false;
  for (const Match& match : after.value().result.matches) {
    found = found || match.name == "clone_of_walk0";
  }
  EXPECT_TRUE(found);
}

TEST(QueryServiceTest, ExplainReportsStrategyEngineAndCacheStatus) {
  QueryService service(MakeDatabase());
  const Result<ServiceResult> indexed =
      service.ExecuteText("EXPLAIN RANGE r WITHIN 2.0 OF #walk1");
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed.value().plan.strategy, "index");
  EXPECT_EQ(indexed.value().plan.engine, "packed");
  EXPECT_FALSE(indexed.value().plan.cache_hit);

  const Result<ServiceResult> scanned =
      service.ExecuteText("EXPLAIN RANGE r WITHIN 2.0 OF #walk1 VIA SCAN");
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned.value().plan.strategy, "scan");
  EXPECT_EQ(scanned.value().plan.engine, "columnar");

  // EXPLAIN is invisible to the fingerprint: it shares the cache entry of
  // the plain query.
  const Result<ServiceResult> plain =
      service.ExecuteText("RANGE r WITHIN 2.0 OF #walk1");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain.value().plan.cache_hit);
}

TEST(QueryServiceTest, FilterEngineToggleKeepsExplainPlansTruthful) {
  QueryService service(MakeDatabase());
  const std::string text = "EXPLAIN RANGE r WITHIN 2.0 OF #walk1 VIA SCAN";
  const Result<ServiceResult> exact = service.ExecuteText(text);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().plan.filter, "none");
  // Toggling the engine-wide default must not replay the exact-engine
  // cache entry for default-mode queries: the effective engine is part
  // of the cache key, so the filtered plan (and its pruning stats) is
  // reported from a real filtered execution.
  service.mutable_database_unlocked().set_filter_engine(
      FilterEngine::kQuantized);
  const Result<ServiceResult> filtered = service.ExecuteText(text);
  ASSERT_TRUE(filtered.ok());
  EXPECT_FALSE(filtered.value().plan.cache_hit);
  EXPECT_EQ(filtered.value().plan.filter, "quantized");
  EXPECT_GT(filtered.value().plan.filter_scanned, 0);
  ExpectSameMatches(exact.value().result, filtered.value().result);
  // Flipping back revives the original entry (same key as before).
  service.mutable_database_unlocked().set_filter_engine(
      FilterEngine::kExact);
  const Result<ServiceResult> back = service.ExecuteText(text);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().plan.cache_hit);
  EXPECT_EQ(back.value().plan.filter, "none");
  // An explicit MODE FILTERED query reports its own plan either way.
  const Result<ServiceResult> explicit_filtered = service.ExecuteText(
      "EXPLAIN RANGE r WITHIN 2.0 OF #walk1 VIA SCAN MODE FILTERED");
  ASSERT_TRUE(explicit_filtered.ok());
  EXPECT_EQ(explicit_filtered.value().plan.filter, "quantized");
}

TEST(QueryServiceTest, ShardedServiceAnswersMatchUnshardedAndRollUpEpochs) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(90, 32, 19);
  const auto build = [&](int shards) {
    ShardingOptions sharding;
    sharding.num_shards = shards;
    Database db(FeatureConfig(), RTree::Options(), sharding);
    EXPECT_TRUE(db.CreateRelation("r").ok());
    EXPECT_TRUE(db.BulkLoad("r", series).ok());
    return db;
  };
  QueryService unsharded(build(1));
  QueryService sharded(build(4));
  EXPECT_EQ(unsharded.RelationEpoch("r"), 1u);  // one shard loaded
  EXPECT_EQ(sharded.RelationEpoch("r"), 4u);    // four shards loaded

  // The scan join emits pairs in lexicographic order on every shard
  // count, so verbatim comparison is valid; index-join pair ORDER is
  // tree-shape-dependent and its set equivalence is covered by
  // shard_equivalence_test.
  const std::vector<std::string> texts = {
      "RANGE r WITHIN 0.5 OF #walk4",
      "RANGE r WITHIN 3.0 OF #walk4 USING mavg(6)",
      "NEAREST 9 r TO #walk7",
      "PAIRS r WITHIN 1.5 VIA SCAN",
  };
  for (const std::string& text : texts) {
    const Result<ServiceResult> want = unsharded.ExecuteText(text);
    const Result<ServiceResult> got = sharded.ExecuteText(text);
    ASSERT_TRUE(want.ok() && got.ok()) << text;
    EXPECT_EQ(want.value().plan.shards, 1) << text;
    EXPECT_EQ(got.value().plan.shards, 4) << text;
    ExpectSameMatches(want.value().result, got.value().result);
    // Cached replay on the sharded service stays bit-identical.
    const Result<ServiceResult> replay = sharded.ExecuteText(text);
    ASSERT_TRUE(replay.ok());
    EXPECT_TRUE(replay.value().plan.cache_hit) << text;
    ExpectSameMatches(got.value().result, replay.value().result);
  }

  // A mutation bumps exactly one shard's epoch and invalidates the cache.
  TimeSeries clone = series[4];
  clone.id = "clone_of_walk4";
  ASSERT_TRUE(sharded.Insert("r", clone).ok());
  EXPECT_EQ(sharded.RelationEpoch("r"), 5u);
  const Result<ServiceResult> after = sharded.ExecuteText(texts[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().plan.cache_hit);
  EXPECT_EQ(after.value().plan.relation_epoch, 5u);
  bool found = false;
  for (const Match& match : after.value().result.matches) {
    found = found || match.name == "clone_of_walk4";
  }
  EXPECT_TRUE(found);
}

TEST(QueryServiceTest, StatsCountersAndLatencyPercentiles) {
  ServiceOptions options;
  options.result_cache_capacity = 8;
  QueryService service(MakeDatabase(40, 32, 5), options);
  {
    auto session = service.OpenSession();
    const Result<int64_t> statement =
        session->Prepare("NEAREST 3 r TO #walk2");
    ASSERT_TRUE(statement.ok());
    ASSERT_TRUE(session->ExecutePrepared(statement.value()).ok());
    ASSERT_TRUE(session->Execute("RANGE r WITHIN 1.0 OF #walk2").ok());
    ASSERT_TRUE(session->Execute("RANGE r WITHIN 1.0 OF #walk2").ok());
    const ServiceStats mid = service.stats();
    EXPECT_EQ(mid.sessions_opened, 1);
    EXPECT_EQ(mid.active_sessions, 1);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_sessions, 0);
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.prepared_executions, 1);
  EXPECT_EQ(stats.cold_parses, 3);  // one Prepare + two one-shot parses
  EXPECT_EQ(stats.cache.hits, 1);
  EXPECT_EQ(stats.cache.misses, 2);
  EXPECT_GE(stats.latency_p95_ms, stats.latency_p50_ms);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p95_ms);
}

TEST(QueryServiceTest, ErrorPaths) {
  QueryService service(MakeDatabase(20, 16, 2));
  EXPECT_EQ(service.ExecuteText("BOGUS QUERY").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service.ExecuteText("RANGE nosuch WITHIN 1 OF #walk0").status().code(),
      StatusCode::kNotFound);
  auto session = service.OpenSession();
  EXPECT_EQ(session->ExecutePrepared(999).status().code(),
            StatusCode::kNotFound);
  const Result<int64_t> statement =
      session->Prepare("RANGE r WITHIN 1 OF #walk0");
  ASSERT_TRUE(statement.ok());
  EXPECT_TRUE(session->Close(statement.value()).ok());
  EXPECT_EQ(session->ExecutePrepared(statement.value()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session->Close(statement.value()).code(), StatusCode::kNotFound);
  // Errors are never cached: the failing text parses fine after the
  // relation appears.
  ASSERT_TRUE(service.CreateRelation("nosuch").ok());
  TimeSeries s;
  s.id = "walk0";
  s.values = std::vector<double>(16, 1.0);
  ASSERT_TRUE(service.Insert("nosuch", s).ok());
  EXPECT_TRUE(service.ExecuteText("RANGE nosuch WITHIN 1 OF #walk0").ok());
}

TEST(QueryServiceTest, CacheDisabledServesColdEveryTime) {
  ServiceOptions options;
  options.result_cache_capacity = 0;
  QueryService service(MakeDatabase(30, 32, 4), options);
  const std::string text = "RANGE r WITHIN 2.0 OF #walk1";
  const Result<ServiceResult> first = service.ExecuteText(text);
  const Result<ServiceResult> second = service.ExecuteText(text);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_FALSE(first.value().plan.cache_hit);
  EXPECT_FALSE(second.value().plan.cache_hit);
  ExpectSameMatches(first.value().result, second.value().result);
  EXPECT_EQ(service.stats().cache.hits, 0);
}

TEST(ResultCacheTest, LruEvictionAndInvalidation) {
  ResultCache cache(2);
  QueryResult r1;
  r1.matches.push_back(Match{1, "a", 0.5});
  QueryResult r2;
  r2.matches.push_back(Match{2, "b", 0.25});
  QueryResult out;

  cache.Put("k1", "r", r1);
  cache.Put("k2", "r", r2);
  EXPECT_TRUE(cache.Get("k1", &out));
  EXPECT_EQ(out.matches[0].id, 1);

  // k1 was just used; inserting k3 evicts k2 (least recently used).
  cache.Put("k3", "other", r2);
  EXPECT_FALSE(cache.Get("k2", &out));
  EXPECT_TRUE(cache.Get("k1", &out));
  EXPECT_TRUE(cache.Get("k3", &out));
  EXPECT_EQ(cache.stats().evictions, 1);

  cache.InvalidateRelation("r");
  EXPECT_FALSE(cache.Get("k1", &out));
  EXPECT_TRUE(cache.Get("k3", &out));  // different relation survives
  EXPECT_EQ(cache.stats().invalidated_entries, 1);
}

TEST(FingerprintTest, CanonicalKeySeparatesAndUnifiesCorrectly) {
  const Query base = [] {
    Query q;
    q.kind = QueryKind::kRange;
    q.relation = "r";
    q.epsilon = 1.5;
    q.query_series.name = "walk0";
    return q;
  }();

  Query same = base;
  same.explain = true;  // EXPLAIN shares the entry
  EXPECT_EQ(CanonicalQueryKey(base), CanonicalQueryKey(same));

  Query other_eps = base;
  other_eps.epsilon = 1.5000000001;
  EXPECT_NE(CanonicalQueryKey(base), CanonicalQueryKey(other_eps));

  Query other_series = base;
  other_series.query_series.name = "walk1";
  EXPECT_NE(CanonicalQueryKey(base), CanonicalQueryKey(other_series));

  Query other_strategy = base;
  other_strategy.strategy = ExecutionStrategy::kScan;
  EXPECT_NE(CanonicalQueryKey(base), CanonicalQueryKey(other_strategy));

  Query with_rule = base;
  with_rule.transform = std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(8).release());
  EXPECT_NE(CanonicalQueryKey(base), CanonicalQueryKey(with_rule));

  // Rule arguments that differ below 6-significant-digit precision must
  // still produce distinct keys: name() renders at full precision.
  Query scale_a = base;
  scale_a.transform = std::shared_ptr<const TransformationRule>(
      MakeScaleRule(1.0000001, 0.0).release());
  Query scale_b = base;
  scale_b.transform = std::shared_ptr<const TransformationRule>(
      MakeScaleRule(1.0000002, 0.0).release());
  EXPECT_NE(CanonicalQueryKey(scale_a), CanonicalQueryKey(scale_b));

  EXPECT_NE(QueryFingerprint(base), QueryFingerprint(other_series));
}

// The service renders one canonical key per execution and every surface
// shows that key: after a miss and a hit, the statements row carries it as
// its text (cut at kStatementTextCap) under its fingerprint, the plan
// reports the same fingerprint, and each slow-log line carries the key.
TEST(FingerprintTest, StatementsRowAndSlowLogShowTheExecutionsKey) {
  const std::string path = ::testing::TempDir() + "/fingerprint_slow.jsonl";
  std::remove(path.c_str());
  ServiceOptions options;
  options.statements_capacity = 16;
  options.trace_sample_every = 1;  // every execution reaches the slow log
  options.slow_query_log_path = path;
  options.slow_query_threshold_ms = 0.0;
  QueryService service(MakeDatabase(), options);

  std::string literal = "[";
  for (int i = 0; i < 64; ++i) {
    literal += (i > 0 ? ", " : "") + std::to_string(0.25 * i - 3.0);
  }
  literal += "]";
  const std::vector<std::string> texts = {
      "NEAREST 3 r TO #walk1 USING mavg(4) VIA SCAN",
      "RANGE r WITHIN 3.5 OF " + literal + " USING mavg(8) MODE FILTERED",
  };
  std::vector<std::string> keys;
  for (const std::string& text : texts) {
    const Result<Query> parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::string key = CanonicalQueryKey(parsed.value());
    const uint64_t fingerprint = QueryFingerprint(parsed.value());
    keys.push_back(key);

    const Result<ServiceResult> miss = service.ExecuteText(text);
    const Result<ServiceResult> hit = service.ExecuteText(text);
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_FALSE(miss.value().plan.cache_hit);
    EXPECT_TRUE(hit.value().plan.cache_hit);
    EXPECT_EQ(miss.value().plan.fingerprint, fingerprint);
    EXPECT_EQ(hit.value().plan.fingerprint, fingerprint);

    bool found = false;
    for (const obs::StatementStats& row : service.statements()->Top(0)) {
      if (row.fingerprint != fingerprint) {
        continue;
      }
      found = true;
      EXPECT_EQ(row.calls, 2);
      EXPECT_EQ(row.cache_hits, 1);
      EXPECT_EQ(row.text, key.substr(0, obs::kStatementTextCap));
    }
    EXPECT_TRUE(found) << text;
  }
  // The first row shows its whole key, the second a prefix of its key.
  EXPECT_LE(keys[0].size(), obs::kStatementTextCap);
  EXPECT_GT(keys[1].size(), obs::kStatementTextCap);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> logged;
  std::string line;
  while (std::getline(in, line)) {
    obs::SlowQueryEntry entry;
    ASSERT_TRUE(obs::ParseSlowQueryJson(line, &entry)) << line;
    logged.push_back(entry.fingerprint);
  }
  EXPECT_EQ(logged,
            (std::vector<std::string>{keys[0], keys[0], keys[1], keys[1]}));
}

}  // namespace
}  // namespace simq
