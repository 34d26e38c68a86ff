// Deterministic fault injection (util/failpoint.h): trigger semantics,
// spec parsing, and the injected-error plumbing through the persistence
// and execution layers.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/persistence.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace simq {
namespace {

// Every test leaves the global registry clean; failpoints are process-wide
// and a leaked trigger would poison unrelated tests in this binary.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Global().Reset(); }
  void TearDown() override { Failpoints::Global().Reset(); }
};

Failpoints::Trigger Always() {
  Failpoints::Trigger t;
  t.kind = Failpoints::TriggerKind::kAlways;
  return t;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST_F(FailpointTest, UnarmedNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(Failpoints::Global().Evaluate("test.unarmed"));
  }
  // Unarmed evaluations skip the registry entirely -- no hit bookkeeping.
  EXPECT_EQ(Failpoints::Global().hits("test.unarmed"), 0u);
}

TEST_F(FailpointTest, AlwaysFiresEveryHit) {
  Failpoints::Global().Configure("test.always", Always());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Failpoints::Global().Evaluate("test.always"));
  }
  EXPECT_EQ(Failpoints::Global().hits("test.always"), 5u);
}

TEST_F(FailpointTest, OneInNFiresOnExactMultiples) {
  Failpoints::Trigger t;
  t.kind = Failpoints::TriggerKind::kOneIn;
  t.param = 3;
  Failpoints::Global().Configure("test.onein", t);
  // Deterministic: hits 3, 6, 9, ... fire; everything else does not.
  for (int hit = 1; hit <= 12; ++hit) {
    EXPECT_EQ(Failpoints::Global().Evaluate("test.onein"), hit % 3 == 0)
        << "hit " << hit;
  }
}

TEST_F(FailpointTest, AfterKFiresFromHitKPlusOne) {
  Failpoints::Trigger t;
  t.kind = Failpoints::TriggerKind::kAfter;
  t.param = 4;
  Failpoints::Global().Configure("test.after", t);
  for (int hit = 1; hit <= 8; ++hit) {
    EXPECT_EQ(Failpoints::Global().Evaluate("test.after"), hit > 4)
        << "hit " << hit;
  }
}

TEST_F(FailpointTest, ConfigureResetsHitCounter) {
  Failpoints::Global().Configure("test.reset", Always());
  Failpoints::Global().Evaluate("test.reset");
  Failpoints::Global().Evaluate("test.reset");
  EXPECT_EQ(Failpoints::Global().hits("test.reset"), 2u);
  Failpoints::Global().Configure("test.reset", Always());
  EXPECT_EQ(Failpoints::Global().hits("test.reset"), 0u);
}

TEST_F(FailpointTest, SpecGrammarRoundTrips) {
  ASSERT_TRUE(Failpoints::Global()
                  .ConfigureFromSpec(
                      "a.b=always;c.d=one-in-2;e.f=after-1;g.h=off")
                  .ok());
  EXPECT_TRUE(Failpoints::Global().Evaluate("a.b"));
  EXPECT_FALSE(Failpoints::Global().Evaluate("c.d"));  // hit 1 of one-in-2
  EXPECT_TRUE(Failpoints::Global().Evaluate("c.d"));   // hit 2 fires
  EXPECT_FALSE(Failpoints::Global().Evaluate("e.f"));  // hit 1 <= K
  EXPECT_TRUE(Failpoints::Global().Evaluate("e.f"));   // hit 2 > K
  EXPECT_FALSE(Failpoints::Global().Evaluate("g.h"));
}

TEST_F(FailpointTest, SpecRejectsMalformedClauses) {
  EXPECT_EQ(Failpoints::Global().ConfigureFromSpec("nope").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Failpoints::Global().ConfigureFromSpec("a=sometimes").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Failpoints::Global().ConfigureFromSpec("a=one-in-x").code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Injection through real code paths.
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Database SmallDb() {
  Database db;
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(30, 32, 7)).ok());
  return db;
}

TEST_F(FailpointTest, SaveFailpointsSurfaceAsIoErrorAndLeaveNoFile) {
  const Database db = SmallDb();
  for (const char* point :
       {"save.open", "save.write", "save.sync", "save.rename"}) {
    Failpoints::Global().Reset();
    Failpoints::Global().Configure(point, Always());
    const std::string path = TempPath(std::string("inj_") + point);
    const Status status = SaveDatabase(db, path);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << point;
    EXPECT_NE(status.message().find(point), std::string::npos) << point;
    // Atomic save: a failed save must leave neither the target nor the
    // temp file behind.
    Failpoints::Global().Reset();
    EXPECT_EQ(LoadDatabase(path).status().code(), StatusCode::kNotFound)
        << point;
    EXPECT_EQ(LoadDatabase(path + ".tmp").status().code(),
              StatusCode::kNotFound)
        << point;
  }
}

void ExpectSameMatches(const QueryResult& got, const QueryResult& want,
                       const std::string& context) {
  ASSERT_EQ(got.matches.size(), want.matches.size()) << context;
  for (size_t i = 0; i < want.matches.size(); ++i) {
    EXPECT_EQ(got.matches[i].id, want.matches[i].id) << context;
    EXPECT_EQ(got.matches[i].name, want.matches[i].name) << context;
    EXPECT_EQ(Bits(got.matches[i].distance), Bits(want.matches[i].distance))
        << context;
  }
}

// Pairs as a sorted set: the delta scan emits a degraded shard's pairs
// after the tree candidates, so only the emission order may differ.
std::vector<std::tuple<int64_t, int64_t, uint64_t>> PairSet(
    const QueryResult& result) {
  std::vector<std::tuple<int64_t, int64_t, uint64_t>> pairs;
  for (const PairMatch& pair : result.pairs) {
    pairs.emplace_back(pair.first, pair.second, Bits(pair.distance));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST_F(FailpointTest, CompileFailpointsDegradeWithoutChangingAnswers) {
  Database db = SmallDb();
  const char* text = "RANGE r WITHIN 3.0 OF #walk5";

  // The bulk load left the packed tree uncompiled: arm packed.compile so
  // the first index query's compile fails. The query exact-scans every
  // row instead, flags degraded, and returns the healthy answer.
  Failpoints::Global().Configure("packed.compile", Always());
  const Result<QueryResult> degraded = db.ExecuteText(text);
  Failpoints::Global().Reset();
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.value().stats.degraded);
  EXPECT_TRUE(degraded.value().stats.used_index);
  EXPECT_EQ(degraded.value().stats.node_accesses, 0);
  EXPECT_EQ(db.degradation_stats().packed_compile_failures, 1u);
  EXPECT_EQ(db.degradation_stats().degraded_queries, 1u);

  const Result<QueryResult> healthy = db.ExecuteText(text);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.value().stats.degraded);
  EXPECT_GT(healthy.value().stats.node_accesses, 0);
  ExpectSameMatches(degraded.value(), healthy.value(), text);
}

// Per-shard degradation: with three shards and packed.compile=after-1,
// one shard compiles and the other two fail on every query, so their
// rows all go through the delta scan. Range, kNN and index-join answers
// must stay bit-identical to a healthy database's -- plain and
// transformed, with rows inserted and deleted after the bulk load both
// before and after that one compile.
TEST_F(FailpointTest, PerShardCompileFailureKeepsIndexAnswers) {
  ShardingOptions sharding;
  sharding.num_shards = 3;
  const auto build = [&]() {
    Database db(FeatureConfig(), RTree::Options(), sharding);
    EXPECT_TRUE(db.CreateRelation("r").ok());
    EXPECT_TRUE(
        db.BulkLoad("r", workload::RandomWalkSeries(60, 32, 11)).ok());
    return db;
  };
  const auto mutate = [](Database* db, int round) {
    for (int i = 0; i < 4; ++i) {
      TimeSeries extra =
          workload::RandomWalkSeries(1, 32, 500 + 10 * round + i)[0];
      extra.id = "extra" + std::to_string(round) + "_" + std::to_string(i);
      EXPECT_TRUE(db->Insert("r", extra).ok());
    }
    for (const int64_t id : {3 + round, 17 + round, 40 + round}) {
      EXPECT_TRUE(db->Delete("r", id).ok());
    }
  };
  const std::vector<std::string> queries = {
      "RANGE r WITHIN 3.0 OF #walk5 VIA INDEX",
      "RANGE r WITHIN 3.0 OF #walk5 USING mavg(4) VIA INDEX",
      "NEAREST 7 r TO #walk8 VIA INDEX",
      "NEAREST 7 r TO #walk8 USING mavg(4) VIA INDEX",
      "PAIRS r WITHIN 2.0 VIA INDEX",
      "PAIRS r WITHIN 2.0 USING mavg(4) VIA INDEX",
  };
  Database healthy = build();
  Database degraded = build();
  Failpoints::Trigger after_one;
  after_one.kind = Failpoints::TriggerKind::kAfter;
  after_one.param = 1;
  for (int round = 0; round < 2; ++round) {
    mutate(&healthy, round);
    mutate(&degraded, round);
    // The healthy side runs first: its round-0 queries compile its trees
    // before the failpoint is armed, and fresh trees never recompile.
    std::vector<QueryResult> want;
    for (const std::string& text : queries) {
      Result<QueryResult> result = healthy.ExecuteText(text);
      ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
      EXPECT_FALSE(result.value().stats.degraded) << text;
      want.push_back(std::move(result).value());
    }
    if (round == 0) {
      Failpoints::Global().Configure("packed.compile", after_one);
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string context =
          queries[q] + " (round " + std::to_string(round) + ")";
      const uint64_t failures_before =
          degraded.degradation_stats().packed_compile_failures;
      const Result<QueryResult> got = degraded.ExecuteText(queries[q]);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
      EXPECT_TRUE(got.value().stats.degraded) << context;
      EXPECT_TRUE(got.value().stats.used_index) << context;
      // The first query's first compile succeeds (whichever shard the
      // parallel resolve reaches first); the other two shards fail every
      // compile.
      EXPECT_EQ(degraded.degradation_stats().packed_compile_failures,
                failures_before + 2)
          << context;
      ExpectSameMatches(got.value(), want[q], context);
      EXPECT_EQ(PairSet(got.value()), PairSet(want[q])) << context;
    }
  }
  EXPECT_EQ(degraded.degradation_stats().degraded_queries,
            2 * queries.size());
  EXPECT_EQ(healthy.degradation_stats().packed_compile_failures, 0u);
}

TEST_F(FailpointTest, FilterCompileFailureFallsBackToExactScan) {
  Database db = SmallDb();
  Failpoints::Global().Configure("filter.compile", Always());
  const Result<QueryResult> degraded =
      db.ExecuteText("RANGE r WITHIN 3.0 OF #walk5 VIA SCAN MODE FILTERED");
  Failpoints::Global().Reset();
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.value().stats.degraded);
  EXPECT_FALSE(degraded.value().stats.used_filter);  // exact scan ran

  const Result<QueryResult> exact =
      db.ExecuteText("RANGE r WITHIN 3.0 OF #walk5 VIA SCAN MODE EXACT");
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(degraded.value().matches.size(), exact.value().matches.size());
  for (size_t i = 0; i < exact.value().matches.size(); ++i) {
    EXPECT_EQ(degraded.value().matches[i].id, exact.value().matches[i].id);
  }
}

TEST_F(FailpointTest, PoolTaskFailpointRethrowsOnCaller) {
  Failpoints::Trigger t;
  t.kind = Failpoints::TriggerKind::kAfter;
  t.param = 1;  // first task boundary passes, second throws
  Failpoints::Global().Configure("pool.task", t);
  ThreadPool pool(4);
  bool threw = false;
  try {
    pool.ParallelFor(0, 1 << 16, /*min_grain=*/1,
                     [](int64_t, int64_t, int64_t) {});
  } catch (const std::exception& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("pool.task"), std::string::npos);
  }
  Failpoints::Global().Reset();
  EXPECT_TRUE(threw);
  // The pool must stay usable after an injected task failure.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 1000, 1, [&sum](int64_t, int64_t lo, int64_t hi) {
    sum.fetch_add(hi - lo);
  });
  EXPECT_EQ(sum.load(), 1000);
}

}  // namespace
}  // namespace simq
