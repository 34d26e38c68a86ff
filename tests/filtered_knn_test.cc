// Filtered kNN differential test: NEAREST ... MODE FILTERED must return
// what MODE EXACT returns -- same ids, names and distance bits, ties at
// the k-th distance broken toward smaller ids -- on relations large
// enough that every shard has at least three scan units, so the filtered
// path's radius really carries from one unit of a block to the next.
//
// Each query runs under two block partitions: the default one (the pool
// is pinned to 4 threads, so the first unit seeds alone and the rest split
// into one-unit blocks, each starting from a copy of the seed's k best and
// radius) and a parallelism budget of 1 (the seed unit, then one block
// over every other unit). The relation goes through
// three states: freshly loaded; with delta rows and tombstones; and with
// every row of each shard's first unit deleted. The queries cover k = 1,
// 10 and more than a unit's rows, exact-duplicate ties at the k-th
// distance on both sides of unit boundaries, MEAN/STD patterns and a
// spectral multiplier rule (mavg).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "ts/transforms.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace simq {
namespace {

// Four pool threads unless the caller chose a width, pinned before
// anything instantiates the pool.
const bool kPoolWidthPinned = [] {
  ::setenv("SIMQ_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// 128-value series make 2048-row scan units. Under the default hash
// partition 3 shards hold 4267 rows each (units of 2048, 2048 and 171
// rows), and 1 shard holds 7 units.
constexpr int kLength = 128;
constexpr int kRows = 12800;
constexpr int kUnitRows = 2048;
// The row the twins copy, and the rows that hold its exact copies. At 1
// shard unit boundaries fall at ids 2048, 4096, ..., and at 3 shards at
// 6144 + s and 12288 + s, so these straddle boundaries both ways.
constexpr int64_t kTwinOf = 7001;
const int64_t kTwins[] = {2047, 2048, 6143, 6144, 6145, 6146,
                          6147, 8191, 8192, 12287, 12288, 12290};

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::vector<TimeSeries> Relation() {
  workload::StockMarketOptions options;
  options.num_series = kRows;
  options.length = kLength;
  std::vector<TimeSeries> series = workload::StockMarket(options);
  for (const int64_t id : kTwins) {
    series[static_cast<size_t>(id)].values =
        series[static_cast<size_t>(kTwinOf)].values;
  }
  return series;
}

std::string Literal(const std::vector<double>& values) {
  std::string out = "[";
  char buffer[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s%.17g", i > 0 ? ", " : "",
                  values[i]);
    out += buffer;
  }
  return out + "]";
}

// `source` plus a small deterministic wiggle: near the source's twins,
// nearer than to anything else.
std::vector<double> Probe(const std::vector<double>& source) {
  std::vector<double> probe = source;
  for (size_t i = 0; i < probe.size(); ++i) {
    probe[i] += 0.01 * static_cast<double>(static_cast<int>(i % 7) - 3);
  }
  return probe;
}

// [lo, hi] between the quartiles of one per-row statistic.
std::string Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  char buffer[80];
  std::snprintf(buffer, sizeof(buffer), "%.17g %.17g",
                values[values.size() / 4], values[values.size() * 3 / 4]);
  return buffer;
}

Database Load(const std::vector<TimeSeries>& series, int shards) {
  ShardingOptions sharding;
  sharding.num_shards = shards;
  Database db(FeatureConfig(), RTree::Options(), sharding);
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(db.BulkLoad("r", series).ok());
  return db;
}

// Runs `text` with MODE EXACT, then with MODE FILTERED under both block
// partitions, and expects bit-identical answers.
void ExpectFilteredMatchesExact(const Database& db, const std::string& text,
                                const std::string& context) {
  const Result<QueryResult> exact = db.ExecuteText(text + " MODE EXACT");
  ASSERT_TRUE(exact.ok()) << context << ": " << exact.status().ToString();
  ASSERT_FALSE(exact.value().matches.empty()) << context;
  for (const bool one_block : {false, true}) {
    const std::string tag = context + (one_block ? " (one block)" : "");
    const Result<QueryResult> filtered = [&] {
      std::optional<ThreadPool::ScopedParallelismBudget> budget;
      if (one_block) {
        budget.emplace(1);
      }
      return db.ExecuteText(text + " MODE FILTERED");
    }();
    ASSERT_TRUE(filtered.ok()) << tag << ": " << filtered.status().ToString();
    EXPECT_TRUE(filtered.value().stats.used_filter) << tag;
    const std::vector<Match>& want = exact.value().matches;
    const std::vector<Match>& got = filtered.value().matches;
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << tag << " rank " << i;
      EXPECT_EQ(got[i].name, want[i].name) << tag << " rank " << i;
      EXPECT_EQ(Bits(got[i].distance), Bits(want[i].distance))
          << tag << " rank " << i;
    }
  }
}

// The query set of one relation state. `twin_name` is a live row holding
// a copy of the twins' series.
void ExpectEveryQueryMatches(const Database& db,
                             const std::vector<TimeSeries>& series,
                             const std::string& twin_name,
                             const std::string& state) {
  const std::string near_twins =
      " r TO " + Literal(Probe(series[kTwinOf].values)) + " VIA SCAN";
  const std::string elsewhere =
      " r TO " + Literal(Probe(series[kRows - 5].values)) + " VIA SCAN";
  std::vector<double> means;
  std::vector<double> stds;
  for (const TimeSeries& ts : series) {
    const NormalFormResult normal = ToNormalForm(ts.values);
    means.push_back(normal.mean);
    stds.push_back(normal.std_dev);
  }
  const std::vector<std::string> texts = {
      // Ties at the k-th distance across unit boundaries: more live twins
      // than k, all at one distance.
      "NEAREST 1" + near_twins,
      "NEAREST 10" + near_twins,
      // A stored twin as the query: ties at distance zero.
      "NEAREST 10 r TO #" + twin_name + " VIA SCAN",
      // More neighbours than a unit has rows.
      "NEAREST " + std::to_string(kUnitRows + 52) + elsewhere,
      "NEAREST 10" + elsewhere + " MEAN " + Quartiles(means),
      "NEAREST 10" + elsewhere + " STD " + Quartiles(stds),
      "NEAREST 10 r TO #" + twin_name + " USING mavg(8) VIA SCAN",
  };
  for (const std::string& text : texts) {
    ExpectFilteredMatchesExact(db, text, state + ": " + text.substr(0, 40));
  }
}

TEST(FilteredKnnTest, ShrinkingRadiusMatchesExactAcrossUnitsAndStates) {
  std::vector<TimeSeries> series = Relation();
  for (const int shards : {1, 3}) {
    const std::string tag = std::to_string(shards) + " shards";
    Database db = Load(series, shards);
    // The first filtered query compiles the codes over every loaded row.
    ExpectEveryQueryMatches(db, series, series[2048].id, tag + " loaded");

    // Delta rows past the codes' coverage (three more twins among them)
    // and tombstones, one of them on a twin.
    std::vector<TimeSeries> live = series;
    workload::StockMarketOptions extra;
    extra.num_series = 300;
    extra.length = kLength;
    extra.seed = 99;
    std::vector<TimeSeries> inserts = workload::StockMarket(extra);
    for (size_t i = 0; i < inserts.size(); ++i) {
      inserts[i].id = "ins" + std::to_string(i);
      if (i % 100 == 7) {
        inserts[i].values = series[kTwinOf].values;
      }
      ASSERT_TRUE(db.Insert("r", inserts[i]).ok());
      live.push_back(inserts[i]);
    }
    for (int64_t id = 3; id < kRows; id += 64) {
      ASSERT_TRUE(db.Delete("r", id).ok());
    }
    ASSERT_TRUE(db.Delete("r", 8191).ok());
    ExpectEveryQueryMatches(db, live, series[2048].id, tag + " delta");

    // Every row of each shard's first unit deleted (ids below 6144 at 3
    // shards; the first three units at 1 shard), twins 2047, 2048 and
    // 6143 with them.
    for (int64_t id = 0; id < 3 * kUnitRows; ++id) {
      if (id % 64 != 3) {
        ASSERT_TRUE(db.Delete("r", id).ok()) << id;
      }
    }
    ExpectEveryQueryMatches(db, live, series[6144].id, tag + " first unit");
  }
}

}  // namespace
}  // namespace simq
