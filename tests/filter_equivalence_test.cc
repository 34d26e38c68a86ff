// Filter-equivalence property suite: the quantized filter-and-refine
// engine (src/filter, MODE FILTERED) must return answers bit-identical to
// the unfiltered engines -- same ids, same names, same IEEE-754 distance
// bits, same tie-breaking, same pair emission -- for every shard count,
// bit width, strategy, and workload, including tie-heavy ones where
// distances land exactly on eps and on the k-th kNN distance. The filter
// may only change HOW MANY exact checks run (stats), never the answer.
//
// Also covered: the bracketing invariant of the quantizer, the code
// round-trip through the code columns, the column scan's lower bound
// against brute-force distances, the stale-on-mutation rebuild contract,
// and the planner bias of an explicit MODE FILTERED under VIA AUTO.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/feature_store.h"
#include "core/sharded_relation.h"
#include "filter/bound_kernels.h"
#include "filter/quantized_codes.h"
#include "filter/quantizer.h"
#include "ts/transforms.h"
#include "util/random.h"
#include "workload/generators.h"

namespace simq {
namespace {

ShardingOptions Sharded(int shards) {
  ShardingOptions options;
  options.num_shards = shards;
  return options;
}

Database BuildDatabase(const std::vector<TimeSeries>& series, int shards,
                       int bits) {
  Database db(FeatureConfig(), RTree::Options(), Sharded(shards));
  FilterOptions filter;
  filter.bits_per_dim = bits;
  db.set_filter_options(filter);
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(db.BulkLoad("r", series).ok());
  return db;
}

// A clustered, tie-heavy workload: random-walk seeds plus exact
// duplicates (distance exactly 0 under the normal form), vertically
// shifted copies (also distance 0: shifts are invisible to normal forms),
// and small perturbations (tiny nonzero distances), so range answers are
// nonempty and kNN rankings carry genuine ties at the k-th distance.
std::vector<TimeSeries> TieHeavyWorkload(int seeds, int length,
                                         uint64_t seed) {
  std::vector<TimeSeries> series =
      workload::RandomWalkSeries(seeds, length, seed);
  const int base = static_cast<int>(series.size());
  for (int i = 0; i < base; ++i) {
    TimeSeries dup = series[static_cast<size_t>(i)];
    dup.id = "dup" + std::to_string(i);
    series.push_back(dup);

    TimeSeries shifted = series[static_cast<size_t>(i)];
    shifted.id = "shift" + std::to_string(i);
    for (double& v : shifted.values) {
      v += 3.25;
    }
    series.push_back(shifted);

    TimeSeries tweaked = series[static_cast<size_t>(i)];
    tweaked.id = "tweak" + std::to_string(i);
    tweaked.values[static_cast<size_t>(i % length)] += 0.05;
    series.push_back(tweaked);
  }
  return series;
}

void ExpectSameMatches(const QueryResult& expected, const QueryResult& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.matches.size(), actual.matches.size()) << context;
  for (size_t i = 0; i < expected.matches.size(); ++i) {
    EXPECT_EQ(expected.matches[i].id, actual.matches[i].id)
        << context << " row " << i;
    EXPECT_EQ(expected.matches[i].name, actual.matches[i].name)
        << context << " row " << i;
    // Bit-exact: survivors run the identical exact kernels.
    EXPECT_EQ(expected.matches[i].distance, actual.matches[i].distance)
        << context << " row " << i;
  }
}

void ExpectSamePairs(const QueryResult& expected, const QueryResult& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.pairs.size(), actual.pairs.size()) << context;
  // The filtered join preserves the unfiltered emission order exactly
  // (same (i, j) loop, same block merge), so compare verbatim.
  for (size_t i = 0; i < expected.pairs.size(); ++i) {
    EXPECT_EQ(expected.pairs[i].first, actual.pairs[i].first)
        << context << " pair " << i;
    EXPECT_EQ(expected.pairs[i].second, actual.pairs[i].second)
        << context << " pair " << i;
    EXPECT_EQ(expected.pairs[i].distance, actual.pairs[i].distance)
        << context << " pair " << i;
  }
}

// Executes `text` twice -- MODE EXACT vs MODE FILTERED -- and expects
// bit-identical answers; returns the filtered result for stats checks.
QueryResult ExpectFilteredMatchesExact(const Database& db,
                                       const std::string& text,
                                       const std::string& context) {
  Result<QueryResult> exact = db.ExecuteText(text + " MODE EXACT");
  Result<QueryResult> filtered = db.ExecuteText(text + " MODE FILTERED");
  EXPECT_TRUE(exact.ok()) << context << ": " << exact.status().ToString();
  EXPECT_TRUE(filtered.ok())
      << context << ": " << filtered.status().ToString();
  if (!exact.ok() || !filtered.ok()) {
    return QueryResult();
  }
  ExpectSameMatches(exact.value(), filtered.value(), context);
  ExpectSamePairs(exact.value(), filtered.value(), context);
  return filtered.value();
}

TEST(Quantizer, CellsBracketEveryEncodedValue) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(64, 48, 7);
  FeatureStore store;
  for (const TimeSeries& ts : series) {
    const auto normal = ToNormalForm(ts.values);
    store.Append(ComputeFeatures(ts.values), normal.values);
  }
  for (const int bits : {4, 5, 6, 7, 8}) {
    const ScalarQuantizer q = ScalarQuantizer::Train(store, bits);
    ASSERT_EQ(q.dims(), 2 * (store.spectrum_length() / 2 + 1));
    ASSERT_EQ(q.cells(), 1 << bits);
    for (int64_t i = 0; i < store.size(); ++i) {
      const double* row = store.SpectrumRow(i);
      for (int d = 0; d < q.dims(); ++d) {
        const uint32_t c = q.Encode(d, row[d]);
        ASSERT_LT(c, static_cast<uint32_t>(q.cells()));
        const double* edges = q.bounds(d);
        EXPECT_LE(edges[c], row[d]) << "bits " << bits << " dim " << d;
        EXPECT_GE(edges[c + 1], row[d]) << "bits " << bits << " dim " << d;
      }
    }
  }
}

TEST(QuantizedCodes, ColumnsRoundTripEveryWidth) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(40, 33, 11);  // odd length: tail dims
  FeatureStore store;
  for (const TimeSeries& ts : series) {
    const auto normal = ToNormalForm(ts.values);
    store.Append(ComputeFeatures(ts.values), normal.values);
  }
  for (const int bits : {4, 5, 6, 7, 8}) {
    const QuantizedCodes codes(store, bits);
    ASSERT_EQ(codes.size(), store.size());
    for (int64_t i = 0; i < codes.size(); ++i) {
      const double* row = store.SpectrumRow(i);
      for (int d = 0; d < codes.dims(); ++d) {
        EXPECT_EQ(codes.Column(d)[i], codes.quantizer().Encode(d, row[d]))
            << "bits " << bits << " row " << i << " dim " << d;
      }
    }
  }
}

// The codes keep coefficients 0 .. n/2 and bound every other one through
// its conjugate twin, so the bound must hold at every length parity (n = 1
// and 2 have no twins, odd n has no Nyquist coefficient), for any query
// spectrum (the perturbed queries are not conjugate-symmetric) and any
// multiplier (random complex ones, and an all-zero one whose bound is the
// constant base).
TEST(BoundKernels, LowerBoundBelowBruteForceDistances) {
  for (const int length : {1, 2, 3, 4, 5, 7, 8, 16, 33, 128}) {
    const std::vector<TimeSeries> series =
        workload::RandomWalkSeries(80, length, 19);
    FeatureStore store;
    for (const TimeSeries& ts : series) {
      const auto normal = ToNormalForm(ts.values);
      store.Append(ComputeFeatures(ts.values), normal.values);
    }
    const int n = store.spectrum_length();
    Random rng(static_cast<uint64_t>(length));
    std::vector<double> random_mult(static_cast<size_t>(2 * n));
    for (double& m : random_mult) {
      m = rng.UniformDouble(-2.0, 2.0);
    }
    const std::vector<double> zero_mult(static_cast<size_t>(2 * n), 0.0);
    for (const int bits : {4, 8}) {
      const QuantizedCodes codes(store, bits);
      ASSERT_EQ(codes.dims(), 2 * (n / 2 + 1)) << "length " << length;
      for (const double* mult : std::vector<const double*>{
               nullptr, random_mult.data(), zero_mult.data()}) {
        // Queries: stored rows (exact cell hits) and perturbed ones.
        for (int qi = 0; qi < 8; ++qi) {
          std::vector<double> query(static_cast<size_t>(2 * n));
          const double* src = store.SpectrumRow(qi * 7 % store.size());
          for (int d = 0; d < 2 * n; ++d) {
            query[static_cast<size_t>(d)] = src[d] + (qi % 3 - 1) * 0.01 * d;
          }
          const QueryLuts luts =
              BuildQueryLuts(codes.quantizer(), query.data(), mult, n);
          // An infinite threshold keeps every row, so the scan leaves each
          // row's full lower bound in `bounds`.
          std::vector<int32_t> active;
          for (int64_t i = 0; i < codes.size(); ++i) {
            active.push_back(static_cast<int32_t>(i));
          }
          std::vector<double> bounds;
          ColumnLowerBoundScan(
              codes, luts, 0, codes.size(),
              [](std::vector<int32_t>*, const double*) {
                return std::numeric_limits<double>::infinity();
              },
              &active, &bounds);
          ASSERT_EQ(active.size(), static_cast<size_t>(codes.size()));
          for (int64_t i = 0; i < codes.size(); ++i) {
            const double exact_sq =
                mult == nullptr
                    ? RowDistanceSq(store.SpectrumRow(i), query.data(), n,
                                    std::numeric_limits<double>::infinity())
                    : RowDistanceSqMult(
                          store.SpectrumRow(i), mult, query.data(), n,
                          std::numeric_limits<double>::infinity());
            // The bound must hold up to the documented FP slack.
            EXPECT_LE(bounds[static_cast<size_t>(i)],
                      SafeThreshold(exact_sq, luts.slack))
                << "length " << length << " bits " << bits << " multiplier "
                << (mult == nullptr ? "identity"
                    : mult == zero_mult.data() ? "zero" : "random")
                << " query " << qi << " row " << i;
          }
        }
      }
    }
  }
}

TEST(FilterEquivalence, RangeKnnJoinAcrossShardsAndWidths) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(12, 32, 23);
  for (const int shards : {1, 2, 4}) {
    for (const int bits : {4, 6, 8}) {
      const Database db = BuildDatabase(series, shards, bits);
      const std::string tag =
          "shards=" + std::to_string(shards) + " bits=" + std::to_string(bits);
      // Range: eps 0 (exact duplicates only), a mid eps, and a huge eps
      // (everything matches -- zero pruning, pure pass-through).
      for (const char* eps : {"0", "0.3", "2.5", "1e6"}) {
        ExpectFilteredMatchesExact(
            db,
            std::string("RANGE r WITHIN ") + eps + " OF #walk0 VIA SCAN",
            tag + " range eps=" + eps);
      }
      // kNN: k hitting the duplicate/shift tie groups, k = 1, k > count.
      for (const char* k : {"1", "3", "7", "500"}) {
        ExpectFilteredMatchesExact(
            db, std::string("NEAREST ") + k + " r TO #walk1 VIA SCAN",
            tag + " knn k=" + k);
      }
      // Literal query series (not a stored record).
      ExpectFilteredMatchesExact(
          db,
          "NEAREST 5 r TO [1, 2, 1.5, 3, 2, 1, 0.5, 1, 2, 3, 2.5, 2, 1, 0, "
          "1, 2, 1, 0.5, 0, 1, 2, 3, 2, 1, 1.5, 2, 2.5, 3, 2, 1, 0.5, 0] "
          "VIA SCAN",
          tag + " knn literal");
      // Self-join at a tie-rich eps and at 0 (duplicate pairs only).
      for (const char* eps : {"0", "0.4", "3.0"}) {
        const QueryResult filtered = ExpectFilteredMatchesExact(
            db, std::string("PAIRS r WITHIN ") + eps + " VIA SCAN",
            tag + " join eps=" + eps);
        EXPECT_TRUE(filtered.stats.used_filter) << tag;
        EXPECT_GT(filtered.stats.filter_scanned, 0) << tag;
      }
    }
  }
}

TEST(FilterEquivalence, EpsilonExactlyAtStoredDistanceKeepsTies) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(10, 24, 31);
  const Database db = BuildDatabase(series, 2, 8);
  // Harvest true distances (from a wide RANGE scan, so the doubles come
  // from the same abandoning kernel the boundary query will run), then
  // query with eps exactly equal to one: the boundary record must
  // survive the filter (no false dismissal at the threshold).
  const Result<QueryResult> all =
      db.ExecuteText("RANGE r WITHIN 1e9 OF #walk2 VIA SCAN MODE EXACT");
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all.value().matches.size(), 8u);
  for (const size_t pick : {size_t{3}, size_t{7}}) {
    const double eps = all.value().matches[pick].distance;
    std::ostringstream text;
    text.precision(17);
    text << "RANGE r WITHIN " << eps << " OF #walk2 VIA SCAN";
    const QueryResult filtered =
        ExpectFilteredMatchesExact(db, text.str(), "tie at eps");
    // Every record at distance <= eps (including the boundary ties) is in.
    size_t at_or_below = 0;
    for (const Match& m : all.value().matches) {
      at_or_below += m.distance <= eps ? 1 : 0;
    }
    EXPECT_EQ(filtered.matches.size(), at_or_below);
  }
}

TEST(FilterEquivalence, SpectralMultiplierRulesUseWeightedLuts) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(10, 32, 41);
  for (const int shards : {1, 3}) {
    const Database db = BuildDatabase(series, shards, 8);
    const std::string tag = "shards=" + std::to_string(shards);
    // mavg lowers to a spectral multiplier with zero entries at some
    // frequencies (the base-constant path of the LUT builder).
    ExpectFilteredMatchesExact(
        db, "RANGE r WITHIN 1.0 OF #walk0 USING mavg(4) VIA SCAN",
        tag + " range mavg");
    ExpectFilteredMatchesExact(
        db, "NEAREST 6 r TO #walk3 USING mavg(8) VIA SCAN",
        tag + " knn mavg");
    // Transformed joins fall back to the exact kernels (the filter only
    // covers untransformed joins) -- still bit-identical, filter off.
    const QueryResult join = ExpectFilteredMatchesExact(
        db, "PAIRS r WITHIN 2.0 USING mavg(4) VIA SCAN", tag + " join mavg");
    EXPECT_FALSE(join.stats.used_filter) << tag;
  }
}

TEST(FilterEquivalence, PatternPredicatesApplyBeforeTheCodeScan) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(10, 28, 53);
  const Database db = BuildDatabase(series, 2, 8);
  const QueryResult filtered = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 2.0 OF #walk0 VIA SCAN MEAN 10 60 STD 0.5 30",
      "stats pattern");
  // Records excluded by the pattern are never bound-scanned.
  EXPECT_LT(filtered.stats.filter_scanned,
            static_cast<int64_t>(series.size()));
  ExpectFilteredMatchesExact(
      db, "NEAREST 4 r TO #walk1 VIA SCAN MEAN 10 60", "knn pattern");
}

TEST(FilterEquivalence, ExplicitFilteredBiasesAutoPlanningToScan) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(8, 24, 61);
  const Database db = BuildDatabase(series, 1, 8);
  const Result<QueryResult> filtered =
      db.ExecuteText("RANGE r WITHIN 0.5 OF #walk0 MODE FILTERED");
  ASSERT_TRUE(filtered.ok());
  EXPECT_FALSE(filtered.value().stats.used_index);
  EXPECT_TRUE(filtered.value().stats.used_filter);
  // Same query without the request plans the index as before.
  const Result<QueryResult> target =
      db.ExecuteText("RANGE r WITHIN 0.5 OF #walk0");
  ASSERT_TRUE(target.ok());
  EXPECT_TRUE(target.value().stats.used_index);
  ExpectSameMatches(target.value(), filtered.value(), "auto bias");
  // VIA INDEX + MODE FILTERED keeps the index path (filter inapplicable).
  const Result<QueryResult> indexed =
      db.ExecuteText("RANGE r WITHIN 0.5 OF #walk0 VIA INDEX MODE FILTERED");
  ASSERT_TRUE(indexed.ok());
  EXPECT_TRUE(indexed.value().stats.used_index);
  EXPECT_FALSE(indexed.value().stats.used_filter);
  ExpectSameMatches(target.value(), indexed.value(), "index unaffected");
  // PAIRS under auto planning: an explicit MODE FILTERED routes an
  // untransformed join to the filtered scan instead of the index join,
  // with an identical pair set (emission orders differ between join
  // methods, so compare as sorted sets of (first, second, distance)).
  const Result<QueryResult> join_filtered =
      db.ExecuteText("PAIRS r WITHIN 0.5 MODE FILTERED");
  ASSERT_TRUE(join_filtered.ok());
  EXPECT_TRUE(join_filtered.value().stats.used_filter);
  EXPECT_FALSE(join_filtered.value().stats.used_index);
  const Result<QueryResult> join_auto = db.ExecuteText("PAIRS r WITHIN 0.5");
  ASSERT_TRUE(join_auto.ok());
  EXPECT_TRUE(join_auto.value().stats.used_index);
  const auto sorted_set = [](const QueryResult& result) {
    std::vector<PairMatch> pairs;
    // Index joins emit both orientations; scans emit each unordered pair
    // once (the documented Table-1 accounting). Canonicalize to ordered
    // (min, max) and dedupe before comparing.
    for (const PairMatch& p : result.pairs) {
      pairs.push_back(PairMatch{std::min(p.first, p.second),
                                std::max(p.first, p.second), p.distance});
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const PairMatch& a, const PairMatch& b) {
                if (a.first != b.first) {
                  return a.first < b.first;
                }
                return a.second < b.second;
              });
    pairs.erase(std::unique(pairs.begin(), pairs.end(),
                            [](const PairMatch& a, const PairMatch& b) {
                              return a.first == b.first &&
                                     a.second == b.second;
                            }),
                pairs.end());
    return pairs;
  };
  const std::vector<PairMatch> expected = sorted_set(join_auto.value());
  const std::vector<PairMatch> actual = sorted_set(join_filtered.value());
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first);
    EXPECT_EQ(expected[i].second, actual[i].second);
  }
}

TEST(FilterEquivalence, EngineWideToggleAndStats) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(10, 32, 71);
  Database db = BuildDatabase(series, 2, 8);
  db.set_filter_engine(FilterEngine::kQuantized);
  const Result<QueryResult> on =
      db.ExecuteText("RANGE r WITHIN 0.4 OF #walk0 VIA SCAN");
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on.value().stats.used_filter);
  EXPECT_EQ(on.value().stats.candidates, on.value().stats.exact_checks);
  EXPECT_GE(on.value().stats.filter_scanned, on.value().stats.candidates);
  // Pruning must actually bite at a small eps on this workload.
  EXPECT_LT(on.value().stats.candidates, on.value().stats.filter_scanned);
  // Per-query MODE EXACT overrides the engine default.
  const Result<QueryResult> off =
      db.ExecuteText("RANGE r WITHIN 0.4 OF #walk0 VIA SCAN MODE EXACT");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.value().stats.used_filter);
  ExpectSameMatches(off.value(), on.value(), "toggle");
}

TEST(FilterEquivalence, CodesRebuildAfterMutationLikeTheSnapshot) {
  std::vector<TimeSeries> series = TieHeavyWorkload(8, 24, 83);
  Database db = BuildDatabase(series, 2, 8);
  const QueryResult before = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 1.0 OF #walk0 VIA SCAN", "before insert");
  // Mutate one shard: the new record lands in the delta layer, so the
  // compiled codes stay put -- it is exact-checked, not code-scanned --
  // and the answer must still match the exact engine (which sees it too).
  TimeSeries extra = series[0];
  extra.id = "fresh";
  extra.values[3] += 0.01;
  ASSERT_TRUE(db.Insert("r", extra).ok());
  const QueryResult after = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 1.0 OF #walk0 VIA SCAN", "after insert");
  EXPECT_EQ(after.stats.filter_scanned, before.stats.filter_scanned);
  // Recompaction folds the delta row into a fresh generation of codes;
  // only then does the code scan cover it.
  ASSERT_TRUE(db.Recompact("r").ok());
  const QueryResult folded = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 1.0 OF #walk0 VIA SCAN", "after recompact");
  EXPECT_EQ(folded.stats.filter_scanned, before.stats.filter_scanned + 1);
  // The new record is an eps-0 duplicate up to the tweak; make sure it
  // can actually be found through the filter.
  const Result<QueryResult> probe =
      db.ExecuteText("NEAREST 2 r TO #fresh VIA SCAN MODE FILTERED");
  ASSERT_TRUE(probe.ok());
  ASSERT_FALSE(probe.value().matches.empty());
  EXPECT_EQ(probe.value().matches[0].name, "fresh");
}

TEST(FilterEquivalence, FoldsBuildCodesOnlyWhereAQueryCompiledThem) {
  std::vector<TimeSeries> series = TieHeavyWorkload(8, 24, 89);
  Database db = BuildDatabase(series, 2, 8);
  const ShardedRelation& data = db.GetRelation("r")->sharded();
  TimeSeries extra = series[0];
  extra.id = "fresh";
  extra.values[3] += 0.01;
  ASSERT_TRUE(db.Insert("r", extra).ok());
  // No filtered query has compiled codes, so the fold builds none: the
  // caches stay empty but fresh.
  ASSERT_TRUE(db.Recompact("r").ok());
  for (int s = 0; s < data.num_shards(); ++s) {
    EXPECT_EQ(data.shard(s).quantized_codes_if_fresh(8), nullptr) << s;
  }
  // The next filtered query compiles them lazily, over every row.
  ExpectFilteredMatchesExact(db, "NEAREST 5 r TO #fresh VIA SCAN",
                             "after a fold without codes");
  for (int s = 0; s < data.num_shards(); ++s) {
    const QuantizedCodes* codes = data.shard(s).quantized_codes_if_fresh(8);
    ASSERT_NE(codes, nullptr) << s;
    EXPECT_EQ(codes->size(), data.shard(s).size()) << s;
  }
}

TEST(FilterEquivalence, RawModeAndNonSpectralRulesFallBackExactly) {
  const std::vector<TimeSeries> series = TieHeavyWorkload(8, 24, 97);
  const Database db = BuildDatabase(series, 2, 8);
  // kRaw distances are not in the quantized (normal-form spectral) space:
  // the filter must decline and the answers must still match.
  const QueryResult raw = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 50 OF #walk0 VIA SCAN MODE RAW", "raw mode");
  EXPECT_FALSE(raw.stats.used_filter);
  // despike is non-spectral: time-domain fallback, filter off.
  const QueryResult despiked = ExpectFilteredMatchesExact(
      db, "RANGE r WITHIN 2.0 OF #walk0 USING despike(4) VIA SCAN",
      "non-spectral rule");
  EXPECT_FALSE(despiked.stats.used_filter);
}

}  // namespace
}  // namespace simq
