// Property tests for the columnar execution engine: on randomized
// workloads, every execution strategy (index, early-abandoning scan, full
// scan) must return exactly the same answer set, and the batched columnar
// kernels must agree with a record-at-a-time AoS reference computed
// directly from the stored spectra. The shard stores must hold exactly
// the features of each record's raw values, and the exact checks that
// bypass the columnar kernels must reproduce the record-at-a-time
// formulas bit for bit. Epsilons are chosen as midpoints between
// consecutive reference distances so no answer sits on a rounding
// knife-edge.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/feature_store.h"
#include "core/transformation.h"
#include "ts/dft.h"
#include "ts/feature.h"
#include "ts/transforms.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace simq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::set<int64_t> MatchIds(const QueryResult& result) {
  std::set<int64_t> ids;
  for (const Match& match : result.matches) {
    ids.insert(match.id);
  }
  return ids;
}

std::set<std::pair<int64_t, int64_t>> PairSet(const QueryResult& result) {
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const PairMatch& pair : result.pairs) {
    pairs.emplace(pair.first, pair.second);
  }
  return pairs;
}

// Record-at-a-time reference: normal-form distance between T(x) and q in
// the time domain, the semantics the AoS engine implemented before the
// columnar refactor.
double ReferenceDistance(const std::vector<double>& data_raw,
                         const std::vector<double>& query_raw,
                         const TransformationRule* rule) {
  std::vector<double> lhs = ToNormalForm(data_raw).values;
  if (rule != nullptr) {
    lhs = rule->Apply(lhs);
  }
  return EuclideanDistance(lhs, ToNormalForm(query_raw).values);
}

// An epsilon with clearance on both sides: midway between the k-th and
// (k+1)-th smallest distances (skipping near-ties).
double MidpointEpsilon(std::vector<double> distances, size_t k) {
  std::sort(distances.begin(), distances.end());
  k = std::min(k, distances.size() - 2);
  for (size_t i = k; i + 1 < distances.size(); ++i) {
    if (distances[i + 1] - distances[i] > 1e-6) {
      return 0.5 * (distances[i] + distances[i + 1]);
    }
  }
  return distances.back() + 1.0;
}

struct RuleCase {
  const char* name;
  std::shared_ptr<const TransformationRule> rule;
};

std::vector<RuleCase> IndexableRules() {
  std::vector<RuleCase> rules;
  rules.push_back({"identity", nullptr});
  rules.push_back({"mavg7", MakeMovingAverageRule(7)});
  rules.push_back({"reverse", MakeReverseRule()});
  return rules;
}

TEST(ColumnarEquivalenceTest, RangeStrategiesAgreeOnRandomWorkloads) {
  for (const uint64_t seed : {11u, 29u, 73u}) {
    for (const int length : {64, 100}) {
      const std::vector<TimeSeries> series =
          workload::RandomWalkSeries(200, length, seed);
      Database db;
      ASSERT_TRUE(db.CreateRelation("r").ok());
      ASSERT_TRUE(db.BulkLoad("r", series).ok());

      for (const RuleCase& rule_case : IndexableRules()) {
        const TransformationRule* rule = rule_case.rule.get();
        const std::vector<double>& probe = series[seed % 7].values;

        std::vector<double> reference;
        reference.reserve(series.size());
        for (const TimeSeries& ts : series) {
          reference.push_back(ReferenceDistance(ts.values, probe, rule));
        }
        const double epsilon = MidpointEpsilon(reference, 12);
        std::set<int64_t> expected;
        for (size_t i = 0; i < reference.size(); ++i) {
          if (reference[i] <= epsilon) {
            expected.insert(static_cast<int64_t>(i));
          }
        }

        Query query;
        query.kind = QueryKind::kRange;
        query.relation = "r";
        query.query_series.literal = probe;  // semantics: D(T(x), q)
        query.epsilon = epsilon;
        query.transform = rule_case.rule;

        QueryResult results[3];
        const ExecutionStrategy strategies[] = {
            ExecutionStrategy::kIndex, ExecutionStrategy::kScan,
            ExecutionStrategy::kScanNoEarlyAbandon};
        for (int s = 0; s < 3; ++s) {
          query.strategy = strategies[s];
          const Result<QueryResult> result = db.Execute(query);
          ASSERT_TRUE(result.ok())
              << rule_case.name << ": " << result.status().ToString();
          results[s] = result.value();
        }
        for (int s = 0; s < 3; ++s) {
          EXPECT_EQ(MatchIds(results[s]), expected)
              << "rule=" << rule_case.name << " strategy=" << s
              << " seed=" << seed << " length=" << length;
        }
        // Index and scan must agree exactly; the time-domain reference
        // only up to FFT rounding.
        for (const Match& match : results[0].matches) {
          EXPECT_NEAR(match.distance,
                      reference[static_cast<size_t>(match.id)], 1e-8);
        }
      }
    }
  }
}

TEST(ColumnarEquivalenceTest, NearestStrategiesAgreeOnRandomWorkloads) {
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(300, 128, 5);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", series).ok());

  for (const RuleCase& rule_case : IndexableRules()) {
    Query query;
    query.kind = QueryKind::kNearest;
    query.relation = "r";
    query.query_series.literal = series[17].values;
    query.k = 9;
    query.transform = rule_case.rule;

    query.strategy = ExecutionStrategy::kIndex;
    const Result<QueryResult> via_index = db.Execute(query);
    query.strategy = ExecutionStrategy::kScan;
    const Result<QueryResult> via_scan = db.Execute(query);
    ASSERT_TRUE(via_index.ok());
    ASSERT_TRUE(via_scan.ok());
    ASSERT_EQ(via_index.value().matches.size(),
              via_scan.value().matches.size());
    for (size_t i = 0; i < via_scan.value().matches.size(); ++i) {
      EXPECT_EQ(via_index.value().matches[i].id,
                via_scan.value().matches[i].id)
          << rule_case.name;
      EXPECT_NEAR(via_index.value().matches[i].distance,
                  via_scan.value().matches[i].distance, 1e-9);
    }
  }
}

TEST(ColumnarEquivalenceTest, JoinMethodsAgreeOnStockWorkload) {
  workload::StockMarketOptions options;
  options.num_series = 220;
  const std::vector<TimeSeries> market = workload::StockMarket(options);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", market).ok());
  const auto mavg = MakeMovingAverageRule(20);

  // Reference pair distances from the time domain.
  const Relation* relation = db.GetRelation("r");
  std::vector<std::vector<double>> smoothed;
  smoothed.reserve(static_cast<size_t>(relation->size()));
  for (const Record& record : relation->records()) {
    smoothed.push_back(mavg->Apply(ToNormalForm(record.raw).values));
  }
  std::vector<double> pair_distances;
  for (size_t i = 0; i < smoothed.size(); ++i) {
    for (size_t j = i + 1; j < smoothed.size(); ++j) {
      pair_distances.push_back(
          EuclideanDistance(smoothed[i], smoothed[j]));
    }
  }
  const double epsilon = MidpointEpsilon(pair_distances, 10);

  const Result<QueryResult> full =
      db.SelfJoin("r", epsilon, mavg.get(), JoinMethod::kFullScan);
  const Result<QueryResult> abandon =
      db.SelfJoin("r", epsilon, mavg.get(), JoinMethod::kScanEarlyAbandon);
  const Result<QueryResult> indexed =
      db.SelfJoin("r", epsilon, mavg.get(), JoinMethod::kIndexTransform);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(abandon.ok());
  ASSERT_TRUE(indexed.ok());

  EXPECT_EQ(PairSet(full.value()), PairSet(abandon.value()));

  // The scan methods report each unordered pair once; the index method
  // reports both orientations (Table 1 accounting).
  std::set<std::pair<int64_t, int64_t>> both_orientations;
  for (const auto& [i, j] : PairSet(abandon.value())) {
    both_orientations.emplace(i, j);
    both_orientations.emplace(j, i);
  }
  EXPECT_EQ(PairSet(indexed.value()), both_orientations);

  // Reference check: the scan join answers match the time domain.
  std::set<std::pair<int64_t, int64_t>> expected;
  for (size_t i = 0; i < smoothed.size(); ++i) {
    for (size_t j = i + 1; j < smoothed.size(); ++j) {
      if (EuclideanDistance(smoothed[i], smoothed[j]) <= epsilon) {
        expected.emplace(static_cast<int64_t>(i), static_cast<int64_t>(j));
      }
    }
  }
  EXPECT_EQ(PairSet(abandon.value()), expected);
}

TEST(ColumnarEquivalenceTest, AsymmetricJoinAgreesAcrossMethods) {
  // The hedging join r >< T_rev(r): scan and index methods both report
  // ordered pairs, so their answer sets must be identical.
  workload::StockMarketOptions options;
  options.num_series = 150;
  const std::vector<TimeSeries> market = workload::StockMarket(options);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", market).ok());
  const auto reverse = MakeReverseRule();

  const Relation* relation = db.GetRelation("r");
  std::vector<double> pair_distances;
  for (int64_t i = 0; i < relation->size(); ++i) {
    for (int64_t j = 0; j < relation->size(); ++j) {
      if (i == j) {
        continue;
      }
      pair_distances.push_back(EuclideanDistance(
          ToNormalForm(relation->record(i).raw).values,
          reverse->Apply(ToNormalForm(relation->record(j).raw).values)));
    }
  }
  const double epsilon = MidpointEpsilon(pair_distances, 8);

  const Result<QueryResult> scan = db.SelfJoin(
      "r", epsilon, nullptr, reverse.get(), JoinMethod::kScanEarlyAbandon);
  const Result<QueryResult> indexed = db.SelfJoin(
      "r", epsilon, nullptr, reverse.get(), JoinMethod::kIndexTransform);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_FALSE(PairSet(scan.value()).empty());
  EXPECT_EQ(PairSet(scan.value()), PairSet(indexed.value()));
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Every shard row must be ComputeFeatures / ToNormalForm of the record's
// raw values, bit for bit: the stores are the only copy of that data.
void ExpectStoresMatchRaw(const Relation& relation) {
  const ShardedRelation& data = relation.sharded();
  int64_t rows = 0;
  for (int s = 0; s < data.num_shards(); ++s) {
    const RelationShard& shard = data.shard(s);
    const FeatureStore& store = shard.store();
    ASSERT_EQ(store.size(), shard.size());
    rows += store.size();
    for (int64_t local = 0; local < store.size(); ++local) {
      const std::vector<double>& raw =
          relation.record(shard.global_id(local)).raw;
      const SeriesFeatures features = ComputeFeatures(raw);
      const std::vector<double> normal = ToNormalForm(raw).values;
      ASSERT_EQ(store.spectrum_length(), features.length());
      ASSERT_EQ(store.series_length(), static_cast<int>(normal.size()));
      EXPECT_EQ(Bits(store.mean(local)), Bits(features.mean));
      EXPECT_EQ(Bits(store.std_dev(local)), Bits(features.std_dev));
      const double* row = store.SpectrumRow(local);
      for (int f = 0; f < features.length(); ++f) {
        const Complex& c = features.normal_spectrum[static_cast<size_t>(f)];
        EXPECT_EQ(Bits(row[2 * f]), Bits(c.real()));
        EXPECT_EQ(Bits(row[2 * f + 1]), Bits(c.imag()));
      }
      const double* normal_row = store.NormalRow(local);
      for (size_t t = 0; t < normal.size(); ++t) {
        EXPECT_EQ(Bits(normal_row[t]), Bits(normal[t]));
      }
    }
  }
  EXPECT_EQ(rows, relation.size());
}

TEST(ColumnarEquivalenceTest, ShardStoresHoldFeaturesOfRaw) {
  const std::vector<TimeSeries> loaded = workload::RandomWalkSeries(50, 33, 3);
  std::vector<TimeSeries> inserted = workload::RandomWalkSeries(20, 33, 4);
  for (size_t i = 0; i < inserted.size(); ++i) {
    inserted[i].id = "ins" + std::to_string(i);
  }
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardingOptions sharding;
    sharding.num_shards = shards;
    Database db(FeatureConfig(), RTree::Options(), sharding);
    ASSERT_TRUE(db.CreateRelation("r").ok());
    ASSERT_TRUE(db.BulkLoad("r", loaded).ok());
    ExpectStoresMatchRaw(*db.GetRelation("r"));
    for (const TimeSeries& ts : inserted) {
      ASSERT_TRUE(db.Insert("r", ts).ok());
    }
    ExpectStoresMatchRaw(*db.GetRelation("r"));
  }
}

// Per-record reference formulas for the exact checks that bypass the
// columnar kernels (expanding spectral rules, non-spectral rules, raw
// mode), written against representations computed here from raw values.
// RefFreqDistance is the record-at-a-time wraparound distance over a
// complex spectrum, early-abandoning like the engine's. noipa keeps it
// one generic function, as in the engine: the build contracts to FMA, and
// a copy specialized to this file's call sites (a multiplier known to be
// present) may round the last bit differently.
__attribute__((noipa)) double RefFreqDistance(const Spectrum& data,
                                              const Spectrum& query,
                                              const Spectrum* multiplier,
                                              double threshold) {
  const int n = static_cast<int>(data.size());
  const int out_n =
      multiplier != nullptr ? static_cast<int>(multiplier->size()) : n;
  const double limit = threshold == kInf ? kInf : threshold * threshold;
  double sum = 0.0;
  for (int f = 0; f < out_n; ++f) {
    Complex value = data[static_cast<size_t>(f % n)];
    if (multiplier != nullptr) {
      value *= (*multiplier)[static_cast<size_t>(f)];
    }
    sum += std::norm(value - query[static_cast<size_t>(f)]);
    if (sum > limit) {
      return kInf;
    }
  }
  return std::sqrt(sum);
}

Spectrum RefMultiplier(const TransformationRule& rule, int n) {
  Spectrum multiplier(static_cast<size_t>(rule.OutputLength(n)));
  for (size_t f = 0; f < multiplier.size(); ++f) {
    multiplier[f] = *rule.Multiplier(static_cast<int>(f), n);
  }
  return multiplier;
}

// Time-domain check: `rule` (may be null) applied to the data values.
double RefTimeDistance(std::vector<double> values,
                       const TransformationRule* rule,
                       const std::vector<double>& query, double threshold) {
  if (rule != nullptr) {
    values = rule->Apply(values);
  }
  return threshold == kInf
             ? EuclideanDistance(values, query)
             : EuclideanDistanceEarlyAbandon(values, query, threshold);
}

// Expected range answer: ids whose reference distance (at the engine's
// threshold, epsilon) is within epsilon, in (distance, id) order.
std::vector<Match> RefRange(const std::vector<double>& distances,
                            double epsilon) {
  std::vector<Match> matches;
  for (size_t id = 0; id < distances.size(); ++id) {
    if (distances[id] <= epsilon) {
      matches.push_back(Match{static_cast<int64_t>(id), "", distances[id]});
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.id < b.id;
            });
  return matches;
}

std::vector<Match> RefNearest(const std::vector<double>& distances, int k) {
  std::vector<Match> matches = RefRange(distances, kInf);
  matches.resize(std::min(matches.size(), static_cast<size_t>(k)));
  return matches;
}

void ExpectSameMatches(const Result<QueryResult>& result,
                       const std::vector<Match>& expected,
                       const std::string& label) {
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  const std::vector<Match>& got = result.value().matches;
  ASSERT_EQ(got.size(), expected.size()) << label;
  EXPECT_FALSE(got.empty()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << label << " rank " << i;
    EXPECT_EQ(Bits(got[i].distance), Bits(expected[i].distance))
        << label << " rank " << i;
  }
}

TEST(ColumnarEquivalenceTest, FallbackExactChecksMatchRecordFormulas) {
  constexpr int kLength = 32;
  constexpr int kCount = 60;
  constexpr int kNearest = 5;
  const std::vector<TimeSeries> series =
      workload::RandomWalkSeries(kCount, kLength, 11);
  std::vector<SeriesFeatures> features;
  std::vector<std::vector<double>> normals;
  for (const TimeSeries& ts : series) {
    features.push_back(ComputeFeatures(ts.values));
    normals.push_back(ToNormalForm(ts.values).values);
  }
  const std::shared_ptr<const TransformationRule> warp = MakeTimeWarpRule(2);
  const std::shared_ptr<const TransformationRule> despike =
      MakeDespikeRule(0.5);
  const std::shared_ptr<const TransformationRule> mavg =
      MakeMovingAverageRule(4);

  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardingOptions sharding;
    sharding.num_shards = shards;
    Database db(FeatureConfig(), RTree::Options(), sharding);
    ASSERT_TRUE(db.CreateRelation("r").ok());
    ASSERT_TRUE(db.BulkLoad("r", series).ok());

    // warp(2): an expanding spectral rule, checked by the wraparound
    // frequency-domain distance under both strategies.
    {
      const std::vector<double> literal = warp->Apply(normals[5]);
      const Spectrum query_spectrum = Dft(ToNormalForm(literal).values);
      const Spectrum multiplier = RefMultiplier(*warp, kLength);
      std::vector<double> unbounded;
      for (const SeriesFeatures& f : features) {
        unbounded.push_back(RefFreqDistance(f.normal_spectrum, query_spectrum,
                                            &multiplier, kInf));
      }
      const double epsilon = MidpointEpsilon(unbounded, 8);
      std::vector<double> bounded;
      for (const SeriesFeatures& f : features) {
        bounded.push_back(RefFreqDistance(f.normal_spectrum, query_spectrum,
                                          &multiplier, epsilon));
      }
      Query query;
      query.relation = "r";
      query.query_series.literal = literal;
      query.transform = warp;
      for (const ExecutionStrategy strategy :
           {ExecutionStrategy::kScan, ExecutionStrategy::kIndex}) {
        const std::string via =
            strategy == ExecutionStrategy::kScan ? "scan" : "index";
        query.strategy = strategy;
        query.kind = QueryKind::kRange;
        query.epsilon = epsilon;
        ExpectSameMatches(db.Execute(query), RefRange(bounded, epsilon),
                          "warp range via " + via);
        query.kind = QueryKind::kNearest;
        query.k = kNearest;
        ExpectSameMatches(db.Execute(query), RefNearest(unbounded, kNearest),
                          "warp nearest via " + via);
      }
    }

    // MODE RAW: the time-domain distance over raw values, with no rule
    // (range) and under a spectral rule the raw mode cannot lower
    // (nearest).
    {
      const std::vector<double>& query_raw = series[9].values;
      std::vector<double> unbounded;
      for (const TimeSeries& ts : series) {
        unbounded.push_back(
            RefTimeDistance(ts.values, nullptr, query_raw, kInf));
      }
      const double epsilon = MidpointEpsilon(unbounded, 6);
      std::vector<double> bounded;
      std::vector<double> smoothed;
      for (const TimeSeries& ts : series) {
        bounded.push_back(
            RefTimeDistance(ts.values, nullptr, query_raw, epsilon));
        smoothed.push_back(
            RefTimeDistance(ts.values, mavg.get(), query_raw, kInf));
      }
      Query query;
      query.relation = "r";
      query.query_series.id = 9;
      query.mode = DistanceMode::kRaw;
      query.kind = QueryKind::kRange;
      query.epsilon = epsilon;
      ExpectSameMatches(db.Execute(query), RefRange(bounded, epsilon),
                        "raw range");
      query.kind = QueryKind::kNearest;
      query.k = kNearest;
      query.transform = mavg;
      ExpectSameMatches(db.Execute(query), RefNearest(smoothed, kNearest),
                        "raw nearest under mavg(4)");
    }

    // A non-spectral rule: the time-domain distance over normal forms, in
    // a range query and in a scanned self-join.
    {
      const std::vector<double>& query_normal = normals[3];
      std::vector<double> unbounded;
      for (const std::vector<double>& normal : normals) {
        unbounded.push_back(
            RefTimeDistance(normal, despike.get(), query_normal, kInf));
      }
      const double epsilon = MidpointEpsilon(unbounded, 6);
      std::vector<double> bounded;
      for (const std::vector<double>& normal : normals) {
        bounded.push_back(
            RefTimeDistance(normal, despike.get(), query_normal, epsilon));
      }
      Query query;
      query.relation = "r";
      query.query_series.id = 3;
      query.transform = despike;
      query.kind = QueryKind::kRange;
      query.epsilon = epsilon;
      ExpectSameMatches(db.Execute(query), RefRange(bounded, epsilon),
                        "despike range");

      std::vector<std::vector<double>> despiked;
      for (const std::vector<double>& normal : normals) {
        despiked.push_back(despike->Apply(normal));
      }
      std::vector<double> pair_distances;
      for (int i = 0; i < kCount; ++i) {
        for (int j = i + 1; j < kCount; ++j) {
          pair_distances.push_back(EuclideanDistance(
              despiked[static_cast<size_t>(i)],
              despiked[static_cast<size_t>(j)]));
        }
      }
      const double pair_epsilon = MidpointEpsilon(pair_distances, 10);
      std::vector<PairMatch> expected;
      for (int i = 0; i < kCount; ++i) {
        for (int j = i + 1; j < kCount; ++j) {
          const double distance = EuclideanDistanceEarlyAbandon(
              despiked[static_cast<size_t>(i)],
              despiked[static_cast<size_t>(j)], pair_epsilon);
          if (distance <= pair_epsilon) {
            expected.push_back(PairMatch{i, j, distance});
          }
        }
      }
      Query pairs;
      pairs.kind = QueryKind::kAllPairs;
      pairs.relation = "r";
      pairs.epsilon = pair_epsilon;
      pairs.transform = despike;
      pairs.strategy = ExecutionStrategy::kScan;
      const Result<QueryResult> result = db.Execute(pairs);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::vector<PairMatch>& got = result.value().pairs;
      ASSERT_EQ(got.size(), expected.size());
      EXPECT_FALSE(got.empty());
      for (size_t p = 0; p < got.size(); ++p) {
        EXPECT_EQ(got[p].first, expected[p].first) << "pair " << p;
        EXPECT_EQ(got[p].second, expected[p].second) << "pair " << p;
        EXPECT_EQ(Bits(got[p].distance), Bits(expected[p].distance))
            << "pair " << p;
      }
    }
  }
}

TEST(ColumnarEquivalenceTest, KernelsMatchComplexArithmetic) {
  // Direct kernel-vs-AoS check: the batched kernels must agree with naive
  // std::complex arithmetic over the same spectra to reassociation noise,
  // and must abandon iff the full sum exceeds the limit.
  Random rng(99);
  const int n = 37;
  Spectrum a(static_cast<size_t>(n)), b(static_cast<size_t>(n)),
      m(static_cast<size_t>(n));
  for (int f = 0; f < n; ++f) {
    a[static_cast<size_t>(f)] = Complex(rng.NextGaussian(),
                                        rng.NextGaussian());
    b[static_cast<size_t>(f)] = Complex(rng.NextGaussian(),
                                        rng.NextGaussian());
    m[static_cast<size_t>(f)] = Complex(rng.NextGaussian(),
                                        rng.NextGaussian());
  }
  const std::vector<double> a_ri = InterleaveSpectrum(a);
  const std::vector<double> b_ri = InterleaveSpectrum(b);
  const std::vector<double> m_ri = InterleaveSpectrum(m);

  double plain = 0.0, with_mult = 0.0, two_sided = 0.0;
  for (int f = 0; f < n; ++f) {
    plain += std::norm(a[static_cast<size_t>(f)] - b[static_cast<size_t>(f)]);
    with_mult += std::norm(a[static_cast<size_t>(f)] *
                               m[static_cast<size_t>(f)] -
                           b[static_cast<size_t>(f)]);
    two_sided += std::norm(a[static_cast<size_t>(f)] *
                               m[static_cast<size_t>(f)] -
                           b[static_cast<size_t>(f)] *
                               m[static_cast<size_t>(f)]);
  }
  EXPECT_NEAR(RowDistanceSq(a_ri.data(), b_ri.data(), n, kInf), plain,
              1e-12 * plain);
  EXPECT_NEAR(
      RowDistanceSqMult(a_ri.data(), m_ri.data(), b_ri.data(), n, kInf),
      with_mult, 1e-12 * with_mult);
  EXPECT_NEAR(RowDistanceSqTwoSided(a_ri.data(), b_ri.data(), m_ri.data(),
                                    m_ri.data(), n, kInf),
              two_sided, 1e-12 * two_sided);

  // Abandoning: a limit below the total must yield +infinity, a limit
  // above it the exact value.
  EXPECT_EQ(RowDistanceSq(a_ri.data(), b_ri.data(), n, plain * 0.5), kInf);
  EXPECT_LT(RowDistanceSq(a_ri.data(), b_ri.data(), n, plain * 2.0), kInf);
}

}  // namespace
}  // namespace simq
