// Key identity: CanonicalQueryKey and QueryFingerprint must produce, byte
// for byte, what the original ostringstream renderer (kept below as the
// reference) produced. The key is shown by the statements table, `.top`,
// `/statements`, the STATEMENTS frame and the slow-query log, and keys
// every result-cache entry, so its bytes are part of the interface.

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parser.h"
#include "core/transformation.h"
#include "service/fingerprint.h"

namespace simq {
namespace {

// --- the reference renderer ---

void RefAppendBits(std::ostringstream* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  *out << std::hex << bits << std::dec;
}

void RefAppendSeries(std::ostringstream* out, const SeriesRef& series) {
  if (series.id.has_value()) {
    *out << "i" << *series.id;
  } else if (series.name.has_value()) {
    *out << "n" << series.name->size() << ":" << *series.name;
  } else {
    *out << "l";
    for (const double value : series.literal) {
      *out << ",";
      RefAppendBits(out, value);
    }
  }
}

void RefAppendRange(std::ostringstream* out, const char* tag,
                    const std::optional<std::pair<double, double>>& range) {
  if (!range.has_value()) {
    return;
  }
  *out << "|" << tag << "=";
  RefAppendBits(out, range->first);
  *out << ":";
  RefAppendBits(out, range->second);
}

std::string ReferenceKey(const Query& query) {
  std::ostringstream out;
  switch (query.kind) {
    case QueryKind::kRange:
      out << "R";
      break;
    case QueryKind::kAllPairs:
      out << "P";
      break;
    case QueryKind::kNearest:
      out << "N";
      break;
  }
  out << "|" << query.relation.size() << ":" << query.relation;
  if (query.kind == QueryKind::kNearest) {
    out << "|k=" << query.k;
  } else {
    out << "|e=";
    RefAppendBits(&out, query.epsilon);
  }
  if (query.kind != QueryKind::kAllPairs) {
    out << "|q=";
    RefAppendSeries(&out, query.query_series);
  }
  if (query.transform != nullptr) {
    out << "|t=" << query.transform->name();
  }
  if (query.transform_right != nullptr) {
    out << "|tr=" << query.transform_right->name();
  }
  out << "|m=" << (query.mode == DistanceMode::kNormalForm ? "N" : "R");
  out << "|s=" << static_cast<int>(query.strategy);
  if (query.filter != FilterMode::kDefault) {
    out << "|f=" << static_cast<int>(query.filter);
  }
  if (query.query_prenormalized) {
    out << "|pn";
  }
  if (query.pattern.kind == Pattern::Kind::kConstant) {
    out << "|pc=" << query.pattern.constant_id.value_or(-1);
  }
  RefAppendRange(&out, "mean", query.pattern.mean_range);
  RefAppendRange(&out, "std", query.pattern.std_range);
  return out.str();
}

uint64_t ReferenceFingerprint(const Query& query) {
  const std::string key = ReferenceKey(query);
  uint64_t hash = 1469598103934665603ull;
  for (const char c : key) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// --- random queries of every kind ---

class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  // Doubles from every class the key must render exactly.
  double AnyDouble() {
    switch (Pick(9)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2:
        return std::numeric_limits<double>::infinity();
      case 3:
        return -std::numeric_limits<double>::infinity();
      case 4:  // NaN with a random payload and sign
        return FromBits((rng_() & 0x800fffffffffffffull) |
                        0x7ff0000000000001ull);
      case 5:  // subnormal
        return FromBits((rng_() & 0x800fffffffffffffull) | 1);
      case 6:  // small integers
        return static_cast<double>(static_cast<int>(Pick(41)) - 20);
      case 7:
        return std::uniform_real_distribution<double>(-10.0, 10.0)(rng_);
      default:
        return FromBits(rng_());
    }
  }

  std::string AnyName() {
    static const char kChars[] = "abcXYZ_019|:@,# ";
    std::string name;
    const size_t length = Pick(12);
    for (size_t i = 0; i < length; ++i) {
      name += kChars[Pick(sizeof(kChars) - 1)];
    }
    return name;
  }

  std::unique_ptr<TransformationRule> AnySimpleRule() {
    switch (Pick(9)) {
      case 0:
        return MakeMovingAverageRule(1 + static_cast<int>(Pick(40)));
      case 1:
        return MakeReverseRule();
      case 2:
        return MakeTimeWarpRule(1 + static_cast<int>(Pick(4)));
      case 3:
        return MakeShiftRule(AnyDouble());
      case 4:
        return MakeScaleRule(AnyDouble());
      case 5:
        return MakeDespikeRule(
            std::uniform_real_distribution<double>(0.0, 5.0)(rng_));
      case 6:
        return MakeDifferenceRule();
      case 7:
        return MakeExponentialSmoothingRule(
            std::uniform_real_distribution<double>(0.05, 1.0)(rng_));
      default:
        return MakeWeightedMovingAverageRule({AnyDouble(), AnyDouble()});
    }
  }

  std::shared_ptr<const TransformationRule> AnyRule() {
    switch (Pick(3)) {
      case 0:
        return nullptr;
      case 1:
        return AnySimpleRule();
      default: {
        std::vector<std::unique_ptr<TransformationRule>> rules;
        const size_t count = 2 + Pick(3);
        for (size_t i = 0; i < count; ++i) {
          rules.push_back(AnySimpleRule());
        }
        return MakeCompositeRule(std::move(rules));
      }
    }
  }

  Query AnyQuery() {
    Query query;
    query.kind = static_cast<QueryKind>(Pick(3));
    query.relation = AnyName();
    query.epsilon = AnyDouble();
    query.k = Pick(4) == 0 ? std::numeric_limits<int>::max()
                           : static_cast<int>(Pick(1000)) - 5;
    switch (Pick(3)) {
      case 0:
        query.query_series.id = static_cast<int64_t>(rng_());
        break;
      case 1:
        query.query_series.name = AnyName();
        break;
      default: {
        const size_t length = Pick(4) == 0 ? 128 + Pick(200) : Pick(8);
        for (size_t i = 0; i < length; ++i) {
          query.query_series.literal.push_back(AnyDouble());
        }
        break;
      }
    }
    query.transform = AnyRule();
    query.transform_right = Pick(3) == 0 ? AnyRule() : nullptr;
    query.mode = Pick(2) == 0 ? DistanceMode::kNormalForm : DistanceMode::kRaw;
    query.strategy = static_cast<ExecutionStrategy>(Pick(4));
    query.filter = static_cast<FilterMode>(Pick(3));
    query.query_prenormalized = Pick(2) == 0;
    if (Pick(3) == 0) {
      query.pattern.kind = Pattern::Kind::kConstant;
      if (Pick(2) == 0) {
        query.pattern.constant_id = static_cast<int64_t>(rng_());
      }
    }
    if (Pick(2) == 0) {
      query.pattern.mean_range = std::make_pair(AnyDouble(), AnyDouble());
    }
    if (Pick(2) == 0) {
      query.pattern.std_range = std::make_pair(AnyDouble(), AnyDouble());
    }
    query.explain = Pick(2) == 0;
    query.analyze = Pick(2) == 0;
    return query;
  }

 private:
  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

  static double FromBits(uint64_t bits) {
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::mt19937_64 rng_;
};

TEST(FingerprintIdentityTest, RandomQueriesMatchTheReferenceRenderer) {
  QueryGenerator generator(2026);
  for (int i = 0; i < 5000; ++i) {
    const Query query = generator.AnyQuery();
    const std::string key = CanonicalQueryKey(query);
    ASSERT_EQ(key, ReferenceKey(query)) << "query " << i;
    EXPECT_EQ(QueryFingerprint(query), ReferenceFingerprint(query));
    EXPECT_EQ(KeyFingerprint(key), QueryFingerprint(query));
  }
}

TEST(FingerprintIdentityTest, EdgeValuesMatchTheReferenceRenderer) {
  Query query;
  query.relation = "r";
  query.epsilon = -0.0;
  query.query_series.literal = {
      -0.0,
      0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
  };
  query.pattern.mean_range = std::make_pair(-0.0, 0.0);
  query.pattern.std_range = std::make_pair(
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity());
  for (const QueryKind kind :
       {QueryKind::kRange, QueryKind::kAllPairs, QueryKind::kNearest}) {
    query.kind = kind;
    EXPECT_EQ(CanonicalQueryKey(query), ReferenceKey(query));
    EXPECT_EQ(QueryFingerprint(query), ReferenceFingerprint(query));
  }
  query.k = std::numeric_limits<int>::min();
  query.query_series.literal.clear();
  query.query_series.id = std::numeric_limits<int64_t>::min();
  query.pattern.kind = Pattern::Kind::kConstant;
  EXPECT_EQ(CanonicalQueryKey(query), ReferenceKey(query));
  query.pattern.constant_id = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(CanonicalQueryKey(query), ReferenceKey(query));
}

TEST(FingerprintIdentityTest, ParsedQueriesMatchTheReferenceRenderer) {
  for (const char* text : {
           "RANGE r WITHIN 2.5 OF [1, -0.0, -nan(123), +inf, 4.9e-324] "
           "USING mavg(20)|reverse|scale(-2.5) MODE RAW VIA SCAN "
           "PRENORMALIZED MEAN -1 1 STD 0 2",
           "NEAREST 10 r TO #series_0042 VIA SCAN MODE FILTERED",
           "PAIRS stocks WITHIN 1e-3 USING mavg(4) VS reverse|mavg(4) "
           "VIA INDEX MODE EXACT",
           "EXPLAIN ANALYZE NEAREST 3 r TO [0x1p-1074, 1e999, -1e-400] "
           "USING warp(2)|ewma(0.25)|despike(0.5)|diff|shift(1)|identity",
       }) {
    const Result<Query> parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(CanonicalQueryKey(parsed.value()), ReferenceKey(parsed.value()))
        << text;
    EXPECT_EQ(QueryFingerprint(parsed.value()),
              ReferenceFingerprint(parsed.value()))
        << text;
  }
}

}  // namespace
}  // namespace simq
