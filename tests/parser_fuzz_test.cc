// Parser fuzz and differential tests.
//
//  * The number scanner against std::strtod: for every token t of a
//    generated corpus, "RANGE r WITHIN t OF [t, 2]" parses exactly when t
//    starts a number (a digit, a sign or '.') and strtod consumes t whole,
//    and epsilon and the first literal carry strtod's bits.
//  * Bounds: NEAREST counts, mavg windows and warp factors that are not
//    whole numbers in range (NaN, 1e300, 2^31, past kMaxRuleIntegerArg)
//    are rejected with the usual message before any cast or allocation.
//    The sanitize CI job builds this file with -fsanitize=float-cast-overflow,
//    so a cast that comes back fails it.
//  * The same integers at execution: NEAREST 2147483647 returns every row
//    on every strategy with no k-sized allocation, and warp chains that
//    stretch a series past INT_MAX values are rejected, not run at a
//    wrapped length (the sanitize job's UBSan checks the arithmetic).
//  * Robustness: random and mutated texts never crash, fail only with an
//    "at offset N" message inside the text, and no single allocation made
//    while parsing exceeds a bound linear in the text's length.
//  * Key stability: whitespace, keyword-case and clause-order variants of
//    a query give one CanonicalQueryKey.

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/parser.h"
#include "core/sharded_relation.h"
#include "core/transformation.h"
#include "service/fingerprint.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

// The largest single heap request made on this thread while
// g_watch_allocations is set. Replacing the global operator new is the
// only way to see the parser's allocations from outside it. The
// replacements stay out of line: inlined into a caller, GCC would pair
// the caller's `new` with the `free` below and warn about a mismatch.
namespace {
thread_local bool g_watch_allocations = false;
thread_local size_t g_largest_allocation = 0;
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_watch_allocations && size > g_largest_allocation) {
    g_largest_allocation = size;
  }
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  return block;
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
__attribute__((noinline)) void* operator new(
    std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
__attribute__((noinline)) void* operator new[](
    std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
__attribute__((noinline)) void operator delete(void* block) noexcept {
  std::free(block);
}
__attribute__((noinline)) void operator delete[](void* block) noexcept {
  std::free(block);
}
__attribute__((noinline)) void operator delete(void* block,
                                               std::size_t) noexcept {
  std::free(block);
}
__attribute__((noinline)) void operator delete[](void* block,
                                                 std::size_t) noexcept {
  std::free(block);
}
__attribute__((noinline)) void operator delete(
    void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
__attribute__((noinline)) void operator delete[](
    void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace simq {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool StartsNumber(const std::string& token) {
  return !token.empty() &&
         (std::isdigit(static_cast<unsigned char>(token[0])) ||
          token[0] == '-' || token[0] == '+' || token[0] == '.');
}

// The tokens the number scanner is checked on: fragments strtod consumes
// partly or not at all, plain decimals (round-trip, rounding and subnormal
// edge cases), out-of-range values, hex, inf/nan spellings with and
// without signs and payloads, and random bit patterns printed three ways.
std::vector<std::string> NumberCorpus() {
  std::vector<std::string> corpus = {
      // Fragments.
      ".", "-", "+", "-.", "+.", "..5", "--1", "+-1", "-+1", "1e", "1e+",
      "1e-", "1.5e", "1.5.3", "1e5e5", "0x", "-0x", "+0x", "0x.", "0xg",
      "0x1p", "0x1p+", "1x", "1_000",
      // Plain decimals.
      "0", "-0", "+0", "0.0", "-0.0", ".5", "-.5", "+.5", "5.", "-5.",
      "1.e5", "007", "-007.50", "1e5", "1E5", "1e+5", "1e-5", "1E-05",
      "2.5", "0.1", "0.3", "1e23", "8.98846567431158e307",
      "9007199254740993", "9007199254740995", "123456789012345678901234567890",
      "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "4.9406564584124654e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "1e-320", "-1e-320", "3e-324",
      // Out of range.
      "1e999", "-1e999", "+1e999", "1e-400", "-1e-400", "1e400",
      "1.7976931348623159e308", "1e-999999999", "1e999999999",
      "1e99999999999999999999",
      // Hex.
      "0x1p3", "0X1P3", "-0x1.8p1", "+0x10", "0x1.fffffffffffffp1023",
      "0x1p-1074", "0x1p-1080", "0x1p1024", "0xABCDEF", "0x0.8", "-0x.8p1",
      // Specials.
      "inf", "infinity", "nan", "nan(123)", "INF", "NaN", "-inf", "+inf",
      "-INF", "-infinity", "+Infinity", "-infinit", "-infinityx", "-nan",
      "+nan", "-NaN", "+NAN", "-nan(123)", "+nan(0x7b)", "-nan(abc_1)",
      "+nan(99999999999999999999999)", "-nan(", "-nan()", "-nan(1",
      "-nan(!)", "-nan(1 2)", "-nanx", "+inx", "-i", "-n",
  };
  corpus.push_back("0." + std::string(800, '0') + "1");
  corpus.push_back("1" + std::string(400, '0'));
  corpus.push_back(std::string(300, '9') + ".5");
  corpus.push_back("0." + std::string(330, '0') + "24703282292062328");
  corpus.push_back("1." + std::string(40, '0') + "1e-3");

  std::mt19937_64 rng(15);
  for (int i = 0; i < 3000; ++i) {
    uint64_t bits = rng();
    switch (i % 4) {
      case 1:  // subnormal (or zero): biased exponent 0
        bits &= 0x800fffffffffffffull;
        break;
      case 2:  // inf or a NaN with a random payload
        bits |= 0x7ff0000000000000ull;
        break;
      case 3:  // near 1.0, where most query values live
        bits = (bits & 0x800fffffffffffffull) |
               (static_cast<uint64_t>(1016 + rng() % 16) << 52);
        break;
      default:
        break;
    }
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    for (const char* format : {"%.17g", "%a", "%.5e"}) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), format, value);
      const std::string printed = buf;
      corpus.push_back(printed);
      corpus.push_back(printed[0] == '-' ? "+" + printed.substr(1)
                                         : "+" + printed);
      corpus.push_back(printed[0] == '-' ? printed.substr(1) : "-" + printed);
    }
  }
  return corpus;
}

TEST(ParserNumberTest, ScannerAgreesWithStrtodOnEveryToken) {
  int accepted = 0;
  for (const std::string& token : NumberCorpus()) {
    char* stop = nullptr;
    const double expected = std::strtod(token.c_str(), &stop);
    const bool whole = stop == token.c_str() + token.size();
    const std::string text =
        "RANGE r WITHIN " + token + " OF [" + token + ", 2]";
    const Result<Query> parsed = ParseQuery(text);
    ASSERT_EQ(parsed.ok(), StartsNumber(token) && whole)
        << token << ": "
        << (parsed.ok() ? "accepted" : parsed.status().message());
    if (!parsed.ok()) {
      continue;
    }
    ++accepted;
    const Query& query = parsed.value();
    EXPECT_EQ(Bits(query.epsilon), Bits(expected)) << token;
    ASSERT_EQ(query.query_series.literal.size(), 2u) << token;
    EXPECT_EQ(Bits(query.query_series.literal[0]), Bits(expected)) << token;
    EXPECT_EQ(query.query_series.literal[1], 2.0) << token;
  }
  // Most of the corpus is numbers; a scanner that rejected everything
  // would otherwise pass on the fragments alone.
  EXPECT_GT(accepted, 20000);
}

TEST(ParserNumberTest, MalformedNumbersKeepMessageAndOffset) {
  const std::string text = "RANGE r WITHIN 1 OF [1, -, 2]";
  const Result<Query> parsed = ParseQuery(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "malformed number at offset " + std::to_string(text.find('-')));
  const Result<Query> dot = ParseQuery("RANGE r WITHIN . OF #q");
  ASSERT_FALSE(dot.ok());
  EXPECT_EQ(dot.status().message(), "malformed number at offset 15");
}

// --- bounds on the integers a query text carries ---

void ExpectRejected(const std::string& text, const std::string& message) {
  g_largest_allocation = 0;
  g_watch_allocations = true;
  const Result<Query> parsed = ParseQuery(text);
  g_watch_allocations = false;
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.status().message(), message) << text;
  EXPECT_LT(g_largest_allocation, 4096u) << text;
}

TEST(ParserBoundsTest, NearestCountMustBeAnIntInRange) {
  const std::string tail = " r TO #a";
  for (const std::string count :
       {"1e300", "-nan", "+nan(5)", "2147483648", "4294967297", "-1e300",
        "+inf", "-inf", "1e999", "0", "-3", "2.5", "0x1p31"}) {
    const std::string text = "NEAREST " + count + tail;
    ExpectRejected(text, "NEAREST expects a positive integer count at offset " +
                             std::to_string(8 + count.size() + 1));
  }
  const Result<Query> largest = ParseQuery("NEAREST 2147483647 r TO #a");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest.value().k, INT_MAX);
  EXPECT_EQ(ParseQuery("NEAREST 1 r TO #a").value().k, 1);
  EXPECT_EQ(ParseQuery("NEAREST 0x10 r TO #a").value().k, 16);
}

TEST(ParserBoundsTest, MavgWindowAndWarpFactorAreBounded) {
  const std::string head = "RANGE r WITHIN 1 OF #q USING ";
  const std::string bound = std::to_string(kMaxRuleIntegerArg);
  for (const std::string arg :
       {"1e300", "2147483648", "200000000", "2000000000", "-nan", "+inf",
        "0", "-1", "2.5", "65537", "1e999"}) {
    ExpectRejected(head + "mavg(" + arg + ")",
                   "mavg window must be a positive integer (at most " + bound +
                       ") at offset " + std::to_string(head.size()));
    ExpectRejected(head + "reverse|warp(" + arg + ")",
                   "warp factor must be a positive integer (at most " + bound +
                       ") at offset " + std::to_string(head.size() + 8));
  }
  const Result<Query> widest =
      ParseQuery(head + "mavg(" + bound + ")|warp(" + bound + ")");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value().transform->name(),
            "mavg(" + bound + ")|warp(" + bound + ")");
  // Every window and factor used in the tests, benches, examples and docs
  // is far inside the bound.
  EXPECT_TRUE(ParseQuery(head + "mavg(20)|warp(3)").ok());
}

TEST(ParserBoundsTest, DespikeThresholdMustBeNonnegative) {
  const std::string head = "RANGE r WITHIN 1 OF #q USING ";
  for (const std::string arg : {"-1", "-nan", "+nan", "-inf", "-1e-300"}) {
    ExpectRejected(head + "despike(" + arg + ")",
                   "despike threshold must be nonnegative at offset " +
                       std::to_string(head.size()));
  }
  EXPECT_TRUE(ParseQuery(head + "despike(0)").ok());
  // +inf passes the despike rule's own check; every rule argument must
  // also be finite.
  ExpectRejected(head + "despike(+inf)",
                 "rule 'despike' arguments must be finite at offset " +
                     std::to_string(head.size()));
}

TEST(ParserBoundsTest, RuleFactoryChecksBeforeCasting) {
  for (const double arg : {1e300, -1e300, 2147483648.0, 4.5, 0.0, -2.0,
                           static_cast<double>(kMaxRuleIntegerArg) + 1.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(MakeRuleByName("mavg", {arg}).ok()) << arg;
    EXPECT_FALSE(MakeRuleByName("warp", {arg, 1.0}).ok()) << arg;
    EXPECT_FALSE(PositiveIntegerArg(arg, kMaxRuleIntegerArg).has_value())
        << arg;
  }
  EXPECT_EQ(PositiveIntegerArg(3.0, 3), 3);
  EXPECT_FALSE(PositiveIntegerArg(3.0, 2).has_value());
  EXPECT_EQ(PositiveIntegerArg(2147483647.0, INT_MAX), INT_MAX);
  EXPECT_FALSE(PositiveIntegerArg(2147483648.0, INT_MAX).has_value());
}

// --- the same integers at execution ---

Database WalkDatabase(int rows, int length) {
  Database db;
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(
      db.BulkLoad("r", workload::RandomWalkSeries(rows, length, 5)).ok());
  return db;
}

TEST(ExecutorBoundsTest, LargestNearestCountReturnsEveryRowOnEveryStrategy) {
  const Database db = WalkDatabase(20, 128);
  // One thread, so every allocation of the query is on the watched one.
  ThreadPool::ScopedParallelismBudget budget(1);
  std::vector<QueryResult> answers;
  for (const std::string via :
       {"VIA SCAN", "VIA SCAN MODE FILTERED", "VIA INDEX"}) {
    const std::string text = "NEAREST 2147483647 r TO #walk0 " + via;
    g_largest_allocation = 0;
    g_watch_allocations = true;
    const Result<QueryResult> result = db.ExecuteText(text);
    g_watch_allocations = false;
    ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    EXPECT_EQ(result.value().matches.size(), 20u) << text;
    // The largest legitimate blocks are the filter's 130 x 257 grid and
    // its edge prefix sums (about 270 KiB each); a k-sized reservation is
    // 32 GiB or more.
    EXPECT_LT(g_largest_allocation, size_t{1} << 20) << text;
    answers.push_back(result.value());
  }
  for (size_t a = 1; a < answers.size(); ++a) {
    ASSERT_EQ(answers[a].matches.size(), answers[0].matches.size());
    for (size_t i = 0; i < answers[0].matches.size(); ++i) {
      EXPECT_EQ(answers[a].matches[i].id, answers[0].matches[i].id);
      EXPECT_EQ(answers[a].matches[i].name, answers[0].matches[i].name);
      EXPECT_EQ(Bits(answers[a].matches[i].distance),
                Bits(answers[0].matches[i].distance));
    }
  }
}

// NaN and infinite query numbers: the parser accepts every strtod form,
// so execution rejects the ones no search region, bound or rule can use.
// Each of these aborted the process or answered wrongly (PAIRS WITHIN
// 1e999 found no pairs, a NaN MEAN bound or scale factor no rows).
TEST(ExecutorBoundsTest, NonFiniteQueryNumbersAreInvalidArguments) {
  const Database db = WalkDatabase(200, 16);
  const std::string series = "[1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, ";
  for (const std::string& text : std::vector<std::string>{
           "RANGE r WITHIN -nan OF #walk0",
           "RANGE r WITHIN 1e999 OF #walk0 VIA SCAN",
           "PAIRS r WITHIN -nan",
           "PAIRS r WITHIN 1e999",
           "RANGE r WITHIN 1 OF #walk0 MEAN -nan 5",
           "RANGE r WITHIN 1 OF #walk0 STD -nan 1",
           "RANGE r WITHIN 1 OF #walk0 MEAN 0 -nan VIA SCAN",
           "NEAREST 3 r TO #walk0 MEAN -nan 1",
           "RANGE r WITHIN 3 OF " + series + "-nan]",
           "RANGE r WITHIN 3 OF " + series + "1e999]",
           "RANGE r WITHIN 3 OF " + series + "-1e999]",
           "NEAREST 2 r TO " + series + "+inf] VIA SCAN MODE FILTERED",
           "NEAREST 5 r TO #walk0 USING scale(-nan) VIA SCAN",
           "NEAREST 5 r TO #walk0 USING shift(1e999) VIA SCAN",
           "NEAREST 5 r TO #walk0 USING ewma(-nan) VIA SCAN",
       }) {
    const Result<QueryResult> result = db.ExecuteText(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << text << ": " << result.status().ToString();
  }
  // Infinite MEAN/STD bounds stay legal: they admit every row.
  const Result<QueryResult> any =
      db.ExecuteText("RANGE r WITHIN 2 OF #walk0 MEAN -1e999 1e999 STD 0 +inf");
  const Result<QueryResult> plain =
      db.ExecuteText("RANGE r WITHIN 2 OF #walk0");
  ASSERT_TRUE(any.ok()) << any.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(any.value().matches.size(), plain.value().matches.size());
  ASSERT_FALSE(plain.value().matches.empty());
  for (size_t i = 0; i < plain.value().matches.size(); ++i) {
    EXPECT_EQ(any.value().matches[i].id, plain.value().matches[i].id);
  }
}

// Finite values near DBL_MAX whose mean or spread overflows leave inf/NaN
// in the normal form, the spectrum and the index point. Stored, such a
// series aborted the next index kNN or join in the circular-interval
// geometry; as a query, it aborted an index range query, and a kNN
// answered with NaN distances. A PRENORMALIZED query is not normalized,
// so its spectrum is what must be finite.
TEST(ExecutorBoundsTest, OverflowingSeriesAreInvalidArguments) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(20, 16, 7)).ok());
  TimeSeries huge;
  huge.id = "huge";
  std::string huge_text = "[";
  std::string alternating = "[";
  for (int i = 0; i < 16; ++i) {
    huge.values.push_back(1.7e308 - i * 1e300);
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g", huge.values.back());
    huge_text += (i > 0 ? ", " : "") + std::string(value);
    alternating += (i > 0 ? ", " : "") +
                   std::string(i % 2 == 0 ? "1.7e308" : "-1.7e308");
  }
  huge_text += "]";
  alternating += "]";

  const Result<int64_t> inserted = db.Insert("r", huge);
  ASSERT_FALSE(inserted.ok());
  EXPECT_EQ(inserted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(inserted.status().message(),
            "series 'huge' has a non-finite mean or standard deviation");
  for (const char* text :
       {"NEAREST 10 r TO #walk0 VIA INDEX", "PAIRS r WITHIN 1"}) {
    EXPECT_TRUE(db.ExecuteText(text).ok()) << text;
  }

  for (const std::string& text : std::vector<std::string>{
           "RANGE r WITHIN 1 OF " + huge_text + " VIA INDEX",
           "RANGE r WITHIN 1 OF " + huge_text + " VIA SCAN",
           "NEAREST 3 r TO " + huge_text + " VIA INDEX",
           "NEAREST 3 r TO " + huge_text + " VIA SCAN MODE FILTERED",
           "RANGE r WITHIN 1 OF " + alternating + " PRENORMALIZED VIA INDEX",
           "RANGE r WITHIN 1 OF " + huge_text + " PRENORMALIZED VIA INDEX",
           "NEAREST 3 r TO " + alternating + " PRENORMALIZED VIA SCAN",
       }) {
    const Result<QueryResult> result = db.ExecuteText(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << text << ": " << result.status().ToString();
  }
}

// Rule chains that overflow. A spectral chain's multiplier can overflow:
// scale(1e200)|scale(1e200)|diff is infinite at every frequency but 0,
// where inf * 0 is NaN. The chain answered with NaN distances, on each
// strategy different rows (VIA SCAN walk0..walk4, VIA INDEX walk1, walk3,
// walk4, walk7 and walk12) or, filtered, with none. A MODE RAW chain whose
// transformed rows overflow to inf - inf answered at NaN too. All are
// InvalidArgument on every strategy now; +inf distances still order, so
// they stay answers.
TEST(ExecutorBoundsTest, OverflowingRuleChainsAreInvalidArguments) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(20, 16, 7)).ok());
  const auto expect_invalid = [&](const std::string& text) {
    const Result<QueryResult> result = db.ExecuteText(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << text << ": " << result.status().ToString();
  };
  const std::vector<std::string> strategies = {
      "VIA SCAN", "VIA FULLSCAN", "VIA INDEX", "VIA SCAN MODE FILTERED", ""};
  for (const std::string& via : strategies) {
    // A non-finite multiplier, raw or normal form, as each query kind.
    expect_invalid(
        "NEAREST 5 r TO #walk0 USING scale(1e308)|diff MODE RAW " + via);
    expect_invalid(
        "NEAREST 5 r TO #walk0 USING scale(1e200)|scale(1e200)|diff " + via);
    expect_invalid(
        "RANGE r WITHIN 5 OF #walk0 USING scale(1e200)|scale(1e200)|diff " +
        via);
    expect_invalid("PAIRS r WITHIN 1 USING scale(1e200)|scale(1e200)|diff " +
                   via);
    expect_invalid("PAIRS r WITHIN 1 USING scale(1e308)|diff " + via);
    expect_invalid(
        "PAIRS r WITHIN 1 USING identity VS scale(1e200)|scale(1e200)|diff " +
        via);
  }
  // A finite multiplier (at most 1.6e308) whose raw rows still overflow:
  // the walks' values times 8e307 are all +inf, and diff makes inf - inf.
  // MODE RAW never uses the index, so the index strategy is left out.
  for (const std::string& via :
       {"VIA SCAN", "VIA FULLSCAN", "VIA SCAN MODE FILTERED", ""}) {
    expect_invalid("NEAREST 5 r TO #walk0 USING scale(8e307)|diff MODE RAW " +
                   via);
    expect_invalid(
        "RANGE r WITHIN 5 OF #walk0 USING scale(8e307)|diff MODE RAW " + via);
  }
  // +inf distances order, so they stay legal: every row is at +inf and the
  // k best are the k smallest ids.
  const Result<QueryResult> infinite = db.ExecuteText(
      "NEAREST 5 r TO #walk0 USING scale(1e308) MODE RAW VIA SCAN");
  ASSERT_TRUE(infinite.ok()) << infinite.status().ToString();
  ASSERT_EQ(infinite.value().matches.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(infinite.value().matches[i].id, static_cast<int64_t>(i));
    EXPECT_EQ(infinite.value().matches[i].distance,
              std::numeric_limits<double>::infinity());
  }
  // A finite multiplier whose weight |m|^2 overflows: every distance is
  // +inf, and the filtered scan must rank them like the exact one.
  const Result<QueryResult> exact = db.ExecuteText(
      "NEAREST 5 r TO #walk0 USING scale(1e160)|diff VIA SCAN MODE EXACT");
  const Result<QueryResult> filtered = db.ExecuteText(
      "NEAREST 5 r TO #walk0 USING scale(1e160)|diff VIA SCAN MODE FILTERED");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_EQ(filtered.value().matches.size(), exact.value().matches.size());
  for (size_t i = 0; i < exact.value().matches.size(); ++i) {
    EXPECT_EQ(filtered.value().matches[i].id, exact.value().matches[i].id);
    EXPECT_EQ(Bits(filtered.value().matches[i].distance),
              Bits(exact.value().matches[i].distance));
  }
}

// A kNN whose distances are all +inf ranks them like any other distance:
// ties at +inf are cut by id, so every strategy answers the k smallest ids,
// at 1 shard and at 3. Rows the query excludes -- deleted, or outside a
// MEAN pattern -- still never appear, at +inf too.
TEST(ExecutorBoundsTest, InfiniteDistancesRankAlikeOnEveryStrategy) {
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(20, 16, 7);
  // A MEAN lower bound halfway between the 5th and 6th smallest means
  // excludes the five rows below it.
  std::vector<double> means;
  for (const TimeSeries& ts : series) {
    double sum = 0.0;
    for (const double v : ts.values) {
      sum += v;
    }
    means.push_back(sum / static_cast<double>(ts.values.size()));
  }
  std::vector<double> sorted = means;
  std::sort(sorted.begin(), sorted.end());
  const double mean_lo = 0.5 * (sorted[4] + sorted[5]);
  char pattern[64];
  std::snprintf(pattern, sizeof(pattern), " MEAN %.17g 1e300", mean_lo);
  const std::vector<std::string> strategies = {"VIA INDEX", "VIA SCAN",
                                               "VIA SCAN MODE FILTERED"};
  for (const int shards : {1, 3}) {
    ShardingOptions sharding;
    sharding.num_shards = shards;
    Database db(FeatureConfig(), RTree::Options(), sharding);
    ASSERT_TRUE(db.CreateRelation("r").ok());
    ASSERT_TRUE(db.BulkLoad("r", series).ok());
    const auto expect_ids = [&](const std::string& text,
                                const std::vector<int64_t>& ids) {
      const Result<QueryResult> result = db.ExecuteText(text);
      ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
      ASSERT_EQ(result.value().matches.size(), ids.size()) << text;
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(result.value().matches[i].id, ids[i]) << text;
        EXPECT_EQ(Bits(result.value().matches[i].distance),
                  Bits(std::numeric_limits<double>::infinity()))
            << text;
      }
    };
    const std::vector<std::string> rules = {"scale(1e155)|diff",
                                            "scale(1e160)|diff"};
    for (const std::string& rule : rules) {
      for (const std::string& via : strategies) {
        expect_ids("NEAREST 5 r TO #walk0 USING " + rule + " " + via,
                   {0, 1, 2, 3, 4});
      }
    }
    ASSERT_TRUE(db.Delete("r", 1).ok());
    std::vector<int64_t> admitted;
    for (int64_t id = 0; id < static_cast<int64_t>(series.size()); ++id) {
      if (id != 1 && means[static_cast<size_t>(id)] > mean_lo &&
          admitted.size() < 5) {
        admitted.push_back(id);
      }
    }
    for (const std::string& rule : rules) {
      for (const std::string& via : strategies) {
        const std::string text =
            "NEAREST 5 r TO #walk0 USING " + rule + " " + via;
        expect_ids(text, {0, 2, 3, 4, 5});
        expect_ids(text + pattern, admitted);
      }
    }
  }
}

TEST(ExecutorBoundsTest, WarpChainsPastIntMaxAreRejected) {
  const auto expect_rejected = [](const Database& db,
                                  const std::string& rule) {
    for (const std::string& text :
         {"RANGE r WITHIN 1 OF #walk0" + rule,
          "NEAREST 3 r TO #walk0" + rule, "PAIRS r WITHIN 1" + rule}) {
      const Result<QueryResult> result = db.ExecuteText(text);
      ASSERT_FALSE(result.ok()) << text;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << text;
      EXPECT_NE(result.status().message().find("2147483647 values"),
                std::string::npos)
          << text << ": " << result.status().message();
    }
  };
  // 128 * 8283 * 4051 == 2^32 + 128, which wraps to 128 in 32 bits.
  const Database narrow = WalkDatabase(20, 128);
  expect_rejected(narrow, " USING warp(8283)|warp(4051)");
  // 32768 * 65536 == 2^31, one past INT_MAX.
  expect_rejected(WalkDatabase(2, 32768), " USING warp(65536)");
  // A chain that fits still runs.
  EXPECT_TRUE(
      narrow.ExecuteText("RANGE r WITHIN 1 OF #walk0 USING warp(1)|warp(1)")
          .ok());
}

// --- robustness ---

const char* const kSeedQueries[] = {
    "RANGE r WITHIN 2.5 OF [1, 2, 3, 4] USING mavg(3) MODE RAW VIA SCAN",
    "EXPLAIN ANALYZE NEAREST 5 stocks TO #ibm USING warp(2)|mavg(2) "
    "MODE FILTERED",
    "PAIRS r WITHIN 1.5 USING mavg(20) VS reverse|mavg(20) VIA INDEX "
    "MEAN 0 10 STD 0.5 2",
    "RANGE r WITHIN 1e-3 OF [-0x1p3, +inf, -nan(7), 1e999, .5] "
    "PRENORMALIZED MODE EXACT",
    "NEAREST 3 r TO [0.5,-0.5] USING ewma(0.3, 1)|shift(2)|scale(-1)|"
    "despike(0.5)|diff|identity VIA FULLSCAN",
};

const char* const kGrammarTokens[] = {
    "RANGE", "PAIRS", "NEAREST", "WITHIN", "OF", "TO", "USING", "VS",
    "MODE", "VIA", "PRENORMALIZED", "MEAN", "STD", "EXPLAIN", "ANALYZE",
    "RAW", "FILTERED", "SCAN", "mavg(65536)", "mavg(2000000000)",
    "warp(-nan)", "ewma(1)", "despike(-1)", "despike(-nan)", "#", "[", "]", "(", ")", ",", "|", "1e999",
    "-nan(1)", "0x1p-1074", "2147483648", "1e300", ".", "-", "+", "e", "0x",
    " ", "\t", "\n", "r", "#q", "[1,2]", "mavg", "warp(",
};

std::string Mutate(std::string text, std::mt19937_64* rng) {
  const int edits = 1 + static_cast<int>((*rng)() % 4);
  for (int e = 0; e < edits; ++e) {
    const size_t at = text.empty() ? 0 : (*rng)() % (text.size() + 1);
    switch ((*rng)() % 6) {
      case 0:  // byte flip
        if (!text.empty()) {
          text[at % text.size()] = static_cast<char>((*rng)() & 0xff);
        }
        break;
      case 1:  // bit flip
        if (!text.empty()) {
          text[at % text.size()] ^= static_cast<char>(1 << ((*rng)() % 8));
        }
        break;
      case 2:  // truncation
        text.resize(at);
        break;
      case 3:  // deleted span
        text.erase(at, (*rng)() % 8);
        break;
      case 4:  // duplicated span
        text.insert(at, text.substr(at, (*rng)() % 16));
        break;
      default: {  // inserted grammar token
        const size_t pick = (*rng)() % (sizeof(kGrammarTokens) /
                                        sizeof(kGrammarTokens[0]));
        text.insert(at, kGrammarTokens[pick]);
        break;
      }
    }
  }
  return text;
}

std::string RandomText(std::mt19937_64* rng) {
  std::string text;
  const size_t length = (*rng)() % 120;
  switch ((*rng)() % 3) {
    case 0:  // raw bytes, NULs included
      for (size_t i = 0; i < length; ++i) {
        text += static_cast<char>((*rng)() & 0xff);
      }
      break;
    case 1:  // printable ASCII
      for (size_t i = 0; i < length; ++i) {
        text += static_cast<char>(' ' + (*rng)() % 95);
      }
      break;
    default:  // grammar-token soup
      for (size_t i = 0; i < length / 4; ++i) {
        text += kGrammarTokens[(*rng)() % (sizeof(kGrammarTokens) /
                                           sizeof(kGrammarTokens[0]))];
        text += ' ';
      }
      break;
  }
  return text;
}

// Parses `text` under the allocation watch and checks the invariants every
// input must keep; returns whether it parsed.
bool CheckParse(const std::string& text) {
  g_largest_allocation = 0;
  g_watch_allocations = true;
  const Result<Query> parsed = ParseQuery(text);
  g_watch_allocations = false;
  // Tokens, literals and messages grow with the text; a mavg window is
  // allocated whole, so the bound admits the widest one.
  const size_t limit = 4096 + 128 * text.size() +
                       sizeof(double) * static_cast<size_t>(kMaxRuleIntegerArg);
  EXPECT_LE(g_largest_allocation, limit) << text;
  if (!parsed.ok()) {
    const std::string& message = parsed.status().message();
    const size_t at = message.rfind(" at offset ");
    EXPECT_NE(at, std::string::npos) << message;
    if (at != std::string::npos) {
      EXPECT_LE(std::strtoull(message.c_str() + at + 11, nullptr, 10),
                text.size())
          << message;
    }
    return false;
  }
  // A parsed query renders a key, and the same text always parses to it.
  const std::string key = CanonicalQueryKey(parsed.value());
  const Result<Query> again = ParseQuery(text);
  EXPECT_TRUE(again.ok()) << text;
  if (again.ok()) {
    EXPECT_EQ(CanonicalQueryKey(again.value()), key) << text;
  }
  return true;
}

TEST(ParserFuzzTest, SeedQueriesParse) {
  for (const char* seed : kSeedQueries) {
    EXPECT_TRUE(CheckParse(seed)) << seed << ": "
                                  << ParseQuery(seed).status().ToString();
  }
}

TEST(ParserFuzzTest, MutatedAndRandomTextsNeverCrashOrOverAllocate) {
  std::mt19937_64 rng(20260415);
  int parsed = 0;
  constexpr int kIterations = 50000;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text =
        i % 4 == 3
            ? RandomText(&rng)
            : Mutate(kSeedQueries[rng() % (sizeof(kSeedQueries) /
                                           sizeof(kSeedQueries[0]))],
                     &rng);
    parsed += CheckParse(text) ? 1 : 0;
  }
  // Both sides of the grammar get exercised.
  EXPECT_GT(parsed, kIterations / 50);
  EXPECT_LT(parsed, kIterations);
}

// --- key stability ---

struct Piece {
  std::string text;
  bool keyword;  // case-insensitive: may be re-cased
};

using Clause = std::vector<Piece>;

std::vector<Piece> Pieces(std::initializer_list<std::pair<const char*, bool>>
                              items) {
  std::vector<Piece> out;
  for (const auto& item : items) {
    out.push_back({item.first, item.second});
  }
  return out;
}

bool IsPunct(const std::string& piece) {
  return piece.size() == 1 && std::strchr("#[](),|", piece[0]) != nullptr;
}

// Joins the head and the clauses (in the given order) with random
// whitespace, re-casing keywords at random. Whitespace may be left out
// only next to punctuation, where it cannot merge two tokens.
std::string Render(const std::vector<Piece>& head,
                   const std::vector<Clause>& clauses, std::mt19937_64* rng) {
  std::vector<Piece> pieces = head;
  for (const Clause& clause : clauses) {
    pieces.insert(pieces.end(), clause.begin(), clause.end());
  }
  static const char kSpace[] = " \t\n\r\v\f";
  std::string text;
  const size_t leading = (*rng)() % 3;
  for (size_t i = 0; i < leading; ++i) {
    text += kSpace[(*rng)() % 6];
  }
  for (size_t i = 0; i < pieces.size(); ++i) {
    std::string piece = pieces[i].text;
    if (pieces[i].keyword) {
      for (char& c : piece) {
        c = (*rng)() % 2 ? static_cast<char>(std::tolower(c))
                         : static_cast<char>(std::toupper(c));
      }
    }
    if (i > 0) {
      const bool may_touch = IsPunct(piece) || IsPunct(pieces[i - 1].text);
      size_t spaces = (*rng)() % 4;
      if (spaces == 0 && !may_touch) {
        spaces = 1;
      }
      for (size_t s = 0; s < spaces; ++s) {
        text += kSpace[(*rng)() % 6];
      }
    }
    text += piece;
  }
  return text;
}

TEST(ParserKeyStabilityTest, WhitespaceCaseAndClauseOrderGiveOneKey) {
  struct Shape {
    std::vector<Piece> head;
    std::vector<Clause> clauses;
  };
  const std::vector<Shape> shapes = {
      {Pieces({{"RANGE", true}, {"stocks", false}, {"WITHIN", true},
               {"2.5", false}, {"OF", true}, {"[", false}, {"1", false},
               {",", false}, {"-2.5e-3", false}, {",", false},
               {"0x1p3", false}, {"]", false}}),
       {Pieces({{"USING", true}, {"mavg", false}, {"(", false},
                {"20", false}, {")", false}, {"|", false},
                {"reverse", false}}),
        Pieces({{"MODE", true}, {"RAW", true}}),
        Pieces({{"MODE", true}, {"FILTERED", true}}),
        Pieces({{"VIA", true}, {"SCAN", true}}),
        Pieces({{"PRENORMALIZED", true}}),
        Pieces({{"MEAN", true}, {"0", false}, {"10", false}}),
        Pieces({{"STD", true}, {".5", false}, {"2", false}})}},
      {Pieces({{"NEAREST", true}, {"7", false}, {"r", false},
               {"TO", true}, {"#", false}, {"ibm", false}}),
       {Pieces({{"USING", true}, {"warp", false}, {"(", false},
                {"2", false}, {",", false}, {"1.5", false}, {")", false}}),
        Pieces({{"VIA", true}, {"INDEX", true}}),
        Pieces({{"MODE", true}, {"EXACT", true}}),
        Pieces({{"STD", true}, {"-nan(3)", false}, {"+inf", false}})}},
      {Pieces({{"PAIRS", true}, {"r", false}, {"WITHIN", true},
               {"1e-3", false}}),
       {Pieces({{"USING", true}, {"mavg", false}, {"(", false},
                {"4", false}, {")", false}, {"VS", true}, {"reverse", false},
                {"|", false}, {"mavg", false}, {"(", false}, {"4", false},
                {")", false}}),
        Pieces({{"VIA", true}, {"FULLSCAN", true}}),
        Pieces({{"MEAN", true}, {"-1", false}, {"1", false}})}},
  };
  std::mt19937_64 rng(7);
  for (const Shape& shape : shapes) {
    const std::string plain = Render(shape.head, shape.clauses, &rng);
    const Result<Query> base = ParseQuery(plain);
    ASSERT_TRUE(base.ok()) << plain << ": " << base.status().ToString();
    const std::string key = CanonicalQueryKey(base.value());
    std::vector<Clause> clauses = shape.clauses;
    for (int variant = 0; variant < 300; ++variant) {
      std::shuffle(clauses.begin(), clauses.end(), rng);
      std::vector<Piece> head = shape.head;
      // EXPLAIN [ANALYZE] is not part of a query's identity either.
      if (variant % 3 == 2) {
        head.insert(head.begin(), Piece{"ANALYZE", true});
      }
      if (variant % 3 != 0) {
        head.insert(head.begin(), Piece{"EXPLAIN", true});
      }
      const std::string text = Render(head, clauses, &rng);
      const Result<Query> parsed = ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
      EXPECT_EQ(CanonicalQueryKey(parsed.value()), key) << text;
      EXPECT_EQ(QueryFingerprint(parsed.value()), QueryFingerprint(base.value()))
          << text;
    }
  }
}

}  // namespace
}  // namespace simq
