// Tests of the benchmark's own arithmetic (ledger.h).

#include "ledger.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOverUnsortedSamples) {
  const std::vector<double> samples = {7, 1, 10, 4, 2, 9, 3, 8, 6, 5};
  EXPECT_EQ(Percentile(samples, 50.0), 5.0);   // ceil(0.5 * 10) = 5th
  EXPECT_EQ(Percentile(samples, 99.0), 10.0);  // ceil(9.9) = 10th
  EXPECT_EQ(Percentile(samples, 10.0), 1.0);
  EXPECT_EQ(Percentile(samples, 11.0), 2.0);   // ceil(1.1) = 2nd
  EXPECT_EQ(Percentile(samples, 100.0), 10.0);
}

TEST(PercentileTest, P99OfAThousandIsTheTenthLargest) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) {
    samples.push_back(i);
  }
  EXPECT_EQ(Percentile(samples, 99.0), 990.0);
  EXPECT_EQ(Percentile(samples, 50.0), 500.0);
}

TEST(PercentileTest, SingleSampleAndBadInput) {
  EXPECT_EQ(Percentile({3.5}, 50.0), 3.5);
  EXPECT_EQ(Percentile({3.5}, 99.0), 3.5);
  EXPECT_THROW(Percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(Percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(Percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(SummaryTest, ReportsSampleCountAndEveryStatistic) {
  const Summary empty = Summarize({});
  EXPECT_EQ(empty.n, 0);
  EXPECT_EQ(empty.p50, 0.0);

  std::vector<double> samples;
  for (int i = 1; i <= 200; ++i) {
    samples.push_back(i);
  }
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 200);
  EXPECT_EQ(s.p50, 100.0);
  EXPECT_EQ(s.p99, 198.0);
  EXPECT_DOUBLE_EQ(s.mean, 100.5);
}

Span MakeSpan(int id, int parent, double start, double end,
              bool replay = false) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.start_us = start;
  span.end_us = end;
  span.replay = replay;
  return span;
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  const Span root = MakeSpan(0, -1, 0, 100);
  const std::vector<Span> spans = {
      root,
      MakeSpan(1, 0, 10, 40),
      MakeSpan(2, 0, 30, 50),   // overlaps child 1: union is 10..50
      MakeSpan(3, 0, 45, 48),   // inside the union
      MakeSpan(4, 0, 70, 80),
  };
  EXPECT_DOUBLE_EQ(SelfTimeUs(root, spans), 100.0 - 40.0 - 10.0);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheSpanAndGrandchildrenIgnored) {
  const Span root = MakeSpan(0, -1, 100, 200);
  const std::vector<Span> spans = {
      root,
      MakeSpan(1, 0, 90, 120),   // only 100..120 counts
      MakeSpan(2, 0, 190, 250),  // only 190..200 counts
      MakeSpan(3, 1, 100, 200),  // a grandchild: not root's child
      MakeSpan(4, 0, 300, 400),  // entirely outside
  };
  EXPECT_DOUBLE_EQ(SelfTimeUs(root, spans), 100.0 - 20.0 - 10.0);
  EXPECT_DOUBLE_EQ(SelfTimeUs(MakeSpan(7, -1, 0, 5), spans), 5.0);
}

TEST(RemainderTest, ReplaysAreTakenOutByDuration) {
  // A wire request of 100 us with inline client codec children, then
  // replays after it: server decode, parse, service (with an engine child
  // that the service span already contains), server encode.
  const Span wire = MakeSpan(0, -1, 0, 100);
  const Span service = MakeSpan(4, 0, 210, 260, true);
  const std::vector<Span> spans = {
      wire,
      MakeSpan(1, 0, 0, 5),                 // client.encode
      MakeSpan(2, 0, 95, 100),              // client.decode
      MakeSpan(3, 0, 200, 202, true),       // server.decode
      MakeSpan(5, 0, 202, 210, true),       // parse
      service,
      MakeSpan(6, 4, 215, 255, true),       // engine, child of service
      MakeSpan(7, 0, 260, 263, true),       // server.encode
  };
  // 100 - (5 + 5) inline - (2 + 8 + 50 + 3) replayed.
  EXPECT_DOUBLE_EQ(RemainderUs(wire, spans), 27.0);
  // service.self: the service span minus its engine replay.
  EXPECT_DOUBLE_EQ(RemainderUs(service, spans), 10.0);
  // The ledger adds up: wire = net.self + codec + parse + service.
  EXPECT_DOUBLE_EQ(27.0 + (5 + 5 + 2 + 3) + 8 + 50, wire.duration_us());
}

TEST(RemainderTest, CanGoNegativeWhenReplaysOutlastTheRequest) {
  const Span wire = MakeSpan(0, -1, 0, 10);
  const std::vector<Span> spans = {wire, MakeSpan(1, 0, 20, 35, true)};
  EXPECT_DOUBLE_EQ(RemainderUs(wire, spans), -5.0);
}

simq::Match M(int64_t id, const char* name, double distance) {
  simq::Match m;
  m.id = id;
  m.name = name;
  m.distance = distance;
  return m;
}

TEST(AnswerTest, SameAnswersNeedsIdsAndDistanceBitsInOrder) {
  const std::vector<simq::Match> want = {M(1, "a", 0.5), M(2, "b", 0.75)};
  EXPECT_TRUE(SameAnswers(want, want));
  EXPECT_TRUE(SameAnswers({}, {}));
  // Order matters.
  EXPECT_FALSE(SameAnswers({want[1], want[0]}, want));
  // Length matters.
  EXPECT_FALSE(SameAnswers({want[0]}, want));
  // Ids matter; names do not (the wire check is by id).
  EXPECT_FALSE(SameAnswers({M(1, "a", 0.5), M(3, "b", 0.75)}, want));
  EXPECT_TRUE(SameAnswers({M(1, "x", 0.5), M(2, "y", 0.75)}, want));
  // One ulp apart is a mismatch.
  const double next = std::nextafter(0.75, 1.0);
  EXPECT_FALSE(SameAnswers({M(1, "a", 0.5), M(2, "b", next)}, want));
  // Bits, not ==: +0 and -0 compare equal as doubles but differ in bits.
  EXPECT_FALSE(SameAnswers({M(1, "a", -0.0)}, {M(1, "a", 0.0)}));
  // And a NaN matches itself bit for bit.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(SameAnswers({M(1, "a", nan)}, {M(1, "a", nan)}));
}

TEST(AnswerTest, ByNameIgnoresIdsAndTieOrderButNotBits) {
  const std::vector<simq::Match> want = {M(5, "p", 1.0), M(6, "q", 1.0),
                                         M(7, "r", 2.0)};
  // Fresh ids and a different order among equal distances still match.
  EXPECT_TRUE(SameAnswersByName({M(90, "q", 1.0), M(91, "p", 1.0),
                                 M(92, "r", 2.0)},
                                want));
  // A different name does not.
  EXPECT_FALSE(SameAnswersByName({M(5, "p", 1.0), M(6, "s", 1.0),
                                  M(7, "r", 2.0)},
                                 want));
  // Nor does a distance one ulp off, or a missing answer.
  EXPECT_FALSE(SameAnswersByName(
      {M(5, "p", 1.0), M(6, "q", 1.0), M(7, "r", std::nextafter(2.0, 3.0))},
      want));
  EXPECT_FALSE(SameAnswersByName({M(5, "p", 1.0), M(6, "q", 1.0)}, want));
}

}  // namespace
}  // namespace perfbench
