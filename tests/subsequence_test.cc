#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "subseq/subsequence_index.h"
#include "ts/dft.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace simq {
namespace {

using Match = SubsequenceIndex::SubsequenceMatch;

std::set<std::pair<int64_t, int>> MatchPositions(
    const std::vector<Match>& matches) {
  std::set<std::pair<int64_t, int>> positions;
  for (const Match& match : matches) {
    positions.insert({match.series_id, match.offset});
  }
  return positions;
}

TEST(SubsequenceIndexTest, WindowFeaturesMatchDirectDft) {
  // The sliding-window feature layout must agree with the unitary DFT.
  SubsequenceIndex::Options options;
  options.window = 16;
  options.num_coefficients = 4;
  SubsequenceIndex index(options);

  Random rng(1);
  std::vector<double> window(16);
  for (double& v : window) {
    v = rng.UniformDouble(-5.0, 5.0);
  }
  const std::vector<double> features = index.WindowFeatures(window.data());
  const Spectrum spectrum = Dft(window);
  ASSERT_EQ(features.size(), 7u);
  EXPECT_NEAR(features[0], spectrum[0].real(), 1e-10);
  for (int f = 1; f < 4; ++f) {
    EXPECT_NEAR(features[static_cast<size_t>(2 * f - 1)],
                spectrum[static_cast<size_t>(f)].real(), 1e-10);
    EXPECT_NEAR(features[static_cast<size_t>(2 * f)],
                spectrum[static_cast<size_t>(f)].imag(), 1e-10);
  }
}

TEST(SubsequenceIndexTest, IncrementalFeaturesMatchDirectComputation) {
  // Indexing uses the O(k) sliding update; verify every window's feature
  // point (as covered by trail MBRs) by recomputing features directly.
  SubsequenceIndex::Options options;
  options.window = 32;
  options.num_coefficients = 3;
  options.max_trail_length = 1;  // one MBR per window => exact points
  options.packing = TrailPacking::kFixed;
  SubsequenceIndex index(options);

  const std::vector<TimeSeries> walk = workload::RandomWalkSeries(1, 500, 7);
  ASSERT_TRUE(index.AddSeries(walk[0]).ok());

  // Each trail MBR is a single feature point; query with epsilon 0 around
  // each directly computed feature point must retrieve its own window.
  for (int offset = 0; offset < 500 - 32 + 1; offset += 37) {
    std::vector<double> window(walk[0].values.begin() + offset,
                               walk[0].values.begin() + offset + 32);
    const std::vector<Match> matches = index.RangeSearch(window, 1e-6);
    ASSERT_FALSE(matches.empty()) << "offset " << offset;
    EXPECT_EQ(matches[0].offset, offset);
    EXPECT_NEAR(matches[0].distance, 0.0, 1e-9);
  }
}

struct SubseqCase {
  TrailPacking packing;
  int max_trail_length;
  int num_coefficients;
};

class SubsequenceSearchTest : public ::testing::TestWithParam<SubseqCase> {};

TEST_P(SubsequenceSearchTest, RangeSearchMatchesScan) {
  const SubseqCase c = GetParam();
  SubsequenceIndex::Options options;
  options.window = 48;
  options.num_coefficients = c.num_coefficients;
  options.packing = c.packing;
  options.max_trail_length = c.max_trail_length;
  SubsequenceIndex index(options);

  const std::vector<TimeSeries> walks =
      workload::RandomWalkSeries(5, 700, 99);
  for (const TimeSeries& ts : walks) {
    ASSERT_TRUE(index.AddSeries(ts).ok());
  }
  EXPECT_EQ(index.num_series(), 5);
  EXPECT_EQ(index.num_windows(), 5 * (700 - 48 + 1));
  EXPECT_TRUE(index.rtree().CheckInvariants());

  Random rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    // Query: a stored window plus noise, so matches exist at small eps.
    const int series_id = static_cast<int>(rng.UniformInt(0, 4));
    const int offset = static_cast<int>(rng.UniformInt(0, 700 - 48));
    std::vector<double> query(
        walks[static_cast<size_t>(series_id)].values.begin() + offset,
        walks[static_cast<size_t>(series_id)].values.begin() + offset + 48);
    for (double& v : query) {
      v += rng.UniformDouble(-0.2, 0.2);
    }
    const double epsilon = rng.UniformDouble(0.5, 6.0);

    SubsequenceIndex::SearchStats index_stats;
    const std::vector<Match> via_index =
        index.RangeSearch(query, epsilon, &index_stats);
    SubsequenceIndex::SearchStats scan_stats;
    const std::vector<Match> via_scan =
        index.ScanSearch(query, epsilon, &scan_stats);

    EXPECT_EQ(MatchPositions(via_index), MatchPositions(via_scan))
        << "trial " << trial << " eps " << epsilon;
    ASSERT_EQ(via_index.size(), via_scan.size());
    for (size_t i = 0; i < via_index.size(); ++i) {
      EXPECT_NEAR(via_index[i].distance, via_scan[i].distance, 1e-9);
    }
    // The planted window must be found whenever its noise kept it inside
    // the query radius.
    const double planted_distance = EuclideanDistance(
        query,
        std::vector<double>(
            walks[static_cast<size_t>(series_id)].values.begin() + offset,
            walks[static_cast<size_t>(series_id)].values.begin() + offset +
                48));
    if (planted_distance <= epsilon) {
      EXPECT_EQ(MatchPositions(via_index).count({series_id, offset}), 1u);
    }
    // The index must not verify more windows than the scan does.
    EXPECT_LE(index_stats.windows_checked, scan_stats.windows_checked);
    EXPECT_GT(index_stats.node_accesses, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Packings, SubsequenceSearchTest,
    ::testing::Values(SubseqCase{TrailPacking::kFixed, 16, 3},
                      SubseqCase{TrailPacking::kFixed, 64, 3},
                      SubseqCase{TrailPacking::kAdaptive, 64, 3},
                      SubseqCase{TrailPacking::kAdaptive, 64, 2},
                      SubseqCase{TrailPacking::kAdaptive, 256, 4}));

TEST(SubsequenceIndexTest, SelectiveQueriesCheckFewWindows) {
  SubsequenceIndex::Options options;
  options.window = 64;
  SubsequenceIndex index(options);
  const std::vector<TimeSeries> walks =
      workload::RandomWalkSeries(4, 2000, 11);
  for (const TimeSeries& ts : walks) {
    ASSERT_TRUE(index.AddSeries(ts).ok());
  }
  // A planted exact query at small epsilon verifies only a small fraction
  // of the windows -- the point of the ST-index.
  std::vector<double> query(walks[2].values.begin() + 500,
                            walks[2].values.begin() + 564);
  SubsequenceIndex::SearchStats stats;
  const std::vector<Match> matches = index.RangeSearch(query, 0.5, &stats);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].series_id, 2);
  EXPECT_EQ(matches[0].offset, 500);
  EXPECT_LT(stats.windows_checked, index.num_windows() / 4);
}

TEST(SubsequenceIndexTest, RejectsShortSeries) {
  SubsequenceIndex::Options options;
  options.window = 64;
  SubsequenceIndex index(options);
  TimeSeries tiny;
  tiny.id = "tiny";
  tiny.values.assign(10, 1.0);
  EXPECT_EQ(index.AddSeries(tiny).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SubsequenceIndexTest, SeriesExactlyWindowLength) {
  SubsequenceIndex::Options options;
  options.window = 32;
  SubsequenceIndex index(options);
  const std::vector<TimeSeries> walk = workload::RandomWalkSeries(1, 32, 5);
  ASSERT_TRUE(index.AddSeries(walk[0]).ok());
  EXPECT_EQ(index.num_windows(), 1);
  const std::vector<Match> matches =
      index.RangeSearch(walk[0].values, 1e-9);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].offset, 0);
}

TEST(SubsequenceIndexTest, AdaptivePackingProducesFewerTrailsOnSmoothData) {
  // Smooth trails stay inside small MBRs; adaptive packing should cover
  // them with fewer MBRs than per-point packing.
  SubsequenceIndex::Options fixed_options;
  fixed_options.window = 32;
  fixed_options.packing = TrailPacking::kFixed;
  fixed_options.max_trail_length = 4;
  SubsequenceIndex fixed_index(fixed_options);

  SubsequenceIndex::Options adaptive_options = fixed_options;
  adaptive_options.packing = TrailPacking::kAdaptive;
  adaptive_options.max_trail_length = 256;
  SubsequenceIndex adaptive_index(adaptive_options);

  // A slow sinusoid: adjacent windows have nearly identical features.
  TimeSeries smooth;
  smooth.id = "smooth";
  smooth.values.resize(1500);
  for (size_t t = 0; t < smooth.values.size(); ++t) {
    smooth.values[t] = 10.0 * std::sin(static_cast<double>(t) * 0.01);
  }
  ASSERT_TRUE(fixed_index.AddSeries(smooth).ok());
  ASSERT_TRUE(adaptive_index.AddSeries(smooth).ok());
  EXPECT_LT(adaptive_index.num_trails(), fixed_index.num_trails());

  // Both must still answer correctly.
  std::vector<double> query(smooth.values.begin() + 700,
                            smooth.values.begin() + 732);
  EXPECT_EQ(MatchPositions(fixed_index.RangeSearch(query, 0.3)),
            MatchPositions(adaptive_index.RangeSearch(query, 0.3)));
}

TEST(SubsequenceIndexTest, LongSeriesDriftStaysBounded) {
  // 20k samples exercise many incremental updates plus the periodic
  // recomputation; an exact planted query late in the series must still be
  // found at tiny epsilon (i.e. feature drift is negligible).
  SubsequenceIndex::Options options;
  options.window = 64;
  SubsequenceIndex index(options);
  const std::vector<TimeSeries> walk =
      workload::RandomWalkSeries(1, 20000, 17);
  ASSERT_TRUE(index.AddSeries(walk[0]).ok());

  const int offset = 19000;
  std::vector<double> query(walk[0].values.begin() + offset,
                            walk[0].values.begin() + offset + 64);
  const std::vector<Match> matches = index.RangeSearch(query, 1e-5);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].offset, offset);
}

TEST(SubsequenceIndexDeathTest, RejectsOversizedFanoutAtConstruction) {
  // RangeSearch runs on the packed snapshot only, so a fanout past the
  // packed layout's cap is refused up front.
  SubsequenceIndex::Options options;
  options.rtree.max_entries = PackedRTree::kMaxFanout + 1;
  options.rtree.min_entries = 2;
  EXPECT_DEATH(SubsequenceIndex{options}, "kMaxFanout");
}

}  // namespace
}  // namespace simq
