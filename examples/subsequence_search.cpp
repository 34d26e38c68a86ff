// Subsequence matching with the [FRM94] ST-index: find where a short
// pattern occurs inside long series ("stocks that increased linearly up to
// October 1987, and then crashed" -- the intro's motivating query needs
// subsequence, not whole-sequence, matching).

#include <cstdio>

#include "subseq/subsequence_index.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload/generators.h"

int main() {
  using namespace simq;  // NOLINT: example brevity

  // Four years of per-minute-ish data: 4 series x 100k samples.
  const std::vector<TimeSeries> data =
      workload::RandomWalkSeries(4, 100000, 20261987);

  SubsequenceIndex::Options options;
  options.window = 128;       // pattern length being matched
  options.num_coefficients = 3;
  options.packing = TrailPacking::kAdaptive;
  SubsequenceIndex index(options);

  Stopwatch build;
  for (const TimeSeries& ts : data) {
    SIMQ_CHECK(index.AddSeries(ts).ok());
  }
  // The first search would pack the trail MBRs; pack them here, so the
  // build time includes it.
  const int height = index.packed_rtree().height();
  const double build_ms = build.ElapsedMillis();
  std::printf(
      "indexed %lld windows (%lld sub-trail MBRs, R-tree height %d) in %.0f "
      "ms\n\n",
      static_cast<long long>(index.num_windows()),
      static_cast<long long>(index.num_trails()), height, build_ms);

  // The pattern: a "crash" -- a stored window from series 2 with noise.
  Random rng(7);
  std::vector<double> pattern(data[2].values.begin() + 55000,
                              data[2].values.begin() + 55128);
  for (double& v : pattern) {
    v += rng.UniformDouble(-0.05, 0.05);
  }

  SubsequenceIndex::SearchStats stats;
  Stopwatch search;
  const auto matches = index.RangeSearch(pattern, 3.0, &stats);
  const double index_ms = search.ElapsedMillis();

  std::printf("pattern matches within 3.0:\n");
  for (const auto& match : matches) {
    std::printf("  series %lld offset %6d  distance %.3f\n",
                static_cast<long long>(match.series_id), match.offset,
                match.distance);
  }
  std::printf(
      "\n  ST-index: %.2f ms -- %lld of %lld windows verified (%.3f%%), "
      "%lld node accesses\n",
      index_ms, static_cast<long long>(stats.windows_checked),
      static_cast<long long>(index.num_windows()),
      100.0 * static_cast<double>(stats.windows_checked) /
          static_cast<double>(index.num_windows()),
      static_cast<long long>(stats.node_accesses));

  search.Restart();
  const auto scan_matches = index.ScanSearch(pattern, 3.0);
  std::printf("  offset scan: %.2f ms -- same %zu matches\n",
              search.ElapsedMillis(), scan_matches.size());
  SIMQ_CHECK_EQ(matches.size(), scan_matches.size());
  return 0;
}
