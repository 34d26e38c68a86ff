// Pins the quantized codes' compile (filter/quantizer.cc: row-block
// gather, bucketed quantile select, bucketed encode) to the definition it
// computes faster: a strided gather of each column of the half spectrum
// (coefficients 0 .. n/2, dimensions 0 .. 2 * (n/2 + 1) - 1), std::sort,
// the edge at rank c*(n-1)/cells, a per-value upper_bound over all the
// edges, and the column variances summed in row order. Edges must compare
// ==, codes must match byte for byte, and scan_order and max_row_energy
// (each coefficient's widest edge squared, twice where the coefficient
// has a conjugate twin) must be identical -- then every LUT, bound,
// survivor and answer built on them is unchanged too.
//
// Inputs: adversarial stores (1 to 1000 rows, tiny spectra, duplicates,
// constant columns, 1e12 outliers, magnitudes from 2^-30 to 2^30, signed
// zeros, subnormals) and a 3000x128 stock relation, at the codes' one
// width of 256 cells.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/feature_store.h"
#include "filter/quantized_codes.h"
#include "filter/quantizer.h"
#include "ts/feature.h"
#include "ts/transforms.h"
#include "util/random.h"
#include "workload/generators.h"

namespace simq {
namespace {

constexpr int kCells = ScalarQuantizer::kCells;

// The compile by definition: what the bucketed one must reproduce.
struct SortCompile {
  int cells = 0;
  int dims = 0;
  std::vector<double> edges;    // dims * (cells + 1), dimension-major
  std::vector<uint8_t> codes;   // dims * rows, dimension-major
  std::vector<int32_t> scan_order;
  double max_row_energy = 0.0;

  const double* Edges(int d) const {
    return edges.data() + static_cast<size_t>(d) * (cells + 1);
  }
};

SortCompile CompileBySorting(const FeatureStore& store) {
  SortCompile ref;
  ref.cells = 256;  // 8-bit codes
  const int n = store.spectrum_length();
  ref.dims = 2 * (n / 2 + 1);
  const int64_t count = store.size();
  ref.edges.resize(static_cast<size_t>(ref.dims) * (ref.cells + 1));
  std::vector<double> column(static_cast<size_t>(count));
  for (int d = 0; d < ref.dims; ++d) {
    for (int64_t i = 0; i < count; ++i) {
      column[static_cast<size_t>(i)] = store.SpectrumRow(i)[d];
    }
    std::sort(column.begin(), column.end());
    double* edges =
        ref.edges.data() + static_cast<size_t>(d) * (ref.cells + 1);
    for (int c = 0; c <= ref.cells; ++c) {
      const int64_t rank =
          count <= 1 ? 0 : static_cast<int64_t>(c) * (count - 1) / ref.cells;
      edges[c] = column[static_cast<size_t>(rank)];
    }
    const double widest =
        std::max(std::abs(edges[0]), std::abs(edges[ref.cells]));
    const int f = d / 2;
    const bool twin = f > 0 && 2 * f < n;
    ref.max_row_energy += (twin ? 2.0 : 1.0) * (widest * widest);
  }
  ref.codes.resize(static_cast<size_t>(ref.dims) * count);
  std::vector<double> sum(static_cast<size_t>(ref.dims), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(ref.dims), 0.0);
  for (int64_t i = 0; i < count; ++i) {
    const double* row = store.SpectrumRow(i);
    for (int d = 0; d < ref.dims; ++d) {
      const double* edges = ref.Edges(d);
      const double* it =
          std::upper_bound(edges, edges + ref.cells + 1, row[d]);
      const int64_t c = std::clamp<int64_t>((it - edges) - 1, 0,
                                            ref.cells - 1);
      ref.codes[static_cast<size_t>(d) * count + i] =
          static_cast<uint8_t>(c);
      sum[static_cast<size_t>(d)] += row[d];
      sum_sq[static_cast<size_t>(d)] += row[d] * row[d];
    }
  }
  std::vector<double> variance(static_cast<size_t>(ref.dims));
  for (int d = 0; d < ref.dims; ++d) {
    const double mean =
        sum[static_cast<size_t>(d)] / static_cast<double>(count);
    variance[static_cast<size_t>(d)] =
        sum_sq[static_cast<size_t>(d)] / static_cast<double>(count) -
        mean * mean;
  }
  ref.scan_order.resize(static_cast<size_t>(ref.dims));
  std::iota(ref.scan_order.begin(), ref.scan_order.end(), 0);
  std::sort(ref.scan_order.begin(), ref.scan_order.end(),
            [&](int32_t a, int32_t b) {
              if (variance[static_cast<size_t>(a)] !=
                  variance[static_cast<size_t>(b)]) {
                return variance[static_cast<size_t>(a)] >
                       variance[static_cast<size_t>(b)];
              }
              return a < b;
            });
  return ref;
}

void ExpectSameEdges(const SortCompile& ref, const ScalarQuantizer& q,
                     const std::string& context) {
  ASSERT_EQ(q.dims(), ref.dims) << context;
  ASSERT_EQ(kCells, ref.cells) << context;
  for (int d = 0; d < ref.dims; ++d) {
    for (int c = 0; c <= ref.cells; ++c) {
      // ==, not bitwise: std::sort may put either of +0.0 and -0.0 at a
      // rank they share, and every comparison treats them alike.
      ASSERT_EQ(q.bounds(d)[c], ref.Edges(d)[c])
          << context << " dim " << d << " edge " << c;
    }
  }
  EXPECT_EQ(q.max_row_energy(), ref.max_row_energy) << context;
}

// The compile against the sorting definition; Train alone must give the
// same edges as the codes' compile.
void ExpectCompileMatchesSorting(const FeatureStore& store,
                                 const std::string& context) {
  const SortCompile ref = CompileBySorting(store);
  const QuantizedCodes codes(store);
  ExpectSameEdges(ref, codes.quantizer(), context);
  ExpectSameEdges(ref, ScalarQuantizer::Train(store), context + " Train");
  ASSERT_EQ(codes.size(), store.size()) << context;
  for (int d = 0; d < ref.dims; ++d) {
    ASSERT_EQ(std::memcmp(codes.Column(d),
                          ref.codes.data() +
                              static_cast<size_t>(d) * store.size(),
                          static_cast<size_t>(store.size())),
              0)
        << context << " dim " << d;
  }
  EXPECT_EQ(codes.scan_order(), ref.scan_order) << context;
}

// A store whose spectrum rows are exactly `rows` (2 * length doubles
// each, interleaved re/im); the time-domain rows are unused here.
FeatureStore StoreOfSpectra(const std::vector<std::vector<double>>& rows) {
  FeatureStore store;
  for (const std::vector<double>& row : rows) {
    SeriesFeatures features;
    for (size_t k = 0; k + 1 < row.size(); k += 2) {
      features.normal_spectrum.emplace_back(row[k], row[k + 1]);
    }
    store.Append(features, std::vector<double>(row.size() / 2, 0.0));
  }
  return store;
}

enum class Values {
  kGaussian,
  kDuplicates,     // a handful of distinct values, heavily repeated
  kConstantRows,   // every row the same: constant columns
  kOutliers,       // gaussian with 1e12 outliers: one crowded bucket
  kMagnitudes,     // +-m * 2^e, e in [-30, 30]
  kSignedZeros,    // +0.0 / -0.0 mixed with a few small values
  kSubnormals,     // a range so narrow its bucket scale overflows
};

double Draw(Values kind, Random* rng) {
  switch (kind) {
    case Values::kGaussian:
      return rng->NextGaussian();
    case Values::kDuplicates: {
      static constexpr double kPool[] = {-1.5, 0.0, 0.25, 0.25, 2.0};
      return kPool[rng->UniformInt(0, 4)];
    }
    case Values::kConstantRows:  // the first row; the others copy it
      return rng->NextGaussian();
    case Values::kOutliers:
      return rng->UniformInt(0, 49) == 0
                 ? (rng->UniformInt(0, 1) == 0 ? 1e12 : -1e12)
                 : rng->NextGaussian();
    case Values::kMagnitudes:
      return (rng->UniformInt(0, 1) == 0 ? 1.0 : -1.0) *
             rng->UniformDouble(1.0, 2.0) *
             std::ldexp(1.0, static_cast<int>(rng->UniformInt(-30, 30)));
    case Values::kSignedZeros: {
      const int64_t pick = rng->UniformInt(0, 9);
      return pick < 4 ? 0.0 : pick < 8 ? -0.0 : (pick - 8.5) * 1e-3;
    }
    case Values::kSubnormals:
      return static_cast<double>(rng->UniformInt(-40, 40)) *
             std::numeric_limits<double>::denorm_min();
  }
  return 0.0;
}

TEST(QuantizerCompile, MatchesSortingOnAdversarialStores) {
  const Values kinds[] = {Values::kGaussian,     Values::kDuplicates,
                          Values::kConstantRows, Values::kOutliers,
                          Values::kMagnitudes,   Values::kSignedZeros,
                          Values::kSubnormals};
  uint64_t seed = 1;
  for (const Values kind : kinds) {
    for (const int count : {1, 2, 3, 15, 16, 17, 255, 256, 257, 1000}) {
      for (const int length : {1, 2, 7, 16}) {
        Random rng(seed++);
        std::vector<std::vector<double>> rows;
        for (int i = 0; i < count; ++i) {
          if (kind == Values::kConstantRows && i > 0) {
            rows.push_back(rows.front());
            continue;
          }
          std::vector<double> row(static_cast<size_t>(2 * length));
          for (double& v : row) {
            v = Draw(kind, &rng);
          }
          rows.push_back(row);
        }
        ExpectCompileMatchesSorting(
            StoreOfSpectra(rows),
            "kind " + std::to_string(static_cast<int>(kind)) + " rows " +
                std::to_string(count) + " length " + std::to_string(length));
      }
    }
  }
}

TEST(QuantizerCompile, MatchesSortingOnTheStockRelation) {
  workload::StockMarketOptions market;
  market.num_series = 3000;
  market.length = 128;
  FeatureStore store;
  for (const TimeSeries& ts : workload::StockMarket(market)) {
    const auto normal = ToNormalForm(ts.values);
    store.Append(ComputeFeatures(ts.values), normal.values);
  }
  ExpectCompileMatchesSorting(store, "stock 3000x128");
}

// EncodeColumn is Encode for every finite value, not only the training
// column's: below the minimum, above the maximum, on and between edges.
TEST(QuantizerCompile, EncodeColumnIsEncodeOutsideTheTrainingRange) {
  Random rng(17);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row(8);
    for (double& v : row) {
      v = rng.NextGaussian() * (i % 7 == 0 ? 100.0 : 1.0);
    }
    rows.push_back(row);
  }
  const FeatureStore store = StoreOfSpectra(rows);
  const ScalarQuantizer q = ScalarQuantizer::Train(store);
  for (int d = 0; d < q.dims(); ++d) {
    const double* edges = q.bounds(d);
    std::vector<double> probes = {
        -std::numeric_limits<double>::max(), edges[0] - 1.0,
        std::nextafter(edges[0], -1e300), edges[kCells] + 1.0,
        std::nextafter(edges[kCells], 1e300),
        std::numeric_limits<double>::max()};
    for (int c = 0; c <= kCells; ++c) {
      probes.push_back(edges[c]);
      if (c < kCells) {
        probes.push_back(0.5 * (edges[c] + edges[c + 1]));
      }
    }
    std::vector<uint8_t> codes(probes.size());
    q.EncodeColumn(d, probes.data(), static_cast<int64_t>(probes.size()),
                   codes.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(codes[i], q.Encode(d, probes[i]))
          << "dim " << d << " value " << probes[i];
    }
  }
}

// GapSqSum, the query scan's dimension-order key, is the sum of the
// squared cell gaps over every cell, from the edge prefix sums: it must
// agree with the cell-by-cell sum up to rounding, for targets below,
// above, on and between the edges.
TEST(QuantizerCompile, GapSqSumIsTheCellByCellSum) {
  Random rng(23);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> row(14);
    for (double& v : row) {
      v = rng.NextGaussian() * (i % 9 == 0 ? 20.0 : 1.0);
    }
    rows.push_back(row);
  }
  const FeatureStore store = StoreOfSpectra(rows);
  const ScalarQuantizer q = ScalarQuantizer::Train(store);
  ASSERT_EQ(q.dims(), 8);  // n = 7: coefficients 0 .. 3
  for (int d = 0; d < q.dims(); ++d) {
    const double* edges = q.bounds(d);
    std::vector<double> targets = {edges[0] - 3.0, edges[kCells] + 3.0, 0.0};
    for (int c = 0; c <= kCells; c += 5) {
      targets.push_back(edges[c]);
      if (c < kCells) {
        targets.push_back(0.5 * (edges[c] + edges[c + 1]));
      }
    }
    for (const double t : targets) {
      double direct = 0.0;
      double scale = 0.0;
      for (int c = 0; c < kCells; ++c) {
        const double gap = t < edges[c]       ? edges[c] - t
                           : t > edges[c + 1] ? t - edges[c + 1]
                                              : 0.0;
        direct += gap * gap;
        scale += t * t + edges[c] * edges[c];
      }
      EXPECT_NEAR(q.GapSqSum(d, t), direct, 1e-12 * scale)
          << "dim " << d << " target " << t;
    }
  }
}

}  // namespace
}  // namespace simq
