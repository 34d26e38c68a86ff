#include "filter/bound_kernels.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "filter/quantized_codes.h"
#include "util/logging.h"

namespace simq {

namespace {

// Lower bound of (q - x)^2 over the cell [lo, hi]: the distance to the
// nearest edge, zero inside. Shared by the per-query LUT fill and the
// pairwise screen LUT fill.
inline double CellGapSq(double q, double lo, double hi) {
  const double gap = q < lo ? lo - q : (q > hi ? q - hi : 0.0);
  return gap * gap;
}

// Adds one dimension's LUT entries into the bounds of the `rows`. Kept
// out of line: inlined into ScreenColumns, whose threshold call keeps more
// values live across the loop, GCC moved this loop's pointers through
// vector registers and the whole scan ran about 15% slower.
__attribute__((noinline)) void AddColumn(const std::vector<int32_t>& rows,
                                         const uint8_t* column,
                                         const double* lut_row, double* acc) {
  for (const int32_t r : rows) {
    acc[r] += lut_row[column[r]];
  }
}

// The one column-screen core: accumulate LUT rows column by column over
// the `active` unit-relative offsets, compacting survivors against
// `threshold(active, acc)` after every group of dimensions. Accumulators
// are indexed by unit-relative offset (not survivor position), so
// compaction never shuffles them; `row_of(rank)` maps a scan rank to its
// (column, LUT row) pair, which is the only difference between the
// query scans (dims in QueryLuts::order, dim-major LUT) and the pairwise
// screen (explicit dim list, rank-major LUT).
template <typename RowOf, typename Threshold>
void ScreenColumns(const QuantizedCodes& codes, int ranks, double base,
                   int64_t lo, int64_t hi, const Threshold& threshold,
                   std::vector<int32_t>* active,
                   std::vector<double>* scratch, const RowOf& row_of) {
  if (active->empty()) {
    return;
  }
  scratch->assign(static_cast<size_t>(hi - lo), base);
  double* acc = scratch->data();
  int rank = 0;
  // The group width trades compaction overhead against wasted
  // accumulation on rows a compaction would already have dropped.
  constexpr int kGroup = 4;
  do {
    const int group_end = std::min(ranks, rank + kGroup);
    for (; rank < group_end; ++rank) {
      const auto [dim, lut_row] = row_of(rank);
      AddColumn(*active, codes.Column(dim) + lo, lut_row, acc);
    }
    const double limit = threshold(active, acc);
    size_t kept = 0;
    for (const int32_t r : *active) {
      (*active)[kept] = r;
      kept += acc[r] <= limit ? 1 : 0;
    }
    active->resize(kept);
  } while (rank < ranks && !active->empty());
}

}  // namespace

void FillPairScreenLut(const ScalarQuantizer& quantizer, const double* row,
                       const int32_t* dims, int ranks, double* lut) {
  const int cells = quantizer.cells();
  for (int r = 0; r < ranks; ++r) {
    const int d = dims[r];
    const double* edges = quantizer.bounds(d);
    const double q = row[d];
    double* out = lut + static_cast<int64_t>(r) * cells;
    for (int c = 0; c < cells; ++c) {
      out[c] = CellGapSq(q, edges[c], edges[c + 1]);
    }
  }
}

void PairScreenScan(const QuantizedCodes& codes, const double* lut,
                    const int32_t* dims, int ranks, double abandon_sq,
                    int64_t lo, int64_t hi, std::vector<int32_t>* active,
                    std::vector<double>* scratch) {
  const int cells = codes.cells();
  ScreenColumns(
      codes, ranks, /*base=*/0.0, lo, hi,
      [abandon_sq](std::vector<int32_t>*, const double*) { return abandon_sq; },
      active, scratch, [&](int rank) {
        return std::pair<int, const double*>(
            dims[rank], lut + static_cast<int64_t>(rank) * cells);
      });
}

void ColumnLowerBoundScan(const QuantizedCodes& codes, const QueryLuts& luts,
                          int64_t lo, int64_t hi,
                          const ScanThreshold& threshold,
                          std::vector<int32_t>* active,
                          std::vector<double>* scratch) {
  // Dims are consumed in the LUT's discrimination order, so the weakly
  // discriminating tail dimensions only touch the rows still in play.
  const double* lb = luts.lb.data();
  ScreenColumns(codes, luts.dims, luts.base, lo, hi, threshold, active,
                scratch, [&](int rank) {
                  const int d = luts.order[static_cast<size_t>(rank)];
                  return std::pair<int, const double*>(
                      d, lb + static_cast<int64_t>(d) * luts.cells);
                });
}

QueryLuts BuildQueryLuts(const ScalarQuantizer& quantizer,
                         const double* query_ri, const double* mult_ri,
                         int n) {
  QueryLuts luts;
  luts.dims = quantizer.dims();
  luts.cells = quantizer.cells();
  if (luts.dims == 0) {
    return luts;
  }
  SIMQ_CHECK_EQ(luts.dims, 2 * n);
  luts.lb.assign(static_cast<size_t>(luts.dims) * luts.cells, 0.0);
  // Energy scales for the absolute safety slack: the transformed query's
  // energy plus an upper bound on any encoded row's energy in the
  // transformed space (per-dim widest edge, scaled by the weight).
  double query_energy = 0.0;
  double data_energy = 0.0;

  const auto fill_dim = [&](int d, double q, double w) {
    const double* edges = quantizer.bounds(d);
    double* lb_row = luts.lb.data() + static_cast<size_t>(d) * luts.cells;
    for (int c = 0; c < luts.cells; ++c) {
      lb_row[c] = w * CellGapSq(q, edges[c], edges[c + 1]);
    }
    const double widest =
        std::max(std::abs(edges[0]), std::abs(edges[luts.cells]));
    data_energy += w * widest * widest;
    query_energy += w * q * q;
  };

  for (int f = 0; f < n; ++f) {
    const int d0 = 2 * f;
    const int d1 = 2 * f + 1;
    double qr = query_ri[d0];
    double qi = query_ri[d1];
    double w = 1.0;
    if (mult_ri != nullptr) {
      const double mr = mult_ri[d0];
      const double mi = mult_ri[d1];
      w = mr * mr + mi * mi;
      if (w == 0.0) {
        // The kernel computes (0 - q)^2 for this coefficient no matter
        // what the record holds: a constant, kept out of the tables.
        luts.base += qr * qr + qi * qi;
        query_energy += qr * qr + qi * qi;
        continue;
      }
      // q' = q / m, so |x*m - q|^2 == w * |x - q'|^2 per coefficient.
      const double inv = 1.0 / w;
      const double tr = (qr * mr + qi * mi) * inv;
      const double ti = (qi * mr - qr * mi) * inv;
      qr = tr;
      qi = ti;
    }
    fill_dim(d0, qr, w);
    fill_dim(d1, qi, w);
  }
  luts.slack = 1e-9 * (query_energy + data_energy + 1e-300);
  luts.order.resize(static_cast<size_t>(luts.dims));
  std::vector<double> mean_lb(static_cast<size_t>(luts.dims), 0.0);
  for (int d = 0; d < luts.dims; ++d) {
    luts.order[static_cast<size_t>(d)] = d;
    const double* lb_row = luts.lb.data() + static_cast<size_t>(d) * luts.cells;
    double sum = 0.0;
    for (int c = 0; c < luts.cells; ++c) {
      sum += lb_row[c];
    }
    mean_lb[static_cast<size_t>(d)] = sum;
  }
  std::sort(luts.order.begin(), luts.order.end(),
            [&](int32_t a, int32_t b) {
              if (mean_lb[static_cast<size_t>(a)] !=
                  mean_lb[static_cast<size_t>(b)]) {
                return mean_lb[static_cast<size_t>(a)] >
                       mean_lb[static_cast<size_t>(b)];
              }
              return a < b;
            });
  return luts;
}

double EstimateRangeSurvivorFraction(const ScalarQuantizer& quantizer,
                                     const double* query_ri,
                                     const double* mult_ri, int n,
                                     double epsilon) {
  const int dims = quantizer.dims();
  const int cells = quantizer.cells();
  if (dims <= 0 || cells <= 0 || n <= 0) {
    return 1.0;
  }
  double fraction = 1.0;
  for (int d = 0; d < dims; ++d) {
    // Per-dimension target and radius. With a spectral multiplier m the
    // record contributes |m|^2 * |x - q/m|^2 per coefficient, so the
    // cell test runs against q/m with the radius scaled by 1/|m|; a zero
    // multiplier leaves the dimension unconstrained. The radius is the
    // FULL epsilon per dimension -- a row inside the ball is inside
    // every per-dimension slab -- so each factor is itself conservative
    // and only the independence assumption makes the product estimative.
    const int f = d / 2;
    double target = query_ri[d];
    double radius = epsilon;
    if (mult_ri != nullptr) {
      const double mr = mult_ri[2 * (f % n)];
      const double mi = mult_ri[2 * (f % n) + 1];
      const double m_sq = mr * mr + mi * mi;
      if (m_sq == 0.0) {
        continue;
      }
      const double qr = query_ri[2 * f];
      const double qi = query_ri[2 * f + 1];
      // q / m, the component matching this real dimension.
      const double tr = (qr * mr + qi * mi) / m_sq;
      const double ti = (qi * mr - qr * mi) / m_sq;
      target = (d % 2 == 0) ? tr : ti;
      radius = epsilon / std::sqrt(m_sq);
    }
    const double* b = quantizer.bounds(d);
    const double lo = target - radius;
    const double hi = target + radius;
    // Cells whose interval [b[c], b[c+1]] intersects [lo, hi].
    const int c_lo = static_cast<int>(
        std::lower_bound(b + 1, b + 1 + cells, lo) - (b + 1));
    const int c_hi =
        static_cast<int>(std::upper_bound(b, b + cells, hi) - b) - 1;
    const int count =
        std::max(0, std::min(cells - 1, c_hi) - std::min(cells, c_lo) + 1);
    fraction *= static_cast<double>(count) / static_cast<double>(cells);
    if (fraction == 0.0) {
      break;
    }
  }
  return std::min(1.0, std::max(0.0, fraction));
}

}  // namespace simq
