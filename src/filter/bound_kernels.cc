#include "filter/bound_kernels.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "filter/quantized_codes.h"
#include "util/logging.h"

namespace simq {

namespace {

// Dimensions per compaction group of the scan core: the width trades
// compaction overhead against wasted accumulation on rows a compaction
// would already have dropped. The query scan fills per-cell rows for its
// first group only.
constexpr int kGroup = 4;

// A dimension's two terms against the cell [lo, hi]: weight * gap(q)^2 +
// twin_weight * gap(twin_q)^2, where gap is the distance to the nearest
// edge, zero inside (at most one of the two max() is nonzero). It is the
// one expression of every LUT row and of every term added from the
// edges, so a row's bound does not depend on which of them served a
// dimension.
inline double CellTerms(const DimTerms& t, double lo, double hi) {
  const double gap = std::max(lo - t.q, 0.0) + std::max(t.q - hi, 0.0);
  const double twin_gap =
      std::max(lo - t.twin_q, 0.0) + std::max(t.twin_q - hi, 0.0);
  return t.weight * (gap * gap) + t.twin_weight * (twin_gap * twin_gap);
}

// out[c] = the terms of `t` in cell c of `edges`, for every cell.
void FillRow(const DimTerms& t, const double* edges, int cells, double* out) {
  for (int c = 0; c < cells; ++c) {
    out[c] = CellTerms(t, edges[c], edges[c + 1]);
  }
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

// Adds one dimension's terms into the bounds of the `rows`, straight from
// the edges of each row's cell. Out of line for the same reason.
__attribute__((noinline)) void AddColumnTerms(const std::vector<int32_t>& rows,
                                              const uint8_t* column,
                                              const double* edges,
                                              const DimTerms& terms,
                                              double* acc) {
  const DimTerms t = terms;  // a copy: stores to acc cannot alias it
  for (const int32_t r : rows) {
    const int c = column[r];
    acc[r] += CellTerms(t, edges[c], edges[c + 1]);
  }
}

// The one column-screen core: add `ranks` dimensions, one at a time, over
// the `active` unit-relative offsets, compacting survivors against
// `threshold(active, acc)` after every group of dimensions. Accumulators
// are indexed by unit-relative offset (not survivor position), so
// compaction never shuffles them; `add_rank(rank, rows, acc)` adds the
// rank-th dimension of the scan, which is the only difference between the
// query scans (QueryLuts::order, LUT rows then cell edges) and the
// pairwise screen (explicit dim list, rank-major LUT).
template <typename AddRank, typename Threshold>
void ScreenColumns(int ranks, double base, int64_t lo, int64_t hi,
                   const Threshold& threshold, std::vector<int32_t>* active,
                   std::vector<double>* scratch, const AddRank& add_rank) {
  if (active->empty()) {
    return;
  }
  scratch->assign(static_cast<size_t>(hi - lo), base);
  double* acc = scratch->data();
  int rank = 0;
  do {
    const int group_end = std::min(ranks, rank + kGroup);
    for (; rank < group_end; ++rank) {
      add_rank(rank, *active, acc);
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

// Every stored dimension's terms for one query, the constant of its
// zero-multiplier coefficients, and the energies its slack is sized from.
struct QueryTerms {
  std::vector<DimTerms> terms;
  double base = 0.0;
  double query_energy = 0.0;
  double data_energy = 0.0;
};

// Visits all n coefficients g of the query -- coefficient g's term lands
// on stored coefficient g when 2g <= n, and as the twin term of stored
// coefficient n - g otherwise (the real part as is, the imaginary part
// negated, since x_g = conj(x_{n-g})).
QueryTerms MakeQueryTerms(const ScalarQuantizer& quantizer,
                          const double* query_ri, const double* mult_ri,
                          int n) {
  QueryTerms out;
  out.terms.resize(static_cast<size_t>(quantizer.dims()));
  for (int g = 0; g < n; ++g) {
    double qr = query_ri[2 * g];
    double qi = query_ri[2 * g + 1];
    double w = 1.0;
    if (mult_ri != nullptr) {
      const double mr = mult_ri[2 * g];
      const double mi = mult_ri[2 * g + 1];
      w = mr * mr + mi * mi;
      if (w == 0.0) {
        // The kernel computes (0 - q)^2 for this coefficient no matter
        // what the record holds: a constant, kept out of the terms.
        out.base += qr * qr + qi * qi;
        out.query_energy += qr * qr + qi * qi;
        continue;
      }
      // q' = q / m, so |x*m - q|^2 == w * |x - q'|^2 per coefficient.
      const double inv = 1.0 / w;
      const double tr = (qr * mr + qi * mi) * inv;
      const double ti = (qi * mr - qr * mi) * inv;
      if (!std::isfinite(w) || !std::isfinite(tr) || !std::isfinite(ti)) {
        continue;  // overflow: no term is still a lower bound
      }
      qr = tr;
      qi = ti;
    }
    const bool twin = 2 * g > n;
    const int f = twin ? n - g : g;
    DimTerms& re = out.terms[static_cast<size_t>(2 * f)];
    DimTerms& im = out.terms[static_cast<size_t>(2 * f + 1)];
    if (twin) {
      re.twin_q = qr;
      re.twin_weight = w;
      im.twin_q = -qi;
      im.twin_weight = w;
    } else {
      re.q = qr;
      re.weight = w;
      im.q = qi;
      im.weight = w;
    }
  }
  // Energy scales for the absolute safety slack: the transformed query's
  // energy plus an upper bound on any encoded row's energy in the
  // transformed space (per-dim widest edge, scaled by both weights).
  for (int d = 0; d < quantizer.dims(); ++d) {
    const DimTerms& t = out.terms[static_cast<size_t>(d)];
    const double* edges = quantizer.bounds(d);
    const double widest =
        std::max(std::abs(edges[0]), std::abs(edges[quantizer.cells()]));
    out.data_energy += (t.weight + t.twin_weight) * (widest * widest);
    out.query_energy +=
        t.weight * (t.q * t.q) + t.twin_weight * (t.twin_q * t.twin_q);
  }
  return out;
}

}  // namespace

void FillPairScreenLut(const ScalarQuantizer& quantizer, const double* row,
                       const int32_t* dims, int ranks, double* lut) {
  const int cells = quantizer.cells();
  const int n = quantizer.spectrum_length();
  for (int r = 0; r < ranks; ++r) {
    const int d = dims[r];
    DimTerms t;
    t.q = row[d];
    t.weight = 1.0;
    if (quantizer.HasTwin(d)) {
      // Dimension d of coefficient f = d / 2; the twin's part of the same
      // kind sits at 2 (n - f) + d % 2, its imaginary part negated.
      const double twin = row[2 * (n - d / 2) + d % 2];
      t.twin_q = d % 2 == 0 ? twin : -twin;
      t.twin_weight = 1.0;
    }
    FillRow(t, quantizer.bounds(d), cells,
            lut + static_cast<int64_t>(r) * cells);
  }
}

void PairScreenScan(const QuantizedCodes& codes, const double* lut,
                    const int32_t* dims, int ranks, double abandon_sq,
                    int64_t lo, int64_t hi, std::vector<int32_t>* active,
                    std::vector<double>* scratch) {
  const int cells = codes.cells();
  ScreenColumns(
      ranks, /*base=*/0.0, lo, hi,
      [abandon_sq](std::vector<int32_t>*, const double*) { return abandon_sq; },
      active, scratch,
      [&](int rank, const std::vector<int32_t>& rows, double* acc) {
        AddColumn(rows, codes.Column(dims[rank]) + lo,
                  lut + static_cast<int64_t>(rank) * cells, acc);
      });
}

void ColumnLowerBoundScan(const QuantizedCodes& codes, const QueryLuts& luts,
                          int64_t lo, int64_t hi,
                          const ScanThreshold& threshold,
                          std::vector<int32_t>* active,
                          std::vector<double>* scratch) {
  // Dims are consumed in the discrimination order, so the weakly
  // discriminating tail dimensions only touch the rows still in play --
  // few enough that their terms come straight from the cell edges.
  const ScalarQuantizer& quantizer = codes.quantizer();
  ScreenColumns(
      luts.dims, luts.base, lo, hi, threshold, active, scratch,
      [&](int rank, const std::vector<int32_t>& rows, double* acc) {
        const int d = luts.order[static_cast<size_t>(rank)];
        const uint8_t* column = codes.Column(d) + lo;
        if (rank < luts.lut_rows) {
          AddColumn(rows, column,
                    luts.lut.data() + static_cast<int64_t>(rank) * luts.cells,
                    acc);
        } else {
          AddColumnTerms(rows, column, quantizer.bounds(d),
                         luts.terms[static_cast<size_t>(d)], acc);
        }
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
  SIMQ_CHECK_EQ(quantizer.spectrum_length(), n);
  QueryTerms terms = MakeQueryTerms(quantizer, query_ri, mult_ri, n);
  luts.terms = std::move(terms.terms);
  luts.base = terms.base;
  luts.slack = 1e-9 * (terms.query_energy + terms.data_energy + 1e-300);
  // Order key: the sum of a dimension's terms over every cell, the sum of
  // the LUT row it would have -- from the edge prefix sums, not the row.
  std::vector<double> key(static_cast<size_t>(luts.dims), 0.0);
  for (int d = 0; d < luts.dims; ++d) {
    const DimTerms& t = luts.terms[static_cast<size_t>(d)];
    double sum = 0.0;
    if (t.weight > 0.0) {
      sum += t.weight * quantizer.GapSqSum(d, t.q);
    }
    if (t.twin_weight > 0.0) {
      sum += t.twin_weight * quantizer.GapSqSum(d, t.twin_q);
    }
    key[static_cast<size_t>(d)] = sum;
  }
  luts.order.resize(static_cast<size_t>(luts.dims));
  for (int d = 0; d < luts.dims; ++d) {
    luts.order[static_cast<size_t>(d)] = d;
  }
  std::sort(luts.order.begin(), luts.order.end(),
            [&](int32_t a, int32_t b) {
              if (key[static_cast<size_t>(a)] != key[static_cast<size_t>(b)]) {
                return key[static_cast<size_t>(a)] >
                       key[static_cast<size_t>(b)];
              }
              return a < b;
            });
  luts.lut_rows = std::min(kGroup, luts.dims);
  luts.lut.resize(static_cast<size_t>(luts.lut_rows) * luts.cells);
  for (int r = 0; r < luts.lut_rows; ++r) {
    const int d = luts.order[static_cast<size_t>(r)];
    FillRow(luts.terms[static_cast<size_t>(d)], quantizer.bounds(d),
            luts.cells, luts.lut.data() + static_cast<int64_t>(r) * luts.cells);
  }
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
  const QueryTerms terms = MakeQueryTerms(quantizer, query_ri, mult_ri, n);
  double fraction = 1.0;
  for (int d = 0; d < dims && fraction > 0.0; ++d) {
    const DimTerms& t = terms.terms[static_cast<size_t>(d)];
    const double* b = quantizer.bounds(d);
    // Per term, target and radius. A term contributes weight * |x - q|^2
    // with q already transformed by the multiplier, so the cell test runs
    // against q with the radius scaled by 1/sqrt(weight); a zero weight
    // leaves the term unconstrained. The radius is the FULL epsilon per
    // term -- a row inside the ball is inside every per-term slab -- so
    // each factor is itself conservative and only the independence
    // assumption makes the product estimative.
    for (const auto& [target, weight] :
         {std::pair<double, double>(t.q, t.weight),
          std::pair<double, double>(t.twin_q, t.twin_weight)}) {
      if (weight == 0.0) {
        continue;
      }
      const double radius = epsilon / std::sqrt(weight);
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
    }
  }
  return std::min(1.0, std::max(0.0, fraction));
}

}  // namespace simq
