/// VA-file-style scalar quantization of the normal-form spectral feature
/// space (the filter half of the quantized filter-and-refine subsystem;
/// see DESIGN.md "Quantized filter").
///
/// A ScalarQuantizer partitions the leading dimensions of a FeatureStore's
/// interleaved spectrum rows (the exact doubles the columnar kernels
/// consume) into kCells = 256 cells each: one byte per code, an 8x shrink
/// over the double it summarizes. The spectrum of a real series is
/// conjugate-symmetric, X_{n-f} = conj(X_f), so coefficients 0 .. n/2
/// determine the row: the quantizer covers only their dimensions,
/// 0 .. HalfSpectrumDims(n) - 1 with HalfSpectrumDims(n) = 2 * (n/2 + 1)
/// (130 of 256 at n = 128), a prefix of the interleaved row. Each stored
/// coefficient f with 0 < f and 2f < n stands for its twin n - f as well
/// (HasTwin): the twin's real part is the stored real part and its
/// imaginary part the stored one negated (filter/bound_kernels.h).
///
/// Cell edges are per-dimension quantiles of the training column, so the
/// grid adapts to the data distribution: dense regions get narrow cells
/// (tight bounds), outliers get wide ones. The outermost edges are the
/// column's true min/max, which makes every cell a FINITE interval that
/// provably brackets the value it encodes -- the property the lower-bound
/// distance kernels (filter/bound_kernels.h) rely on:
///
///   bounds(d)[code] <= row[d] <= bounds(d)[code + 1]   (exactly, in
///   the stored double values -- Encode assigns codes by comparing the
///   same doubles the exact kernels read).
///
/// The grid rule is Encode's and the edge ranks' below; the compile only
/// computes them faster. Training reads the store 8 dimensions at a time
/// (one 64-byte line of every row) into an 8 x size() scratch, never the
/// full transpose. Per column, a monotone bucket map
///
///   b(v) = min(B - 1, floor((v - min) * B / (max - min))),  B = 4096
///
/// orders the values by bucket in one counting pass, so an edge -- the
/// value at rank c * (n - 1) / kCells -- is found by sorting only the
/// bucket that holds its rank: the same value the full sort puts there.
/// The encode uses the same map over the edges (edge 0 and edge kCells
/// are min and max, so it is rebuilt from the edges alone): every edge in
/// a lower bucket than b(v) is < v and every edge in a higher one is > v,
/// so a value's code costs a search of its own bucket's few edges. Both
/// steps give exactly the sort-and-binary-search results.
///
/// The compile also keeps prefix sums of every dimension's edges and
/// squared edges, so a query can sum a dimension's squared cell gaps
/// (GapSqSum) in O(log kCells) instead of filling a row per cell.
///
/// Quantizers are trained per relation shard from that shard's
/// FeatureStore columns (core/sharded_relation.h owns the cache); they
/// are immutable after Train, so any number of query threads may share
/// one without locking.

#ifndef SIMQ_FILTER_QUANTIZER_H_
#define SIMQ_FILTER_QUANTIZER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/feature_store.h"

namespace simq {

class ScalarQuantizer {
 public:
  /// Cells per dimension: every code is one byte.
  static constexpr int kCells = 256;

  /// Receives one trained dimension during Train: `column` holds the
  /// store's size() values of dimension `d` in row order, and
  /// `trained.bounds(d)` is already set (so are the bounds of every
  /// lower dimension; higher ones are not yet).
  using ColumnVisitor = std::function<void(const ScalarQuantizer& trained,
                                           int d, const double* column)>;

  /// Dimensions a quantizer keeps of length-n spectrum rows: the real
  /// and imaginary parts of coefficients 0 .. n/2 (0 for n == 0).
  static int HalfSpectrumDims(int n) { return n > 0 ? 2 * (n / 2 + 1) : 0; }

  /// Trains per-dimension quantile boundaries of the half spectrum over
  /// every spectrum row of `store`. An empty store yields an empty
  /// quantizer (dims() == 0). When `visit` is set it sees every
  /// dimension's column, in dimension order, right after that dimension
  /// is trained, so a caller can encode the column from the same gather.
  static ScalarQuantizer Train(const FeatureStore& store,
                               const ColumnVisitor& visit = nullptr);

  ScalarQuantizer() = default;

  int dims() const { return dims_; }
  /// Length n of the spectra the quantizer was trained on.
  int spectrum_length() const { return n_; }

  /// True when dimension `d`'s coefficient f has a distinct conjugate
  /// twin n - f: every coefficient but 0 and (for even n) n/2.
  bool HasTwin(int d) const {
    const int f = d / 2;
    return f > 0 && 2 * f < n_;
  }

  /// Cell edges of dimension `d`: kCells + 1 non-decreasing doubles;
  /// [0] is the column minimum, [kCells] the column maximum.
  const double* bounds(int d) const {
    return bounds_.data() + static_cast<size_t>(d) * (kCells + 1);
  }

  /// Code of `value` in dimension `d`: the largest cell whose low edge is
  /// <= value, clamped to [0, kCells - 1]. For any value in
  /// [bounds(d)[0], bounds(d)[kCells]] the returned cell brackets it.
  uint32_t Encode(int d, double value) const;

  /// codes[i] = Encode(d, column[i]) for every finite column[i], i in
  /// [0, n), computed with the bucket map of bounds(d).
  void EncodeColumn(int d, const double* column, int64_t n,
                    uint8_t* codes) const;

  /// Sum over every cell c of dimension `d` of the squared distance from
  /// `q` to [bounds(d)[c], bounds(d)[c + 1]] (zero inside), from the edge
  /// prefix sums in O(log kCells). The same sum as adding the cells one by
  /// one in real arithmetic; in floating point it may differ by rounding
  /// (it is clamped to >= 0), so it serves as an ordering key only.
  double GapSqSum(int d, double q) const;

  /// Sum over all dimensions, twins counted again, of the squared
  /// magnitude of the widest cell edge: an upper bound on the energy of
  /// any encoded row, used by the bound kernels to size their absolute
  /// floating-point safety slack.
  double max_row_energy() const { return max_row_energy_; }

 private:
  int n_ = 0;
  int dims_ = 0;
  double max_row_energy_ = 0.0;
  std::vector<double> bounds_;  // dims_ * (kCells + 1), dimension-major
  // Per dimension, kCells + 2 prefix sums of the edges and of their
  // squares, interleaved so one line holds both: entries 2i and 2i + 1 of
  // dimension d's run (from d * 2 * (kCells + 2)) are the sums over edges
  // 0 .. i-1 of e and of e^2.
  std::vector<double> edge_sums_;
};

}  // namespace simq

#endif  // SIMQ_FILTER_QUANTIZER_H_
