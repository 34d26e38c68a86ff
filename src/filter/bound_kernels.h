/// Lower-bound distance scans over column-major quantized codes, plus the
/// per-query bound terms that feed them (the refine half's gatekeeper;
/// see DESIGN.md "Quantized filter").
///
/// Correctness contract. For a query q and a record x encoded as codes
/// c_d with cell edges [lo_d, hi_d] = [bounds(d)[c_d], bounds(d)[c_d+1]]
/// (which bracket x_d exactly; filter/quantizer.h):
///
///   LB(q, codes(x)) <= |x - q|^2                        (real arithmetic)
///
/// per dimension: the squared distance from q_d to the nearest edge of
/// the cell, zero when q_d lies inside. The codes hold only the half
/// spectrum (coefficients 0 .. n/2). A stored spectrum row is the DFT of a
/// real series, so coefficient n - f is conj(x_f): its real part lies in
/// dimension 2f's cell and its imaginary part in the negated cell of
/// dimension 2f + 1. Each stored dimension therefore adds two terms
/// against its one cell -- coefficient f's, and its twin's with the twin
/// query part (the imaginary one negated) -- and the sum covers all n
/// coefficients. A sum over any subset of the dimensions is a lower bound
/// too, which is what lets a scan drop a row as soon as its partial sum
/// passes the threshold. Spectral multiplier rules m fold in exactly: per
/// coefficient f, |x_f*m_f - q_f|^2 == |m_f|^2 * |x_f - q_f/m_f|^2, so a
/// term bounds against the transformed query q/m scaled by the weight
/// |m|^2 (coefficients with m_f == 0 contribute the constant |q_f|^2,
/// kept in `base`; one whose weight or q/m overflows adds no term).
/// Neither the query spectrum nor the multiplier needs any symmetry.
///
/// Floating point. The bound holds in real arithmetic; the bound sums and
/// the exact columnar kernels round differently (different association,
/// the multiplier identity above, possible FMA contraction), and the FFT
/// leaves a stored twin a few ulps off conj(x_f), so a computed LB may
/// exceed the computed exact distance by a few ulps of the row's energy.
/// All pruning therefore compares against SafeThreshold(thr_sq): thr_sq
/// inflated by a relative guard plus an absolute slack proportional to
/// the query/data energies (~1e-9 relative, about six orders of magnitude
/// above those rounding and twin errors, and equally far below any
/// pruning power that matters). Survivors are refined through the
/// unmodified exact kernels, so answers remain bit-identical to the
/// unfiltered engines by construction: pruning can only ever be too weak,
/// never wrong.
///
/// One scan core serves the range scan, the kNN scan and the join screen:
/// it adds one dimension at a time across a run of rows (the dimension's
/// code column stays cache-hot for the whole pass) and compacts the
/// survivor list after every group of dimensions against a threshold it
/// asks the caller for each time. A range query answers with its fixed
/// epsilon; the kNN driver answers with a radius that shrinks as it
/// exact-checks rows (core/database.cc). A query builds no dims x cells
/// table: it orders the dimensions by a closed-form key, fills per-cell
/// rows for the first group only, and adds every later dimension's terms
/// straight from its cell edges, with the same expression as the rows.
///
/// Everything here is stateless or immutable after construction; safe
/// for any number of concurrent query threads.

#ifndef SIMQ_FILTER_BOUND_KERNELS_H_
#define SIMQ_FILTER_BOUND_KERNELS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "filter/quantizer.h"

namespace simq {

/// One stored dimension's two bound terms for a query: weight * gap(q)^2
/// for its coefficient and twin_weight * gap(twin_q)^2 for the twin,
/// where gap is the distance from the target to the row's cell. A zero
/// weight adds nothing (and its target is 0).
struct DimTerms {
  double q = 0.0;
  double weight = 0.0;
  double twin_q = 0.0;
  double twin_weight = 0.0;
};

/// Per-query bound terms against one shard's quantizer grid.
struct QueryLuts {
  int dims = 0;
  /// Constant distance contribution of zero-multiplier coefficients.
  double base = 0.0;
  /// Absolute floating-point safety slack (see SafeThreshold).
  double slack = 0.0;
  std::vector<DimTerms> terms;  // per stored dimension
  /// Dimensions sorted by descending sum of their terms over every cell
  /// (quantile cells are equi-populated, so that sum over cells is the
  /// expected per-record contribution times kCells). The column scan
  /// consumes dimensions in this order, so the most discriminating ones
  /// run first and the survivor list collapses after one compaction; the
  /// full-sum bound is order-independent, so correctness is untouched.
  std::vector<int32_t> order;
  /// Per-cell bounds of the first scan group, order[0 .. lut_rows):
  /// lut[r * kCells + c] is dimension order[r]'s terms in cell c.
  int lut_rows = 0;
  std::vector<double> lut;
};

/// Builds the bound terms for `query_ri` (2n interleaved (re, im)
/// doubles, the exact query the columnar kernels consume) against
/// `quantizer`'s grid. `mult_ri` is the interleaved spectral multiplier
/// (nullptr = identity).
QueryLuts BuildQueryLuts(const ScalarQuantizer& quantizer,
                         const double* query_ri, const double* mult_ri,
                         int n);

/// Threshold against which pruning decisions compare a computed lower
/// bound: `thr_sq` inflated so rounding differences between the bound
/// kernels and the exact kernels can never cause a false dismissal.
inline double SafeThreshold(double thr_sq, double slack) {
  return thr_sq + 1e-9 * thr_sq + slack;
}

class QuantizedCodes;

/// Per-outer-row screen LUT of the filtered self-join: for the `ranks`
/// dimensions listed in `dims` (the codes' static scan_order prefix), the
/// lower bounds of dimension d's two terms against each of its cells --
/// (row[d] - x)^2 and, where d has a twin, the twin's part of `row` (a
/// full 2n-double spectrum row) against the same cell. `lut` must hold
/// ranks * ScalarQuantizer::kCells doubles, rank-major. A partial-sum
/// bound over a dimension subset is itself a valid lower bound of the
/// full distance, so screening on these rows alone never drops a true
/// pair.
void FillPairScreenLut(const ScalarQuantizer& quantizer, const double* row,
                       const int32_t* dims, int ranks, double* lut);

/// Column-major pairwise screen over rows [lo, hi): like
/// ColumnLowerBoundScan but accumulating only the `ranks` LUT rows of
/// FillPairScreenLut. `active` holds absolute local-row offsets minus
/// `lo`; on return only offsets whose partial lower bound is <=
/// `abandon_sq` remain, ascending.
void PairScreenScan(const QuantizedCodes& codes, const double* lut,
                    const int32_t* dims, int ranks, double abandon_sq,
                    int64_t lo, int64_t hi, std::vector<int32_t>* active,
                    std::vector<double>* scratch);

/// The threshold a column scan compacts its survivors against, asked for
/// after every group of dimensions. It receives the rows still in play
/// and their partial bounds so far (indexed by unit-relative offset); it
/// may drop rows from `active`, keeping the rest ascending. The kNN
/// driver exact-checks a few rows this way and answers with its shrunken
/// radius; a range scan answers with its fixed threshold.
using ScanThreshold =
    std::function<double(std::vector<int32_t>* active, const double* partial)>;

/// Column-major lower-bound scan over rows [lo, hi) of `codes`. `active`
/// holds the unit-relative offsets of the rows in play (the caller has
/// already applied tombstones and pattern predicates); the scan adds one
/// dimension at a time, in `luts.order`, across all active rows -- the
/// first group from `luts.lut`, later ones from the cell edges -- and
/// after every few dimensions drops the rows whose
/// running bound exceeds `threshold`'s answer. On return `active` holds
/// the offsets whose full lower bound passed every compaction, ascending,
/// and `(*scratch)[r]` holds row r's full lower bound for each of them.
/// `scratch` is caller-provided accumulator storage, resized as needed.
void ColumnLowerBoundScan(const QuantizedCodes& codes, const QueryLuts& luts,
                          int64_t lo, int64_t hi,
                          const ScanThreshold& threshold,
                          std::vector<int32_t>* active,
                          std::vector<double>* scratch);

/// Planner-side selectivity estimate of a range query against one
/// shard's quantizer grid: the estimated fraction of rows within
/// `epsilon` of the query, as the product over the bound terms (a stored
/// dimension's and its twin's, each at its own weight) of each term's
/// surviving-cell fraction. Quantile cells are
/// equi-populated, so the fraction of cells whose interval intersects
/// [q_d - eps_d, q_d + eps_d] is (to one cell of resolution) the
/// fraction of rows surviving that dimension alone; the product assumes
/// dimension independence, making this an estimate, not a bound. Feeds
/// the per-shard estimated cardinalities of EXPLAIN / EXPLAIN ANALYZE
/// only -- no pruning decision ever reads it. `query_ri` / `mult_ri` are
/// the interleaved query spectrum and spectral multiplier the exact
/// kernels consume (mult_ri nullptr = identity).
double EstimateRangeSurvivorFraction(const ScalarQuantizer& quantizer,
                                     const double* query_ri,
                                     const double* mult_ri, int n,
                                     double epsilon);

}  // namespace simq

#endif  // SIMQ_FILTER_BOUND_KERNELS_H_
