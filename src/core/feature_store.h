/// Columnar (structure-of-arrays) storage of a relation's derived data, plus
/// the batch distance kernels that run over it.
///
/// Each shard's FeatureStore is the only copy of its rows' derived data:
/// a Record keeps just id, name and raw values, and everything computed
/// from the raw values lives here. A row-of-structs layout (one
/// heap-allocated Spectrum per record) would force every scan and join to
/// chase a pointer per record and to run a branch-per-coefficient
/// early-abandon loop; the FeatureStore lays the data out as flat double
/// arrays:
///
///   spectra_  : one row per record, the full normal-form unitary DFT as
///               interleaved (re, im) pairs, rows padded to a 64-byte
///               multiple so every row starts on a cache-line boundary;
///   normals_  : one row per record, the Goldin-Kanellakis normal form
///               (time domain), read by the non-spectral exact checks;
///   means_/stds_: the per-record statistics as dense columns, so pattern
///               predicates scan without touching the records.
///
/// The kernels below consume these rows. They accumulate into independent
/// partial sums (breaking the loop-carried dependence of the naive sum so
/// the compiler can vectorize / the CPU can overlap the FMA chains) and
/// check the early-abandon threshold after the first two coefficients --
/// the abandon point of the scalar reference loop, since coefficient 0 of a
/// normal-form spectrum is zero and similarity thresholds are tiny relative
/// to total spectrum energy -- and then once per block of 8 coefficients.
/// Because squared terms are nonnegative the partial sums are nondecreasing,
/// so block-granular abandoning returns +infinity exactly when the
/// per-coefficient version does; only the rounding of the final sum can
/// differ from the scalar reference (by reassociation), which the
/// equivalence tests bound. They are defined inline so the per-row calls in
/// the scan/join loops disappear into the caller.
///
/// See DESIGN.md "Columnar execution" for how core/database.cc drives these
/// kernels and how blocks map onto the thread pool.

#ifndef SIMQ_CORE_FEATURE_STORE_H_
#define SIMQ_CORE_FEATURE_STORE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "ts/dft.h"
#include "ts/feature.h"

namespace simq {

class FeatureStore {
 public:
  FeatureStore() = default;

  // Appends one record's derived data. Every append after the first must
  // have the same spectrum/series length.
  void Append(const SeriesFeatures& features,
              const std::vector<double>& normal_values);

  // Makes room for `rows` records in every column, so a bulk load
  // allocates each column once instead of doubling it row by row. The row
  // widths are fixed by the first Append: a reservation made before it
  // takes effect there.
  void Reserve(int64_t rows);

  int64_t size() const { return count_; }
  // Number of complex coefficients per spectrum row (the series length n).
  int spectrum_length() const { return spectrum_length_; }
  int series_length() const { return series_length_; }

  // Row i of the normal-form spectrum: 2*spectrum_length() doubles,
  // interleaved (re, im).
  const double* SpectrumRow(int64_t i) const {
    return spectra_.data() + i * spectrum_stride_;
  }
  // Row i of the normal form in the time domain: series_length() doubles.
  const double* NormalRow(int64_t i) const {
    return normals_.data() + i * normal_stride_;
  }

  const double* means() const { return means_.data(); }
  const double* stds() const { return stds_.data(); }
  double mean(int64_t i) const { return means_[static_cast<size_t>(i)]; }
  double std_dev(int64_t i) const { return stds_[static_cast<size_t>(i)]; }

  // Packed prefix column: the first two spectrum coefficients of every
  // record as 4 contiguous doubles per record (zero-padded for n < 2).
  // Early-abandoning scans screen against this column -- 32 sequential
  // bytes per record -- and touch the strided full row only for the rare
  // survivors.
  const double* Prefixes() const { return prefixes_.data(); }
  const double* PrefixRow(int64_t i) const {
    return prefixes_.data() + 4 * i;
  }

 private:
  // Reserves reserved_rows_ rows in every column; needs the row widths.
  void ReserveColumns();

  int64_t count_ = 0;
  int64_t reserved_rows_ = 0;  // the largest Reserve so far
  int spectrum_length_ = 0;
  int series_length_ = 0;
  int64_t spectrum_stride_ = 0;  // doubles per spectrum row (padded)
  int64_t normal_stride_ = 0;    // doubles per normal-form row (padded)
  std::vector<double> spectra_;
  std::vector<double> normals_;
  std::vector<double> prefixes_;
  std::vector<double> means_;
  std::vector<double> stds_;
};

// Lays out a complex spectrum as interleaved (re, im) doubles, the query-
// and multiplier-side format of the kernels below.
std::vector<double> InterleaveSpectrum(const Spectrum& spectrum);

// All kernels: `n` is the number of complex coefficients; `limit_sq` is the
// squared early-abandon threshold (pass +infinity to disable). They return
// the squared distance, or +infinity as soon as a partial sum exceeds
// `limit_sq`.

namespace internal {

constexpr double kKernelInf = std::numeric_limits<double>::infinity();

// Unchecked distance sum: no abandon checks, so the main loop is a pure
// 4-lane reduction with no horizontal sums.
inline double RowDistanceSqNoLimit(const double* a, const double* q,
                                   int len) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int i = 0;
  for (; i + 4 <= len; i += 4) {
    const double d0 = a[i] - q[i];
    const double d1 = a[i + 1] - q[i + 1];
    const double d2 = a[i + 2] - q[i + 2];
    const double d3 = a[i + 3] - q[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double tail = 0.0;
  for (; i < len; ++i) {
    const double d = a[i] - q[i];
    tail += d * d;
  }
  return (s0 + s1) + (s2 + s3) + tail;
}

}  // namespace internal

// |a - q|^2 summed over n coefficients.
inline double RowDistanceSq(const double* a, const double* q, int n,
                            double limit_sq) {
  const int len = 2 * n;
  if (limit_sq == internal::kKernelInf) {
    return internal::RowDistanceSqNoLimit(a, q, len);
  }
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int i = 0;
  // Prefix: the first two coefficients, then a check.
  if (len >= 4) {
    const double d0 = a[0] - q[0];
    const double d1 = a[1] - q[1];
    const double d2 = a[2] - q[2];
    const double d3 = a[3] - q[3];
    s0 = d0 * d0;
    s1 = d1 * d1;
    s2 = d2 * d2;
    s3 = d3 * d3;
    if (s0 + s1 + s2 + s3 > limit_sq) {
      return internal::kKernelInf;
    }
    i = 4;
  }
  // 16 doubles (8 coefficients) per abandon check; four independent
  // accumulators keep the FMA chains overlapped.
  for (; i + 16 <= len; i += 16) {
    for (int j = 0; j < 16; j += 4) {
      const double d0 = a[i + j] - q[i + j];
      const double d1 = a[i + j + 1] - q[i + j + 1];
      const double d2 = a[i + j + 2] - q[i + j + 2];
      const double d3 = a[i + j + 3] - q[i + j + 3];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    if (s0 + s1 + s2 + s3 > limit_sq) {
      return internal::kKernelInf;
    }
  }
  double tail = 0.0;
  for (; i < len; ++i) {
    const double d = a[i] - q[i];
    tail += d * d;
  }
  const double sum = (s0 + s1) + (s2 + s3) + tail;
  return sum > limit_sq ? internal::kKernelInf : sum;
}

// |a * m - q|^2: data row `a` passed through the spectral multiplier `m`.
inline double RowDistanceSqMult(const double* a, const double* m,
                                const double* q, int n, double limit_sq) {
  const int len = 2 * n;
  double s0 = 0.0, s1 = 0.0;
  int i = 0;
  if (len >= 4) {
    for (; i < 4; i += 2) {
      const double ar = a[i], ai = a[i + 1];
      const double mr = m[i], mi = m[i + 1];
      const double dr = ar * mr - ai * mi - q[i];
      const double di = ar * mi + ai * mr - q[i + 1];
      s0 += dr * dr;
      s1 += di * di;
    }
    if (s0 + s1 > limit_sq) {
      return internal::kKernelInf;
    }
  }
  for (; i + 16 <= len; i += 16) {
    for (int j = 0; j < 16; j += 2) {
      const double ar = a[i + j], ai = a[i + j + 1];
      const double mr = m[i + j], mi = m[i + j + 1];
      const double dr = ar * mr - ai * mi - q[i + j];
      const double di = ar * mi + ai * mr - q[i + j + 1];
      s0 += dr * dr;
      s1 += di * di;
    }
    if (s0 + s1 > limit_sq) {
      return internal::kKernelInf;
    }
  }
  for (; i < len; i += 2) {
    const double ar = a[i], ai = a[i + 1];
    const double mr = m[i], mi = m[i + 1];
    const double dr = ar * mr - ai * mi - q[i];
    const double di = ar * mi + ai * mr - q[i + 1];
    s0 += dr * dr;
    s1 += di * di;
  }
  const double sum = s0 + s1;
  return sum > limit_sq ? internal::kKernelInf : sum;
}

namespace internal {

// Two-sided kernel body, specialized on which sides carry a multiplier so
// the per-coefficient branches constant-fold away.
template <bool kLeftMult, bool kRightMult>
inline double TwoSidedBody(const double* a, const double* b,
                           const double* lm, const double* rm, int n,
                           double limit_sq) {
  const int len = 2 * n;
  double s0 = 0.0, s1 = 0.0;
  int i = 0;
  const auto accumulate = [&](int idx) {
    double lr = a[idx], li = a[idx + 1];
    if (kLeftMult) {
      const double mr = lm[idx], mi = lm[idx + 1];
      const double r = lr * mr - li * mi;
      li = lr * mi + li * mr;
      lr = r;
    }
    double rr = b[idx], ri = b[idx + 1];
    if (kRightMult) {
      const double mr = rm[idx], mi = rm[idx + 1];
      const double r = rr * mr - ri * mi;
      ri = rr * mi + ri * mr;
      rr = r;
    }
    const double dr = lr - rr;
    const double di = li - ri;
    s0 += dr * dr;
    s1 += di * di;
  };
  if (len >= 4) {
    accumulate(0);
    accumulate(2);
    if (s0 + s1 > limit_sq) {
      return kKernelInf;
    }
    i = 4;
  }
  for (; i + 16 <= len; i += 16) {
    for (int j = 0; j < 16; j += 2) {
      accumulate(i + j);
    }
    if (s0 + s1 > limit_sq) {
      return kKernelInf;
    }
  }
  for (; i < len; i += 2) {
    accumulate(i);
  }
  const double sum = s0 + s1;
  return sum > limit_sq ? kKernelInf : sum;
}

}  // namespace internal

// |a * lm - b * rm|^2: both sides of a join transformed; either multiplier
// may be null (identity on that side).
inline double RowDistanceSqTwoSided(const double* a, const double* b,
                                    const double* lm, const double* rm,
                                    int n, double limit_sq) {
  if (lm != nullptr) {
    return rm != nullptr
               ? internal::TwoSidedBody<true, true>(a, b, lm, rm, n, limit_sq)
               : internal::TwoSidedBody<true, false>(a, b, lm, rm, n,
                                                     limit_sq);
  }
  return rm != nullptr
             ? internal::TwoSidedBody<false, true>(a, b, lm, rm, n, limit_sq)
             : RowDistanceSq(a, b, n, limit_sq);
}

// Prefix screens over the packed 4-double prefix column
// (FeatureStore::PrefixRow): true iff the corresponding kernel's FIRST
// abandon check would return +infinity for this row. They replay the
// kernels' prefix arithmetic -- same operations, same association -- so
// screening before a kernel call never changes the outcome; keep them in
// lockstep with the kernel prefixes above. Valid for n >= 2.

// Mirror of the RowDistanceSq prefix: q0..q3 are the first 4 doubles of
// the query (or of the other row of a pair).
inline bool PrefixScreenDead(const double* p, double q0, double q1,
                             double q2, double q3, double limit_sq) {
  const double d0 = p[0] - q0;
  const double d1 = p[1] - q1;
  const double d2 = p[2] - q2;
  const double d3 = p[3] - q3;
  return d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 > limit_sq;
}

// Mirror of the RowDistanceSqMult prefix: `m` is the interleaved
// multiplier (first 4 doubles used).
inline bool PrefixScreenMultDead(const double* p, const double* m, double q0,
                                 double q1, double q2, double q3,
                                 double limit_sq) {
  const double dr0 = p[0] * m[0] - p[1] * m[1] - q0;
  const double di0 = p[0] * m[1] + p[1] * m[0] - q1;
  const double dr1 = p[2] * m[2] - p[3] * m[3] - q2;
  const double di1 = p[2] * m[3] + p[3] * m[2] - q3;
  const double s0 = dr0 * dr0 + dr1 * dr1;
  const double s1 = di0 * di0 + di1 * di1;
  return s0 + s1 > limit_sq;
}

}  // namespace simq

#endif  // SIMQ_CORE_FEATURE_STORE_H_
