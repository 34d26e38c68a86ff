/// Scalar-quantized codes of one relation shard (see DESIGN.md "Quantized
/// filter"); the shard caches them in an ArtifactCache
/// (util/artifact_cache.h), with the same coverage contract as its packed
/// R-tree.
///
/// A QuantizedCodes object is a compiled, immutable artifact: it trains a
/// ScalarQuantizer over the shard's FeatureStore and encodes the half
/// spectrum of every row (coefficients 0 .. n/2; the rest are their
/// conjugate twins), one byte per code, stored column-major
/// (dimension-major):
///
///   code of (row i, dim d) = Column(d)[i],  d < dims() = 2 * (n/2 + 1)
///
/// The stored dimensions are a prefix of the interleaved spectrum row, so
/// Column(d) is the code of row[d].
///
/// The quantizer owns the grid rule and the encode; this class owns the
/// layout. The compile is one pass over the store: Train gathers each
/// block of 8 dimensions once, and hands every trained column to the
/// codes, which encode it straight into Column(d) and sum it (in row
/// order, so scan_order does not depend on the gather). About 0.06 s at
/// 12000x128, on the calling thread -- the first filtered query's, or a
/// fold's -- with about 1 MB of transient scratch.
///
/// A 128-length series shrinks from 2048 bytes of spectrum doubles to 130
/// bytes of codes. Every filtered path scans these columns one dimension
/// at a time across a run of rows (filter/bound_kernels.h), so the
/// dimension's code column stays cache-hot for the whole pass, and most
/// rows are pruned after the first few dimensions.
///
/// The codes cover the row prefix [0, size()) frozen at their compile;
/// rows appended later are the codes' delta, which the query drivers
/// exact-check instead of screening.
///
/// Thread-safety: QuantizedCodes is immutable after construction -- any
/// number of query threads may scan one concurrently.

#ifndef SIMQ_FILTER_QUANTIZED_CODES_H_
#define SIMQ_FILTER_QUANTIZED_CODES_H_

#include <cstdint>
#include <vector>

#include "core/feature_store.h"
#include "filter/quantizer.h"

namespace simq {

class QuantizedCodes {
 public:
  /// Trains the quantizer on `store` and encodes every row.
  explicit QuantizedCodes(const FeatureStore& store);

  QuantizedCodes(const QuantizedCodes&) = delete;
  QuantizedCodes& operator=(const QuantizedCodes&) = delete;

  int64_t size() const { return count_; }
  int dims() const { return quantizer_.dims(); }
  const ScalarQuantizer& quantizer() const { return quantizer_; }

  /// Codes of dimension `d`, one byte per row: Column(d)[i] == code of
  /// (row i, dim d).
  const uint8_t* Column(int d) const {
    return columns_.data() + static_cast<int64_t>(d) * count_;
  }

  /// Stored dimensions sorted by descending column variance: since the
  /// expected squared difference of two random rows in dimension d is
  /// twice the column variance, this is the static (query-independent)
  /// analog of QueryLuts::order -- the pairwise join screen consumes its
  /// leading entries so the few most discriminating dimensions run first.
  const std::vector<int32_t>& scan_order() const { return scan_order_; }

 private:
  ScalarQuantizer quantizer_;
  int64_t count_ = 0;
  std::vector<uint8_t> columns_;  // dims * count, dimension-major
  std::vector<int32_t> scan_order_;  // dims, descending column variance
};

}  // namespace simq

#endif  // SIMQ_FILTER_QUANTIZED_CODES_H_
