/// Scalar-quantized codes of one relation shard, plus the cache that owns
/// them (the same coverage contract as the packed R-tree snapshot; see
/// DESIGN.md "Quantized filter").
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
/// 12000x128 and 8 bits, on the calling thread -- the first filtered
/// query's, or a fold's -- with about 1 MB of transient scratch.
///
/// With the default 8-bit layout a 128-length series shrinks from 2048
/// bytes of spectrum doubles to 130 bytes of codes. Every filtered path
/// scans these columns one dimension at a time across a run of rows
/// (filter/bound_kernels.h), so the dimension's code column stays
/// cache-hot for the whole pass, and most rows are pruned after the first
/// few dimensions.
///
/// The codes cover the row prefix [0, size()) frozen at their compile;
/// rows appended later are the codes' delta, which the query drivers
/// exact-check instead of screening.
///
/// Thread-safety: QuantizedCodes is immutable after construction -- any
/// number of query threads may scan one concurrently. QuantizedCodesCache
/// follows PackedSnapshotCache: a bulk load calls Invalidate() under the
/// owner's exclusive lock, readers call Get() under the shared lock, and
/// the cache's internal mutex serializes only the compile (also triggered
/// when a query asks for a different bit width).

#ifndef SIMQ_FILTER_QUANTIZED_CODES_H_
#define SIMQ_FILTER_QUANTIZED_CODES_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/feature_store.h"
#include "filter/quantizer.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace simq {

class QuantizedCodes {
 public:
  /// Trains the quantizer on `store` and encodes every row. `bits` is
  /// clamped to the supported layouts (ScalarQuantizer::kMinBits..kMaxBits).
  QuantizedCodes(const FeatureStore& store, int bits);

  QuantizedCodes(const QuantizedCodes&) = delete;
  QuantizedCodes& operator=(const QuantizedCodes&) = delete;

  int64_t size() const { return count_; }
  int dims() const { return quantizer_.dims(); }
  int bits() const { return quantizer_.bits(); }
  int cells() const { return quantizer_.cells(); }
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

/// Lazily (re)compiled QuantizedCodes of one shard, keyed by bit width.
/// Same discipline as PackedSnapshotCache: Invalidate() (a bulk load) and
/// Install() (a recompaction publish) under the owner's exclusive lock,
/// Get() under the shared lock.
///
/// One entry per bit width, not one entry total: concurrent queries may
/// run at different widths (Database::set_filter_options is a plain
/// setter), and a single-slot cache would destroy the codes one reader
/// is still scanning when another asks for a new width. Per-width
/// entries are only ever destroyed after an Invalidate() or by Install(),
/// which the owner calls under exclusive access -- so no reader still
/// holds them. The width space
/// is tiny (kMinBits..kMaxBits), so the extra memory is bounded.
class QuantizedCodesCache {
 public:
  void Invalidate() {
    std::lock_guard<std::mutex> lock(mutex_);
    stale_ = true;
  }

  /// Returns the current codes of `store` at `bits` bits per dimension,
  /// rebuilding first if a mutation invalidated them or none were built
  /// yet at this width. The reference stays valid until the next Get()
  /// after an Invalidate() -- i.e. for as long as the caller may hold it
  /// under the owner's shared lock.
  const QuantizedCodes& Get(const FeatureStore& store, int bits) const {
    const QuantizedCodes* codes = TryGet(store, bits, /*can_fail=*/false);
    SIMQ_CHECK(codes != nullptr);
    return *codes;
  }

  /// Read-only peek: the codes at `bits` only if they are already
  /// compiled and fresh; never triggers a compile. The EXPLAIN
  /// cardinality estimator uses this so estimating a plan cannot charge
  /// a query the cost (or the failpoint) of a code build it may never
  /// run.
  const QuantizedCodes* Peek(int bits) const {
    bits = std::clamp(bits, ScalarQuantizer::kMinBits,
                      ScalarQuantizer::kMaxBits);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stale_) {
      return nullptr;
    }
    return codes_[static_cast<size_t>(bits - ScalarQuantizer::kMinBits)]
        .get();
  }

  /// Degradation-aware Get: returns null when the compile fails (the
  /// "filter.compile" failpoint). The caller falls back to the exact scan
  /// path. Reusing already-compiled codes never fails -- only compiles
  /// evaluate the failpoint.
  const QuantizedCodes* TryGet(const FeatureStore& store, int bits,
                               bool can_fail = true) const {
    bits = std::clamp(bits, ScalarQuantizer::kMinBits,
                      ScalarQuantizer::kMaxBits);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stale_) {
      for (std::unique_ptr<QuantizedCodes>& slot : codes_) {
        slot.reset();
      }
      stale_ = false;
    }
    std::unique_ptr<QuantizedCodes>& slot =
        codes_[static_cast<size_t>(bits - ScalarQuantizer::kMinBits)];
    if (slot == nullptr) {
      if (can_fail && SIMQ_FAILPOINT_FIRED("filter.compile")) {
        return nullptr;
      }
      slot = std::make_unique<QuantizedCodes>(store, bits);
    }
    return slot.get();
  }

  /// Installs externally compiled codes at `bits`, dropping every other
  /// width's entry, and marks the cache fresh. Recompaction publish uses
  /// this to swap in the new generation's codes; the caller must hold the
  /// owner's exclusive lock (same requirement as Invalidate), so no
  /// reader can still be scanning the entries being dropped. Passing null
  /// leaves the cache empty-but-fresh: the next Get at any width compiles
  /// from the store as usual.
  void Install(int bits, std::unique_ptr<QuantizedCodes> codes) {
    bits = std::clamp(bits, ScalarQuantizer::kMinBits,
                      ScalarQuantizer::kMaxBits);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::unique_ptr<QuantizedCodes>& slot : codes_) {
      slot.reset();
    }
    codes_[static_cast<size_t>(bits - ScalarQuantizer::kMinBits)] =
        std::move(codes);
    stale_ = false;
  }

 private:
  static constexpr size_t kWidths =
      ScalarQuantizer::kMaxBits - ScalarQuantizer::kMinBits + 1;
  mutable std::mutex mutex_;
  mutable std::array<std::unique_ptr<QuantizedCodes>, kWidths> codes_;
  mutable bool stale_ = true;
};

}  // namespace simq

#endif  // SIMQ_FILTER_QUANTIZED_CODES_H_
