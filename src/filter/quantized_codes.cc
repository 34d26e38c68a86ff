#include "filter/quantized_codes.h"

#include <numeric>

namespace simq {

QuantizedCodes::QuantizedCodes(const FeatureStore& store, int bits)
    : quantizer_(ScalarQuantizer::Train(store, bits)), count_(store.size()) {
  const int dims = quantizer_.dims();
  if (count_ == 0 || dims == 0) {
    return;
  }
  columns_.resize(static_cast<size_t>(dims) * count_);
  // Per-dimension sums for the discrimination order, accumulated inside
  // the encode loop so the store is streamed exactly once.
  std::vector<double> sum(static_cast<size_t>(dims), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(dims), 0.0);
  for (int64_t i = 0; i < count_; ++i) {
    const double* row = store.SpectrumRow(i);
    for (int d = 0; d < dims; ++d) {
      columns_[static_cast<size_t>(d) * count_ + i] =
          static_cast<uint8_t>(quantizer_.Encode(d, row[d]));
      sum[static_cast<size_t>(d)] += row[d];
      sum_sq[static_cast<size_t>(d)] += row[d] * row[d];
    }
  }
  // Static discrimination order: descending column variance (ties to the
  // lower dimension).
  std::vector<double> variance(static_cast<size_t>(dims), 0.0);
  for (int d = 0; d < dims; ++d) {
    const double mean = sum[static_cast<size_t>(d)] /
                        static_cast<double>(count_);
    variance[static_cast<size_t>(d)] =
        sum_sq[static_cast<size_t>(d)] / static_cast<double>(count_) -
        mean * mean;
  }
  scan_order_.resize(static_cast<size_t>(dims));
  std::iota(scan_order_.begin(), scan_order_.end(), 0);
  std::sort(scan_order_.begin(), scan_order_.end(),
            [&](int32_t a, int32_t b) {
              if (variance[static_cast<size_t>(a)] !=
                  variance[static_cast<size_t>(b)]) {
                return variance[static_cast<size_t>(a)] >
                       variance[static_cast<size_t>(b)];
              }
              return a < b;
            });
}

}  // namespace simq
