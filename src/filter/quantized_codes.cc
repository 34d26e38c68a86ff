#include "filter/quantized_codes.h"

#include <numeric>

namespace simq {

QuantizedCodes::QuantizedCodes(const FeatureStore& store, int bits)
    : count_(store.size()) {
  const int dims =
      count_ > 0 ? ScalarQuantizer::HalfSpectrumDims(store.spectrum_length())
                 : 0;
  columns_.resize(static_cast<size_t>(dims) * count_);
  // Column variances for the discrimination order. The sums run in row
  // order, so the order does not depend on how the store is gathered.
  std::vector<double> variance(static_cast<size_t>(dims), 0.0);
  quantizer_ = ScalarQuantizer::Train(
      store, bits,
      [&](const ScalarQuantizer& trained, int d, const double* column) {
        trained.EncodeColumn(d, column, count_,
                             columns_.data() + static_cast<size_t>(d) * count_);
        double sum = 0.0;
        double sum_sq = 0.0;
        for (int64_t i = 0; i < count_; ++i) {
          sum += column[i];
          sum_sq += column[i] * column[i];
        }
        const double mean = sum / static_cast<double>(count_);
        variance[static_cast<size_t>(d)] =
            sum_sq / static_cast<double>(count_) - mean * mean;
      });
  // Static discrimination order: descending column variance (ties to the
  // lower dimension).
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
