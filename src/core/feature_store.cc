#include "core/feature_store.h"

#include <algorithm>

#include "util/logging.h"

namespace simq {
namespace {

// Pads a row length (in doubles) to a multiple of 8 (64 bytes) so rows
// start cache-line aligned.
int64_t PadStride(int64_t doubles) { return (doubles + 7) & ~int64_t{7}; }

}  // namespace

void FeatureStore::Append(const SeriesFeatures& features,
                          const std::vector<double>& normal_values) {
  const int n = features.length();
  if (count_ == 0) {
    spectrum_length_ = n;
    series_length_ = static_cast<int>(normal_values.size());
    spectrum_stride_ = PadStride(2 * static_cast<int64_t>(n));
    normal_stride_ = PadStride(static_cast<int64_t>(series_length_));
    ReserveColumns();
  } else {
    SIMQ_CHECK_EQ(n, spectrum_length_);
    SIMQ_CHECK_EQ(static_cast<int>(normal_values.size()), series_length_);
  }
  spectra_.resize(spectra_.size() + static_cast<size_t>(spectrum_stride_),
                  0.0);
  double* spectrum_row =
      spectra_.data() + static_cast<size_t>(count_ * spectrum_stride_);
  for (int f = 0; f < n; ++f) {
    const Complex& c = features.normal_spectrum[static_cast<size_t>(f)];
    spectrum_row[2 * f] = c.real();
    spectrum_row[2 * f + 1] = c.imag();
  }
  normals_.resize(normals_.size() + static_cast<size_t>(normal_stride_), 0.0);
  double* normal_row =
      normals_.data() + static_cast<size_t>(count_ * normal_stride_);
  for (int t = 0; t < series_length_; ++t) {
    normal_row[t] = normal_values[static_cast<size_t>(t)];
  }
  prefixes_.push_back(spectrum_row[0]);
  prefixes_.push_back(n >= 1 ? spectrum_row[1] : 0.0);
  prefixes_.push_back(n >= 2 ? spectrum_row[2] : 0.0);
  prefixes_.push_back(n >= 2 ? spectrum_row[3] : 0.0);
  means_.push_back(features.mean);
  stds_.push_back(features.std_dev);
  ++count_;
}

void FeatureStore::Reserve(int64_t rows) {
  reserved_rows_ = std::max(reserved_rows_, rows);
  if (count_ > 0) {
    ReserveColumns();
  }
}

void FeatureStore::ReserveColumns() {
  const size_t rows = static_cast<size_t>(reserved_rows_);
  spectra_.reserve(rows * static_cast<size_t>(spectrum_stride_));
  normals_.reserve(rows * static_cast<size_t>(normal_stride_));
  prefixes_.reserve(4 * rows);
  means_.reserve(rows);
  stds_.reserve(rows);
}

std::vector<double> InterleaveSpectrum(const Spectrum& spectrum) {
  std::vector<double> out(2 * spectrum.size());
  for (size_t f = 0; f < spectrum.size(); ++f) {
    out[2 * f] = spectrum[f].real();
    out[2 * f + 1] = spectrum[f].imag();
  }
  return out;
}

}  // namespace simq
