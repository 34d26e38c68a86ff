#include "subseq/subsequence_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.h"
#include "util/stats.h"

namespace simq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Early-abandoning Euclidean distance between a query and a raw window.
double WindowDistance(const std::vector<double>& query, const double* window,
                      double threshold) {
  const double limit = threshold * threshold;
  double sum = 0.0;
  for (size_t i = 0; i < query.size(); ++i) {
    const double diff = query[i] - window[i];
    sum += diff * diff;
    if (sum > limit) {
      return kInf;
    }
  }
  return std::sqrt(sum);
}

void SortMatches(std::vector<SubsequenceIndex::SubsequenceMatch>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const SubsequenceIndex::SubsequenceMatch& a,
               const SubsequenceIndex::SubsequenceMatch& b) {
              if (a.distance != b.distance) {
                return a.distance < b.distance;
              }
              if (a.series_id != b.series_id) {
                return a.series_id < b.series_id;
              }
              return a.offset < b.offset;
            });
}

}  // namespace

SubsequenceIndex::SubsequenceIndex(Options options) : options_(options) {
  SIMQ_CHECK_GT(options_.window, 1);
  SIMQ_CHECK_GT(options_.num_coefficients, 0);
  SIMQ_CHECK_LE(options_.num_coefficients, options_.window / 2 + 1);
  SIMQ_CHECK_GT(options_.max_trail_length, 0);
  // RangeSearch runs on the packed tree only, whose layout caps the node
  // fanout; the floor is the one Database keeps.
  SIMQ_CHECK(options_.max_entries >= 4 &&
             options_.max_entries <= PackedRTree::kMaxFanout)
      << "max_entries must lie in [4, PackedRTree::kMaxFanout], got "
      << options_.max_entries;
}

std::vector<double> SubsequenceIndex::WindowFeatures(
    const double* window_data) const {
  const int w = options_.window;
  const int k = options_.num_coefficients;
  const double scale = 1.0 / std::sqrt(static_cast<double>(w));
  std::vector<double> features(static_cast<size_t>(feature_dims()));
  for (int f = 0; f < k; ++f) {
    Complex sum(0.0, 0.0);
    for (int t = 0; t < w; ++t) {
      const double phase = -2.0 * M_PI * static_cast<double>(t) *
                           static_cast<double>(f) / static_cast<double>(w);
      sum += window_data[t] * Complex(std::cos(phase), std::sin(phase));
    }
    sum *= scale;
    if (f == 0) {
      features[0] = sum.real();  // X0 of a real window is real
    } else {
      features[static_cast<size_t>(2 * f - 1)] = sum.real();
      features[static_cast<size_t>(2 * f)] = sum.imag();
    }
  }
  return features;
}

Result<int64_t> SubsequenceIndex::AddSeries(const TimeSeries& series) {
  const int w = options_.window;
  const int k = options_.num_coefficients;
  if (series.length() < w) {
    return Status::InvalidArgument(
        "series shorter than the subsequence window");
  }
  // The sliding update would carry an inf or NaN into the features of the
  // windows after it (inf - inf is NaN) until the next direct recompute,
  // and their trail MBRs would then miss matches the scan finds.
  for (const double value : series.values) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("series holds a non-finite value");
    }
  }
  const int64_t series_id = num_series();
  const std::vector<double>& values = series.values;
  const int num_offsets = series.length() - w + 1;

  // Sliding-window DFT: coefficients of window s+1 follow from window s as
  //   X_f <- e^{+j 2 pi f / w} * (X_f + (x_{s+w} - x_s) / sqrt(w)).
  const double scale = 1.0 / std::sqrt(static_cast<double>(w));
  std::vector<Complex> rotators(static_cast<size_t>(k));
  for (int f = 0; f < k; ++f) {
    const double phase =
        2.0 * M_PI * static_cast<double>(f) / static_cast<double>(w);
    rotators[static_cast<size_t>(f)] =
        Complex(std::cos(phase), std::sin(phase));
  }
  std::vector<Complex> coeffs(static_cast<size_t>(k));
  auto recompute = [&](int start) {
    for (int f = 0; f < k; ++f) {
      Complex sum(0.0, 0.0);
      for (int t = 0; t < w; ++t) {
        const double phase = -2.0 * M_PI * static_cast<double>(t) *
                             static_cast<double>(f) / static_cast<double>(w);
        sum += values[static_cast<size_t>(start + t)] *
               Complex(std::cos(phase), std::sin(phase));
      }
      coeffs[static_cast<size_t>(f)] = sum * scale;
    }
  };

  // Pass 1: feature points of every window position, row-major.
  const int dims = feature_dims();
  std::vector<double> points(static_cast<size_t>(num_offsets) *
                             static_cast<size_t>(dims));
  for (int start = 0; start < num_offsets; ++start) {
    if (start % 1024 == 0) {
      // Periodic direct recomputation bounds floating-point drift of the
      // incremental update on very long sequences.
      recompute(start);
    } else {
      const double delta =
          (values[static_cast<size_t>(start - 1 + w)] -
           values[static_cast<size_t>(start - 1)]) *
          scale;
      for (int f = 0; f < k; ++f) {
        coeffs[static_cast<size_t>(f)] =
            (coeffs[static_cast<size_t>(f)] + delta) *
            rotators[static_cast<size_t>(f)];
      }
    }
    double* features = points.data() + static_cast<int64_t>(start) * dims;
    features[0] = coeffs[0].real();
    for (int f = 1; f < k; ++f) {
      features[2 * f - 1] = coeffs[static_cast<size_t>(f)].real();
      features[2 * f] = coeffs[static_cast<size_t>(f)].imag();
    }
  }

  // Per-dimension extents: the [FRM94] cost model works in a normalized
  // space where 0.5 is half the data extent, so MBR sides are measured
  // relative to the trail's overall spread.
  std::vector<double> extent(static_cast<size_t>(dims), 1.0);
  for (int d = 0; d < dims; ++d) {
    double lo = points[static_cast<size_t>(d)];
    double hi = lo;
    for (int start = 0; start < num_offsets; ++start) {
      const double p = points[static_cast<size_t>(start) * dims + d];
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    extent[static_cast<size_t>(d)] = std::max(hi - lo, 1e-9);
  }
  // Finite values near the double range can still overflow a window's DFT
  // sum, and a NaN feature would leave the trail sort without a strict
  // weak order.
  if (!std::all_of(points.begin(), points.end(),
                   [](double x) { return std::isfinite(x); })) {
    return Status::InvalidArgument("series overflows its window features");
  }
  series_.push_back(series.values);
  auto normalized_cost = [&](const double* lo, const double* hi) {
    double cost = 1.0;
    for (int d = 0; d < dims; ++d) {
      cost *= (hi[d] - lo[d]) / extent[static_cast<size_t>(d)] + 0.5;
    }
    return cost;
  };

  // Pass 2: trail packing. The current sub-trail's MBR starts empty
  // (+inf, -inf) and grows with std::min / std::max.
  std::vector<double> mbr_lo(static_cast<size_t>(dims), kInf);
  std::vector<double> mbr_hi(static_cast<size_t>(dims), -kInf);
  std::vector<double> grown_lo(static_cast<size_t>(dims));
  std::vector<double> grown_hi(static_cast<size_t>(dims));
  int trail_start = 0;
  int trail_count = 0;
  auto flush_trail = [&] {
    if (trail_count == 0) {
      return;
    }
    trails_.push_back(Trail{series_id, trail_start, trail_count});
    trail_lo_.insert(trail_lo_.end(), mbr_lo.begin(), mbr_lo.end());
    trail_hi_.insert(trail_hi_.end(), mbr_hi.begin(), mbr_hi.end());
    std::fill(mbr_lo.begin(), mbr_lo.end(), kInf);
    std::fill(mbr_hi.begin(), mbr_hi.end(), -kInf);
    trail_count = 0;
  };
  for (int start = 0; start < num_offsets; ++start) {
    const double* point = points.data() + static_cast<int64_t>(start) * dims;
    bool close_current = trail_count >= options_.max_trail_length;
    if (!close_current && trail_count > 0 &&
        options_.packing == TrailPacking::kAdaptive) {
      // [FRM94] marginal-cost criterion: the index's total expected access
      // cost is the sum of Π(L_i + 0.5) over sub-trail MBRs. Appending the
      // point grows the current MBR's cost; splitting adds a fresh
      // point-MBR costing 0.5^d. Append while growing is the cheaper of
      // the two.
      for (int d = 0; d < dims; ++d) {
        grown_lo[static_cast<size_t>(d)] =
            std::min(mbr_lo[static_cast<size_t>(d)], point[d]);
        grown_hi[static_cast<size_t>(d)] =
            std::max(mbr_hi[static_cast<size_t>(d)], point[d]);
      }
      const double growth =
          normalized_cost(grown_lo.data(), grown_hi.data()) -
          normalized_cost(mbr_lo.data(), mbr_hi.data());
      const double fresh = normalized_cost(point, point);
      close_current = growth > fresh;
    }
    if (close_current) {
      flush_trail();
    }
    if (trail_count == 0) {
      trail_start = start;
    }
    for (int d = 0; d < dims; ++d) {
      mbr_lo[static_cast<size_t>(d)] =
          std::min(mbr_lo[static_cast<size_t>(d)], point[d]);
      mbr_hi[static_cast<size_t>(d)] =
          std::max(mbr_hi[static_cast<size_t>(d)], point[d]);
    }
    ++trail_count;
  }
  flush_trail();
  num_windows_ += num_offsets;
  packed_.Invalidate();
  return series_id;
}

const PackedRTree& SubsequenceIndex::packed_rtree() const {
  const auto pack = [this] {
    std::vector<int64_t> ids(trails_.size());
    std::iota(ids.begin(), ids.end(), 0);
    return std::make_unique<PackedRTree>(
        feature_dims(), options_.max_entries, trail_lo_, trail_hi_, ids);
  };
  return *packed_.Get(pack, num_trails()).artifact;
}

std::vector<SubsequenceIndex::SubsequenceMatch> SubsequenceIndex::RangeSearch(
    const std::vector<double>& query, double epsilon,
    SearchStats* stats) const {
  SIMQ_CHECK_EQ(static_cast<int>(query.size()), options_.window);
  SIMQ_CHECK_GE(epsilon, 0.0);
  const std::vector<double> query_features = WindowFeatures(query.data());

  // Bounding box of the epsilon-ball around the query's feature point.
  // Feature distance lower-bounds window distance (Parseval prefix), so
  // every true match's feature point -- hence its covering trail MBR --
  // intersects this box.
  Point lo = query_features;
  Point hi = query_features;
  for (size_t d = 0; d < lo.size(); ++d) {
    lo[d] -= epsilon;
    hi[d] += epsilon;
  }
  const Rect box = Rect::FromBounds(lo, hi);

  // Packed traversal with inlined visitor lambdas over PackedRect views.
  const auto overlaps_box = [&](const auto& rect) {
    for (int d = 0; d < box.dims(); ++d) {
      if (rect.lo(d) > box.hi(d) || rect.hi(d) < box.lo(d)) {
        return false;
      }
    }
    return true;
  };
  std::vector<int64_t> trail_ids;
  trail_ids.reserve(64);
  const int64_t node_accesses = packed_rtree().SearchGeneric(
      overlaps_box,
      [&](const auto& rect, int64_t) { return overlaps_box(rect); },
      [&](int64_t id) { trail_ids.push_back(id); });

  std::vector<SubsequenceMatch> matches;
  int64_t windows_checked = 0;
  for (const int64_t trail_id : trail_ids) {
    const Trail& trail = trails_[static_cast<size_t>(trail_id)];
    const std::vector<double>& values =
        series_[static_cast<size_t>(trail.series_id)];
    for (int offset = trail.start; offset < trail.start + trail.count;
         ++offset) {
      ++windows_checked;
      const double distance = WindowDistance(
          query, values.data() + offset, epsilon);
      if (distance <= epsilon) {
        matches.push_back(SubsequenceMatch{trail.series_id, offset, distance});
      }
    }
  }
  if (stats != nullptr) {
    stats->node_accesses = node_accesses;
    stats->trails_retrieved = static_cast<int64_t>(trail_ids.size());
    stats->windows_checked = windows_checked;
  }
  SortMatches(&matches);
  return matches;
}

std::vector<SubsequenceIndex::SubsequenceMatch> SubsequenceIndex::ScanSearch(
    const std::vector<double>& query, double epsilon,
    SearchStats* stats) const {
  SIMQ_CHECK_EQ(static_cast<int>(query.size()), options_.window);
  SIMQ_CHECK_GE(epsilon, 0.0);
  std::vector<SubsequenceMatch> matches;
  int64_t windows_checked = 0;
  for (size_t series_id = 0; series_id < series_.size(); ++series_id) {
    const std::vector<double>& values = series_[series_id];
    const int num_offsets =
        static_cast<int>(values.size()) - options_.window + 1;
    for (int offset = 0; offset < num_offsets; ++offset) {
      ++windows_checked;
      const double distance =
          WindowDistance(query, values.data() + offset, epsilon);
      if (distance <= epsilon) {
        matches.push_back(SubsequenceMatch{static_cast<int64_t>(series_id),
                                           offset, distance});
      }
    }
  }
  if (stats != nullptr) {
    stats->node_accesses = 0;
    stats->trails_retrieved = 0;
    stats->windows_checked = windows_checked;
  }
  SortMatches(&matches);
  return matches;
}

}  // namespace simq
