#include "subseq/subsequence_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

SubsequenceIndex::SubsequenceIndex(Options options)
    : options_(options),
      tree_(std::make_unique<RTree>(2 * options.num_coefficients - 1,
                                    options.rtree)) {
  SIMQ_CHECK_GT(options_.window, 1);
  SIMQ_CHECK_GT(options_.num_coefficients, 0);
  SIMQ_CHECK_LE(options_.num_coefficients, options_.window / 2 + 1);
  SIMQ_CHECK_GT(options_.max_trail_length, 0);
  // RangeSearch runs on the packed snapshot only, whose layout caps the
  // node fanout.
  SIMQ_CHECK_LE(options_.rtree.max_entries, PackedRTree::kMaxFanout);
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

double SubsequenceIndex::MbrCost(const Rect& rect) const {
  // [FRM94]'s cost surrogate: expected page accesses of a point query are
  // proportional to the volume of the MBR inflated by the query radius;
  // with a nominal radius of 0.5 per side this is prod(L_i + 0.5).
  double cost = 1.0;
  for (int d = 0; d < rect.dims(); ++d) {
    cost *= (rect.hi(d) - rect.lo(d)) + 0.5;
  }
  return cost;
}

Result<int64_t> SubsequenceIndex::AddSeries(const TimeSeries& series) {
  const int w = options_.window;
  const int k = options_.num_coefficients;
  if (series.length() < w) {
    return Status::InvalidArgument(
        "series shorter than the subsequence window");
  }
  const int64_t series_id = num_series();
  series_.push_back(series.values);
  const std::vector<double>& values = series_.back();
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

  // Pass 1: feature points of every window position.
  const int dims = feature_dims();
  std::vector<Point> points(static_cast<size_t>(num_offsets),
                            Point(static_cast<size_t>(dims)));
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
    Point& features = points[static_cast<size_t>(start)];
    features[0] = coeffs[0].real();
    for (int f = 1; f < k; ++f) {
      features[static_cast<size_t>(2 * f - 1)] =
          coeffs[static_cast<size_t>(f)].real();
      features[static_cast<size_t>(2 * f)] =
          coeffs[static_cast<size_t>(f)].imag();
    }
  }

  // Per-dimension extents: the [FRM94] cost model works in a normalized
  // space where 0.5 is half the data extent, so MBR sides are measured
  // relative to the trail's overall spread.
  std::vector<double> extent(static_cast<size_t>(dims), 1.0);
  for (int d = 0; d < dims; ++d) {
    double lo = points[0][static_cast<size_t>(d)];
    double hi = lo;
    for (const Point& p : points) {
      lo = std::min(lo, p[static_cast<size_t>(d)]);
      hi = std::max(hi, p[static_cast<size_t>(d)]);
    }
    extent[static_cast<size_t>(d)] = std::max(hi - lo, 1e-9);
  }
  auto normalized_cost = [&](const Rect& rect) {
    double cost = 1.0;
    for (int d = 0; d < dims; ++d) {
      cost *= (rect.hi(d) - rect.lo(d)) / extent[static_cast<size_t>(d)] +
              0.5;
    }
    return cost;
  };

  // Pass 2: trail packing.
  Rect mbr = Rect::Empty(dims);
  int trail_start = 0;
  int trail_count = 0;
  auto flush_trail = [&] {
    if (trail_count == 0) {
      return;
    }
    const int64_t trail_id = static_cast<int64_t>(trails_.size());
    trails_.push_back(Trail{series_id, trail_start, trail_count});
    tree_->Insert(mbr, trail_id);
    mbr = Rect::Empty(dims);
    trail_count = 0;
  };
  for (int start = 0; start < num_offsets; ++start) {
    const Rect point_rect = Rect::FromPoint(points[static_cast<size_t>(start)]);
    bool close_current = trail_count >= options_.max_trail_length;
    if (!close_current && trail_count > 0 &&
        options_.packing == TrailPacking::kAdaptive) {
      // [FRM94] marginal-cost criterion: the index's total expected access
      // cost is the sum of Π(L_i + 0.5) over sub-trail MBRs. Appending the
      // point grows the current MBR's cost; splitting adds a fresh
      // point-MBR costing 0.5^d. Append while growing is the cheaper of
      // the two.
      const Rect grown = Rect::Union(mbr, point_rect);
      const double growth =
          normalized_cost(grown) - normalized_cost(mbr);
      const double fresh = normalized_cost(point_rect);
      close_current = growth > fresh;
    }
    if (close_current) {
      flush_trail();
    }
    if (trail_count == 0) {
      trail_start = start;
    }
    mbr.ExpandToInclude(point_rect);
    ++trail_count;
  }
  flush_trail();
  num_windows_ += num_offsets;
  packed_.Invalidate();
  return series_id;
}

const PackedRTree& SubsequenceIndex::packed_rtree() const {
  return packed_.Get([this] { return std::make_unique<PackedRTree>(*tree_); });
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
