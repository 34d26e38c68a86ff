#include "filter/quantizer.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace simq {
namespace {

// Buckets of the monotone map: the count array stays in L1, and at 12000
// rows a bucket holds a few values.
constexpr int kBuckets = 4096;
// Dimensions gathered per pass over the store: one 64-byte line of each
// spectrum row (rows are padded to a multiple of 8 doubles).
constexpr int kBlockDims = 8;

// b(v) = floor((v - lo) * kBuckets / (hi - lo)) clamped to
// [0, kBuckets - 1]. Every step -- a rounded subtraction, a product by a
// nonnegative scale, the clamps, the truncation -- is monotone in v, so
// v <= w implies b(v) <= b(w): the buckets order the values. The clamps
// run in double before the cast, so no value overflows it, and
// max(0.0, t) also sends a NaN product (0 * inf when hi - lo is tiny or
// overflows) to bucket 0.
class BucketMap {
 public:
  BucketMap(double lo, double hi)
      : lo_(lo), scale_(hi > lo ? kBuckets / (hi - lo) : 0.0) {}

  int operator()(double v) const {
    const double t = std::min(std::max(0.0, (v - lo_) * scale_), kLast);
    return static_cast<int>(t);
  }

 private:
  static constexpr double kLast = kBuckets - 1;
  double lo_;
  double scale_;
};

// Sets edges[c], c in [0, cells], to the value at rank c*(n-1)/cells of
// the sorted column: edge 0 is the minimum, edge `cells` the maximum, and
// duplicate ranks (n < cells) give empty cells, which the bound kernels
// handle naturally (zero-width intervals). A counting pass orders the
// values by bucket into `ordered` (n doubles of scratch); since buckets
// order the values, the rank-r value is the (r - start)-th smallest of the
// bucket holding rank r, so only those buckets are sorted.
void SelectRankEdges(const double* column, int64_t n, int cells,
                     double* edges, double* ordered) {
  double lo = column[0];
  double hi = column[0];
  for (int64_t i = 1; i < n; ++i) {
    lo = std::min(lo, column[i]);
    hi = std::max(hi, column[i]);
  }
  if (!(hi > lo)) {  // a constant column: every rank holds the same value
    std::fill(edges, edges + cells + 1, lo);
    return;
  }
  const BucketMap bucket(lo, hi);
  // start[b]: how many values lie in buckets below b.
  std::vector<int64_t> start(kBuckets + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    ++start[static_cast<size_t>(bucket(column[i])) + 1];
  }
  for (int b = 0; b < kBuckets; ++b) {
    start[static_cast<size_t>(b) + 1] += start[static_cast<size_t>(b)];
  }
  std::vector<int64_t> next(start.begin(), start.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    ordered[next[static_cast<size_t>(bucket(column[i]))]++] = column[i];
  }
  // Ranks never decrease with c, so the bucket cursor only moves up and
  // each bucket is sorted at most once. start[kBuckets] == n > rank keeps
  // the cursor below kBuckets.
  int b = 0;
  int sorted_bucket = -1;
  for (int c = 0; c <= cells; ++c) {
    const int64_t rank = int64_t{c} * (n - 1) / cells;
    while (start[static_cast<size_t>(b) + 1] <= rank) {
      ++b;
    }
    if (b != sorted_bucket) {
      std::sort(ordered + start[static_cast<size_t>(b)],
                ordered + start[static_cast<size_t>(b) + 1]);
      sorted_bucket = b;
    }
    edges[c] = ordered[rank];
  }
}

}  // namespace

ScalarQuantizer ScalarQuantizer::Train(const FeatureStore& store,
                                       const ColumnVisitor& visit) {
  ScalarQuantizer q;
  const int64_t count = store.size();
  if (count == 0) {
    return q;
  }
  q.n_ = store.spectrum_length();
  q.dims_ = HalfSpectrumDims(q.n_);
  const size_t stride = 2 * (static_cast<size_t>(kCells) + 2);
  q.bounds_.resize(static_cast<size_t>(q.dims_) * (kCells + 1));
  q.edge_sums_.resize(static_cast<size_t>(q.dims_) * stride);
  // The block's columns (the trailing ones of the last block are twin
  // dimensions or row padding and never visited), and the select's
  // bucket-ordered copy.
  std::vector<double> block(static_cast<size_t>(kBlockDims) * count);
  std::vector<double> ordered(static_cast<size_t>(count));
  for (int d0 = 0; d0 < q.dims_; d0 += kBlockDims) {
    for (int64_t i = 0; i < count; ++i) {
      const double* line = store.SpectrumRow(i) + d0;
      for (int j = 0; j < kBlockDims; ++j) {
        block[static_cast<size_t>(j) * count + i] = line[j];
      }
    }
    const int width = std::min(kBlockDims, q.dims_ - d0);
    for (int j = 0; j < width; ++j) {
      const int d = d0 + j;
      const double* column = block.data() + static_cast<size_t>(j) * count;
      double* edges =
          q.bounds_.data() + static_cast<size_t>(d) * (kCells + 1);
      SelectRankEdges(column, count, kCells, edges, ordered.data());
      double* sums = q.edge_sums_.data() + static_cast<size_t>(d) * stride;
      for (int c = 0; c <= kCells; ++c) {
        sums[2 * c + 2] = sums[2 * c] + edges[c];
        sums[2 * c + 3] = sums[2 * c + 1] + edges[c] * edges[c];
      }
      const double widest =
          std::max(std::abs(edges[0]), std::abs(edges[kCells]));
      q.max_row_energy_ += (q.HasTwin(d) ? 2.0 : 1.0) * (widest * widest);
      if (visit) {
        visit(q, d, column);
      }
    }
  }
  return q;
}

double ScalarQuantizer::GapSqSum(int d, double q) const {
  const double* edges = bounds(d);
  const size_t stride = 2 * (static_cast<size_t>(kCells) + 2);
  const double* sums = edge_sums_.data() + static_cast<size_t>(d) * stride;
  // Cell c lies below q when its high edge c + 1 is < q, and above q when
  // its low edge c is > q. The edges < q are [0, below) and the edges > q
  // are [above, kCells]; sum (q - e)^2 over high edges in [1, below) and
  // (e - q)^2 over low edges in [above, cells). `below` is a branch-free
  // lower bound (the search is unpredictable, and a query asks for it
  // twice per dimension); the edges equal to q are usually none.
  const double* first = edges;
  for (int len = kCells + 1; len > 1;) {
    const int half = len / 2;
    first = first[half] < q ? first + half : first;
    len -= half;
  }
  const int below = static_cast<int>(first - edges) + (*first < q ? 1 : 0);
  int above = below;
  while (above <= kCells && !(q < edges[above])) {
    ++above;
  }
  double total = 0.0;
  const auto add = [&](int from, int to) {  // edges [from, to)
    if (from < to) {
      total += (to - from) * (q * q) -
               2.0 * q * (sums[2 * to] - sums[2 * from]) +
               (sums[2 * to + 1] - sums[2 * from + 1]);
    }
  };
  add(1, below);
  add(above, kCells);
  // max(0, NaN) is 0: cancellation can only misorder dimensions.
  return std::max(0.0, total);
}

uint32_t ScalarQuantizer::Encode(int d, double value) const {
  const double* edges = bounds(d);
  // Last edge with edges[c] <= value, i.e. upper_bound minus one.
  const double* it = std::upper_bound(edges, edges + kCells + 1, value);
  int64_t c = (it - edges) - 1;
  if (c < 0) {
    c = 0;
  } else if (c >= kCells) {
    c = kCells - 1;
  }
  return static_cast<uint32_t>(c);
}

void ScalarQuantizer::EncodeColumn(int d, const double* column, int64_t n,
                                   uint8_t* codes) const {
  const double* edges = bounds(d);
  const BucketMap bucket(edges[0], edges[kCells]);
  // first[b]: how many edges lie in buckets below b. The edges are sorted
  // and the map monotone, so bucket b's edges are edges[first[b] ..
  // first[b + 1]), every edge before them is < any value in bucket b and
  // every edge after them is >.
  std::array<uint16_t, kBuckets + 1> first{};
  for (int c = 0; c <= kCells; ++c) {
    ++first[static_cast<size_t>(bucket(edges[c])) + 1];
  }
  for (int b = 0; b < kBuckets; ++b) {
    first[static_cast<size_t>(b) + 1] += first[static_cast<size_t>(b)];
  }
  const int64_t last_cell = kCells - 1;
  for (int64_t i = 0; i < n; ++i) {
    const double v = column[i];
    const size_t b = static_cast<size_t>(bucket(v));
    // Edges <= v: all those below v's bucket, plus its own that are <= v.
    const int64_t le = std::upper_bound(edges + first[b],
                                        edges + first[b + 1], v) -
                       edges;
    codes[i] = static_cast<uint8_t>(std::clamp<int64_t>(le - 1, 0, last_cell));
  }
}

}  // namespace simq
