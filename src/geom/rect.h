// Axis-aligned hyper-rectangles (minimum bounding rectangles): the entry
// and node boxes of the reference R-tree (index/rtree.h) and the boxes
// search regions are tested against.

#ifndef SIMQ_GEOM_RECT_H_
#define SIMQ_GEOM_RECT_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace simq {

using Point = std::vector<double>;

class Rect {
 public:
  Rect() = default;

  // An "empty" rectangle: lo = +inf, hi = -inf in every dimension; the
  // identity element of ExpandToInclude.
  static Rect Empty(int dims);

  // Degenerate rectangle covering exactly one point.
  static Rect FromPoint(const Point& point);

  // Requires lo[d] <= hi[d] for all d.
  static Rect FromBounds(Point lo, Point hi);

  int dims() const { return static_cast<int>(lo_.size()); }
  double lo(int d) const { return lo_[static_cast<size_t>(d)]; }
  double hi(int d) const { return hi_[static_cast<size_t>(d)]; }
  // Contiguous per-dimension bounds (stride 1), for the strided geometry
  // cores shared with the packed index arena.
  const double* lo_data() const { return lo_.data(); }
  const double* hi_data() const { return hi_.data(); }
  bool IsEmpty() const;

  bool Overlaps(const Rect& other) const;
  bool Contains(const Rect& other) const;
  bool ContainsPoint(const Point& point) const;

  void ExpandToInclude(const Rect& other);
  static Rect Union(const Rect& a, const Rect& b);

 private:
  Rect(Point lo, Point hi) : lo_(std::move(lo)), hi_(std::move(hi)) {}

  Point lo_;
  Point hi_;
};

}  // namespace simq

#endif  // SIMQ_GEOM_RECT_H_
