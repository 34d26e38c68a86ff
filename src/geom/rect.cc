#include "geom/rect.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace simq {

Rect Rect::Empty(int dims) {
  SIMQ_CHECK_GT(dims, 0);
  Point lo(static_cast<size_t>(dims), std::numeric_limits<double>::infinity());
  Point hi(static_cast<size_t>(dims),
           -std::numeric_limits<double>::infinity());
  return Rect(std::move(lo), std::move(hi));
}

Rect Rect::FromPoint(const Point& point) {
  SIMQ_CHECK(!point.empty());
  return Rect(point, point);
}

Rect Rect::FromBounds(Point lo, Point hi) {
  SIMQ_CHECK_EQ(lo.size(), hi.size());
  SIMQ_CHECK(!lo.empty());
  for (size_t d = 0; d < lo.size(); ++d) {
    SIMQ_CHECK_LE(lo[d], hi[d]);
  }
  return Rect(std::move(lo), std::move(hi));
}

bool Rect::IsEmpty() const {
  if (lo_.empty()) {
    return true;
  }
  for (size_t d = 0; d < lo_.size(); ++d) {
    if (lo_[d] > hi_[d]) {
      return true;
    }
  }
  return false;
}

bool Rect::Overlaps(const Rect& other) const {
  SIMQ_DCHECK(dims() == other.dims());
  for (size_t d = 0; d < lo_.size(); ++d) {
    if (lo_[d] > other.hi_[d] || hi_[d] < other.lo_[d]) {
      return false;
    }
  }
  return true;
}

bool Rect::Contains(const Rect& other) const {
  SIMQ_DCHECK(dims() == other.dims());
  for (size_t d = 0; d < lo_.size(); ++d) {
    if (other.lo_[d] < lo_[d] || other.hi_[d] > hi_[d]) {
      return false;
    }
  }
  return true;
}

bool Rect::ContainsPoint(const Point& point) const {
  SIMQ_DCHECK(point.size() == lo_.size());
  for (size_t d = 0; d < lo_.size(); ++d) {
    if (point[d] < lo_[d] || point[d] > hi_[d]) {
      return false;
    }
  }
  return true;
}

void Rect::ExpandToInclude(const Rect& other) {
  if (lo_.empty()) {
    *this = other;
    return;
  }
  SIMQ_DCHECK(dims() == other.dims());
  for (size_t d = 0; d < lo_.size(); ++d) {
    lo_[d] = std::min(lo_[d], other.lo_[d]);
    hi_[d] = std::max(hi_[d], other.hi_[d]);
  }
}

Rect Rect::Union(const Rect& a, const Rect& b) {
  Rect result = a;
  result.ExpandToInclude(b);
  return result;
}

}  // namespace simq
