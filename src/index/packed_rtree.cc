#include "index/packed_rtree.h"

#include <cmath>
#include <numeric>

#include "geom/circular_interval.h"

namespace simq {
namespace {

// Per-query compiled form of one SearchRegion dimension, mirroring the
// branch structure of SearchRegion::Intersects*/Contains* exactly so the
// packed search accepts and rejects the same entries bit-for-bit as the
// reference tree (index/rtree.h).
//
// The plan drops dimensions that always pass (unconstrained linear bounds,
// full-circle arcs) and orders linear dimensions before circular ones:
// per-dimension accept/reject decisions are independent, so the final
// entry mask -- and with it results and node accesses -- is unchanged,
// but the fmod-heavy arc tests only run for entries that survived every
// (vectorized) linear plane.
struct DimPlan {
  int dim = 0;
  bool circular = false;
  bool identity = false;    // scale == 1, offset == 0: skip the transform
  bool rotate = false;      // rotate node arcs by `offset` (angle action)
  bool add_offset = false;  // leaf angles tested as Normalize(p + offset)
  double qlo = 0.0;
  double qhi = 0.0;
  double scale = 1.0;
  double offset = 0.0;
  const CircularInterval* arc = nullptr;
  // Hoisted arc fields for the fast path: the raw arc start (what
  // CircularInterval::Contains subtracts), its extent, and the start as
  // data.Contains(q.lo) would normalize it.
  double arc_lo = 0.0;
  double arc_extent = 0.0;
  double arc_lo_norm = 0.0;
};

// Exact fallbacks replicating the reference tree's arc chain verbatim.
inline bool ExactNodeArcPass(const DimPlan& plan, double lo, double hi) {
  CircularInterval data_arc = CircularInterval::FromBounds(lo, hi);
  if (plan.rotate) {
    data_arc = data_arc.Rotated(plan.offset);
  }
  return plan.arc->Overlaps(data_arc);
}

inline bool ExactLeafArcPass(const DimPlan& plan, double p) {
  const double angle =
      plan.add_offset ? NormalizeAngle(p + plan.offset) : p;
  return plan.arc->Contains(angle);
}

constexpr double kPlanInf = std::numeric_limits<double>::infinity();
constexpr double kTwoPi = 2.0 * M_PI;

// Fast-tier NormalizeAngle that tracks exactness: returns the same value
// as NormalizeAngle(x) for x in [-3*pi, 3*pi) (the tiers use the same
// formulas), and clears *ok when either x falls outside those tiers or
// the result is not strictly inside [-pi, pi) (a rounding edge where a
// subsequent NormalizeAngle pass-through would not be the identity). With
// *ok still set, downstream arc arithmetic is bit-identical to the
// CircularInterval implementation; otherwise the caller must take the
// exact scalar path.
inline double FastNormalize(double x, bool* ok) {
  if (x >= -M_PI && x < M_PI) {
    return x;
  }
  if (x >= M_PI && x < 3.0 * M_PI) {
    const double r = x - kTwoPi;
    *ok = *ok && r >= -M_PI && r < M_PI;
    return r;
  }
  if (x < -M_PI && x >= -3.0 * M_PI) {
    const double r = x + kTwoPi;
    *ok = *ok && r >= -M_PI && r < M_PI;
    return r;
  }
  *ok = false;
  return x;
}

// Per-thread traversal scratch: packed searches run concurrently from the
// join's probe threads, so reusable buffers must be thread-local.
struct SearchScratch {
  std::vector<DimPlan> plans;
  std::vector<int32_t> stack;
};

SearchScratch& LocalScratch() {
  static thread_local SearchScratch scratch;
  return scratch;
}

// One level of an STR build. Its entries are the data entries (leaf
// level) or the groups of the level below, numbered as built: entry e
// spans lo[e * dims + d] .. hi[e * dims + d]. `order` lists the entries
// group after group, one group per node of this level, and group g's MBR
// is mbr_lo / mbr_hi[g * dims + d].
struct StrLevel {
  const double* lo;
  const double* hi;
  std::vector<int32_t> order;
  std::vector<int32_t> group_end;  // one past each group's last position
  std::vector<double> mbr_lo;
  std::vector<double> mbr_hi;

  int32_t num_groups() const { return static_cast<int32_t>(group_end.size()); }
  int32_t group_begin(int32_t g) const {
    return g == 0 ? 0 : group_end[static_cast<size_t>(g - 1)];
  }
};

// Sort-Tile-Recursive grouping of `count` entries into one level. A run of
// at most `fanout` entries is one group. A longer run needs
// ceil(run / fanout) groups: it is sorted by lo + hi along `dim` and cut
// evenly into ceil(groups^(1 / (dims - dim))) slabs, each tiled again
// along the next dimension; along the last dimension it is cut evenly into
// the groups themselves. Sorting (key, entry) pairs with a key-only
// comparator makes the comparisons that sorting the entries by that key
// would, so std::sort leaves them in the same order. Each group's MBR is
// folded with std::min / std::max in entry order from the empty box
// (+inf, -inf): the order fixes which of two signed zeros a bound keeps.
StrLevel TileLevel(int dims, int fanout, const double* lo, const double* hi,
                   int32_t count) {
  StrLevel level{lo, hi, std::vector<int32_t>(static_cast<size_t>(count)),
                 {}, {}, {}};
  std::iota(level.order.begin(), level.order.end(), 0);
  std::vector<std::pair<double, int32_t>> keyed(static_cast<size_t>(count));
  const auto tile = [&](const auto& self, int32_t begin, int32_t end,
                        int dim) -> void {
    const int32_t run = end - begin;
    if (run <= fanout) {
      level.group_end.push_back(end);
      return;
    }
    for (int32_t i = begin; i < end; ++i) {
      const int32_t entry = level.order[static_cast<size_t>(i)];
      const int64_t at = static_cast<int64_t>(entry) * dims + dim;
      keyed[static_cast<size_t>(i)] = {lo[at] + hi[at], entry};
    }
    std::sort(keyed.begin() + begin, keyed.begin() + end,
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (int32_t i = begin; i < end; ++i) {
      level.order[static_cast<size_t>(i)] = keyed[static_cast<size_t>(i)].second;
    }
    const int num_groups = (run + fanout - 1) / fanout;
    const bool last_dim = dim >= dims - 1;
    const int parts =
        last_dim ? num_groups
                 : std::max(1, static_cast<int>(std::ceil(std::pow(
                                   static_cast<double>(num_groups),
                                   1.0 / static_cast<double>(dims - dim)))));
    for (int p = 0; p < parts; ++p) {
      const int32_t from =
          begin + static_cast<int32_t>(static_cast<int64_t>(run) * p / parts);
      const int32_t to =
          begin +
          static_cast<int32_t>(static_cast<int64_t>(run) * (p + 1) / parts);
      if (to == from) {
        continue;
      }
      if (last_dim) {
        level.group_end.push_back(to);
      } else {
        self(self, from, to, dim + 1);
      }
    }
  };
  tile(tile, 0, count, 0);

  const size_t bounds = level.group_end.size() * static_cast<size_t>(dims);
  level.mbr_lo.assign(bounds, std::numeric_limits<double>::infinity());
  level.mbr_hi.assign(bounds, -std::numeric_limits<double>::infinity());
  for (int32_t g = 0; g < level.num_groups(); ++g) {
    double* group_lo = level.mbr_lo.data() + static_cast<int64_t>(g) * dims;
    double* group_hi = level.mbr_hi.data() + static_cast<int64_t>(g) * dims;
    for (int32_t i = level.group_begin(g);
         i < level.group_end[static_cast<size_t>(g)]; ++i) {
      const int64_t at =
          static_cast<int64_t>(level.order[static_cast<size_t>(i)]) * dims;
      for (int d = 0; d < dims; ++d) {
        group_lo[d] = std::min(group_lo[d], lo[at + d]);
        group_hi[d] = std::max(group_hi[d], hi[at + d]);
      }
    }
  }
  return level;
}

}  // namespace

PackedRTree::PackedRTree(int dims, int fanout, const std::vector<double>& lo,
                         const std::vector<double>& hi,
                         const std::vector<int64_t>& ids)
    : dims_(dims), size_(static_cast<int64_t>(ids.size())) {
  SIMQ_CHECK_GT(dims_, 0);
  SIMQ_CHECK(fanout >= 2 && fanout <= kMaxFanout)
      << "fanout must lie in [2, " << kMaxFanout << "], got " << fanout;
  SIMQ_CHECK_EQ(lo.size(), ids.size() * static_cast<size_t>(dims_));
  SIMQ_CHECK_EQ(hi.size(), lo.size());
  SIMQ_CHECK_LE(size_, std::numeric_limits<int32_t>::max());
  const auto finite = [](double x) { return std::isfinite(x); };
  SIMQ_CHECK(std::all_of(lo.begin(), lo.end(), finite) &&
             std::all_of(hi.begin(), hi.end(), finite))
      << "PackedRTree entries must be finite";

  // Bottom-up: the leaves group the entries, and each level above groups
  // the MBRs of the groups below, until one group, the root, is left.
  // (Moving a level keeps its MBR buffers, so the next level's pointers
  // into them stay valid as `levels` grows.)
  std::vector<StrLevel> levels;
  levels.push_back(TileLevel(dims_, fanout, lo.data(), hi.data(),
                             static_cast<int32_t>(size_)));
  while (levels.back().num_groups() > 1) {
    const StrLevel& below = levels.back();
    levels.push_back(TileLevel(dims_, fanout, below.mbr_lo.data(),
                               below.mbr_hi.data(), below.num_groups()));
  }

  height_ = static_cast<int>(levels.size());
  int32_t node_count = 0;
  cap_ = 1;
  for (const StrLevel& level : levels) {
    node_count += level.num_groups();
    for (int32_t g = 0; g < level.num_groups(); ++g) {
      cap_ = std::max(cap_, level.group_end[static_cast<size_t>(g)] -
                                level.group_begin(g));
    }
  }
  first_leaf_ = node_count - levels.front().num_groups();
  coord_stride_ = 2 * static_cast<int64_t>(dims_) * cap_;

  coords_.assign(static_cast<size_t>(node_count * coord_stride_), 0.0);
  kids_.assign(static_cast<size_t>(node_count) * static_cast<size_t>(cap_),
               0);
  counts_.resize(static_cast<size_t>(node_count));
  levels_.resize(static_cast<size_t>(node_count));
  mbrs_.resize(static_cast<size_t>(node_count) * 2 *
               static_cast<size_t>(dims_));
  sweep_order_.assign(static_cast<size_t>(node_count) *
                          static_cast<size_t>(dims_) *
                          static_cast<size_t>(cap_),
                      0);

  // Top-down, breadth-first: the root is node 0, and each level's nodes
  // follow the level above's in (parent, entry) order, so the children of
  // a node take consecutive ids. `groups` lists one level's groups in that
  // order.
  std::vector<int32_t> groups = {0};
  std::vector<int> order(static_cast<size_t>(cap_));
  int32_t node = 0;
  for (int level_index = height_ - 1; level_index >= 0; --level_index) {
    const StrLevel& level = levels[static_cast<size_t>(level_index)];
    int32_t next_child = node + static_cast<int32_t>(groups.size());
    std::vector<int32_t> child_groups;
    for (const int32_t group : groups) {
      const int32_t begin = level.group_begin(group);
      const int32_t count = level.group_end[static_cast<size_t>(group)] - begin;
      counts_[static_cast<size_t>(node)] = count;
      levels_[static_cast<size_t>(node)] = level_index;

      double* lo_base = coords_.data() + node * coord_stride_;
      double* hi_base = lo_base + static_cast<int64_t>(dims_) * cap_;
      int32_t* kids = kids_.data() + static_cast<int64_t>(node) * cap_;
      for (int32_t e = 0; e < count; ++e) {
        const int32_t entry = level.order[static_cast<size_t>(begin + e)];
        const int64_t at = static_cast<int64_t>(entry) * dims_;
        for (int d = 0; d < dims_; ++d) {
          lo_base[d * cap_ + e] = level.lo[at + d];
          hi_base[d * cap_ + e] = level.hi[at + d];
        }
        if (level_index > 0) {
          kids[e] = next_child++;
          child_groups.push_back(entry);
          continue;
        }
        const int64_t id = ids[static_cast<size_t>(entry)];
        SIMQ_CHECK(id >= std::numeric_limits<int32_t>::min() &&
                   id <= std::numeric_limits<int32_t>::max())
            << "data id does not fit the packed int32 layout";
        kids[e] = static_cast<int32_t>(id);
      }

      double* mbr_row = mbrs_.data() + static_cast<int64_t>(node) * 2 * dims_;
      const size_t mbr_at = static_cast<size_t>(group) * dims_;
      std::copy_n(level.mbr_lo.begin() + mbr_at, dims_, mbr_row);
      std::copy_n(level.mbr_hi.begin() + mbr_at, dims_, mbr_row + dims_);

      // Sweep orders: entries ascending by lo per dimension, ties broken by
      // entry index so trees over equal entries are identical.
      uint8_t* sweep =
          sweep_order_.data() +
          (static_cast<int64_t>(node) * dims_) * static_cast<int64_t>(cap_);
      for (int d = 0; d < dims_; ++d) {
        for (int e = 0; e < count; ++e) {
          order[static_cast<size_t>(e)] = e;
        }
        const double* lo_plane = lo_base + static_cast<int64_t>(d) * cap_;
        std::sort(order.begin(), order.begin() + count, [&](int a, int b) {
          if (lo_plane[a] != lo_plane[b]) {
            return lo_plane[a] < lo_plane[b];
          }
          return a < b;
        });
        for (int e = 0; e < count; ++e) {
          sweep[static_cast<int64_t>(d) * cap_ + e] =
              static_cast<uint8_t>(order[static_cast<size_t>(e)]);
        }
      }
      ++node;
    }
    groups = std::move(child_groups);
  }
}

int64_t PackedRTree::arena_bytes() const {
  return static_cast<int64_t>(coords_.size() * sizeof(double) +
                              kids_.size() * sizeof(int32_t) +
                              counts_.size() * sizeof(int32_t) +
                              levels_.size() * sizeof(int32_t) +
                              mbrs_.size() * sizeof(double) +
                              sweep_order_.size());
}

int PackedRTree::BestSweepDim(const PackedRTree& other, int32_t a,
                              int32_t b) const {
  const double* a_lo = mbrs_.data() + static_cast<int64_t>(a) * 2 * dims_;
  const double* a_hi = a_lo + dims_;
  const double* b_lo =
      other.mbrs_.data() + static_cast<int64_t>(b) * 2 * other.dims_;
  const double* b_hi = b_lo + other.dims_;
  int best = 0;
  double best_extent = -std::numeric_limits<double>::infinity();
  for (int d = 0; d < dims_; ++d) {
    const double extent =
        std::max(a_hi[d], b_hi[d]) - std::min(a_lo[d], b_lo[d]);
    if (extent > best_extent) {
      best_extent = extent;
      best = d;
    }
  }
  return best;
}

int64_t PackedRTree::Search(const SearchRegion& region,
                            const std::vector<DimAffine>* affines,
                            std::vector<int64_t>* results) const {
  SIMQ_CHECK_EQ(region.dims(), dims_);
  if (affines != nullptr) {
    SIMQ_CHECK_EQ(static_cast<int>(affines->size()), dims_);
  }
  if (results->capacity() == results->size()) {
    results->reserve(results->size() +
                     static_cast<size_t>(std::min<int64_t>(size_, 64)) + 1);
  }

  // Compile the per-dimension plan once per query: constrained linear
  // dimensions first, circular (arc) dimensions after, always-pass
  // dimensions dropped entirely.
  SearchScratch& scratch = LocalScratch();
  std::vector<DimPlan>& plans = scratch.plans;
  plans.clear();
  int num_linear = 0;
  for (int d = 0; d < dims_; ++d) {
    if (region.DimIsCircular(d)) {
      continue;
    }
    DimPlan plan;
    plan.dim = d;
    plan.qlo = region.DimLo(d);
    plan.qhi = region.DimHi(d);
    if (plan.qlo == -kPlanInf && plan.qhi == kPlanInf) {
      continue;  // unconstrained: every finite interval passes
    }
    if (affines != nullptr) {
      const DimAffine& affine = (*affines)[static_cast<size_t>(d)];
      plan.scale = affine.scale;
      plan.offset = affine.offset;
    }
    // scale * x + 0.0 with scale == 1 reproduces x exactly in IEEE
    // arithmetic, so the identity fast path cannot change a decision.
    plan.identity = plan.scale == 1.0 && plan.offset == 0.0;
    plans.push_back(plan);
    ++num_linear;
  }
  for (int d = 0; d < dims_; ++d) {
    if (!region.DimIsCircular(d)) {
      continue;
    }
    DimPlan plan;
    plan.dim = d;
    plan.circular = true;
    plan.arc = &region.DimArc(d);
    if (plan.arc->is_full()) {
      continue;  // full circle: every arc and angle passes
    }
    if (affines != nullptr) {
      const DimAffine& affine = (*affines)[static_cast<size_t>(d)];
      plan.offset = affine.offset;
      plan.rotate = affine.is_angle;
      plan.add_offset = true;
    }
    plan.arc_lo = plan.arc->lo();
    plan.arc_extent = plan.arc->extent();
    plan.arc_lo_norm = NormalizeAngle(plan.arc_lo);
    plans.push_back(plan);
  }
  const int num_plans = static_cast<int>(plans.size());

  uint8_t alive[kMaxFanout];
  std::vector<int32_t>& stack = scratch.stack;
  stack.clear();
  stack.push_back(0);
  int64_t visited = 0;
  while (!stack.empty()) {
    const int32_t node = stack.back();
    stack.pop_back();
    ++visited;
    const int32_t count = counts_[static_cast<size_t>(node)];
    const bool leaf = node >= first_leaf_;
    for (int32_t e = 0; e < count; ++e) {
      alive[e] = 1;
    }
    int32_t remaining = count;
    // Linear planes: branchless unit-stride passes over the coordinate
    // planes (no survivor counting inside the loop, so they vectorize).
    for (int p = 0; p < num_linear; ++p) {
      const DimPlan& plan = plans[static_cast<size_t>(p)];
      const double* lo_p = LoPlane(node, plan.dim);
      const double qlo = plan.qlo;
      const double qhi = plan.qhi;
      if (!leaf) {
        const double* hi_p = HiPlane(node, plan.dim);
        if (plan.identity) {
          // lo <= hi per rect invariant, so the transformed interval is
          // [lo, hi] itself.
          for (int32_t e = 0; e < count; ++e) {
            alive[e] = static_cast<uint8_t>(
                alive[e] & (lo_p[e] <= qhi) & (hi_p[e] >= qlo));
          }
        } else {
          const double scale = plan.scale;
          const double offset = plan.offset;
          for (int32_t e = 0; e < count; ++e) {
            const double a = scale * lo_p[e] + offset;
            const double b = scale * hi_p[e] + offset;
            const double tlo = std::min(a, b);
            const double thi = std::max(a, b);
            alive[e] =
                static_cast<uint8_t>(alive[e] & (tlo <= qhi) & (thi >= qlo));
          }
        }
      } else {
        // Leaf entries are points: the lo plane is the coordinate.
        if (plan.identity) {
          for (int32_t e = 0; e < count; ++e) {
            alive[e] = static_cast<uint8_t>(
                alive[e] & (lo_p[e] >= qlo) & (lo_p[e] <= qhi));
          }
        } else {
          const double scale = plan.scale;
          const double offset = plan.offset;
          for (int32_t e = 0; e < count; ++e) {
            const double value = scale * lo_p[e] + offset;
            alive[e] = static_cast<uint8_t>(
                alive[e] & (value >= qlo) & (value <= qhi));
          }
        }
      }
    }
    if (num_linear > 0) {
      remaining = 0;
      for (int32_t e = 0; e < count; ++e) {
        remaining += alive[e];
      }
    }
    // Circular planes: evaluated only for entries that survived every
    // linear plane. The fast path runs the arc chain on pre-normalized
    // operands (exactness tracked by FastNormalize; the rare inexact lane
    // falls back to the verbatim CircularInterval chain), so the common
    // case is a handful of adds and compares per surviving entry.
    for (int p = num_linear; p < num_plans && remaining > 0; ++p) {
      const DimPlan& plan = plans[static_cast<size_t>(p)];
      const double* lo_p = LoPlane(node, plan.dim);
      const double arc_lo = plan.arc_lo;
      const double arc_extent = plan.arc_extent;
      const double arc_lo_norm = plan.arc_lo_norm;
      remaining = 0;
      if (!leaf) {
        const double* hi_p = HiPlane(node, plan.dim);
        for (int32_t e = 0; e < count; ++e) {
          if (alive[e]) {
            const double lo = lo_p[e];
            const double hi = hi_p[e];
            const double extent = hi - lo;
            if (extent < kTwoPi) {
              bool ok = true;
              double data_lo = FastNormalize(lo, &ok);  // FromBounds
              if (plan.rotate) {
                data_lo = FastNormalize(data_lo + plan.offset, &ok);
              }
              // qarc.Contains(data_lo): with ok, the Contains-side
              // normalize of data_lo is the identity.
              double off = data_lo - arc_lo;
              if (off < 0.0) {
                off += kTwoPi;
              }
              bool pass = off <= arc_extent;
              if (!pass) {
                // data.Contains(qarc.lo): the normalize of the arc start
                // is hoisted into arc_lo_norm.
                double off2 = arc_lo_norm - data_lo;
                if (off2 < 0.0) {
                  off2 += kTwoPi;
                }
                pass = off2 <= extent;
              }
              if (!ok) {
                pass = ExactNodeArcPass(plan, lo, hi);
              }
              if (!pass) {
                alive[e] = 0;
              }
            }
          }
          remaining += alive[e];
        }
      } else {
        for (int32_t e = 0; e < count; ++e) {
          if (alive[e]) {
            bool ok = true;
            double angle = lo_p[e];
            if (plan.add_offset) {
              angle = FastNormalize(angle + plan.offset, &ok);
            }
            // qarc.Contains(angle) with the normalize inlined.
            const double normalized = FastNormalize(angle, &ok);
            double off = normalized - arc_lo;
            if (off < 0.0) {
              off += kTwoPi;
            }
            bool pass = off <= arc_extent;
            if (!ok) {
              pass = ExactLeafArcPass(plan, lo_p[e]);
            }
            if (!pass) {
              alive[e] = 0;
            }
          }
          remaining += alive[e];
        }
      }
    }
    const int32_t* ids = kids_.data() + static_cast<int64_t>(node) * cap_;
    if (leaf) {
      for (int32_t e = 0; e < count; ++e) {
        if (alive[e]) {
          results->push_back(ids[e]);
        }
      }
    } else {
      // Reverse push: the DFS pops entry 0 first, matching the reference
      // tree's recursive visit order (and therefore its result order).
      for (int32_t e = count - 1; e >= 0; --e) {
        if (alive[e]) {
          stack.push_back(ids[e]);
        }
      }
    }
  }
  return Tally(visited);
}

}  // namespace simq
