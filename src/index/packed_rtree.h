/// Immutable, cache-friendly R-tree: the index every query hot path runs on.
///
/// A PackedRTree is compiled from an RTree (index/rtree.h). Relation
/// shards compile theirs from a temporary STR bulk-loaded RTree over the
/// shard's live rows and drop it right after (core/sharded_relation.h).
/// RTree's heap-scattered nodes (unique_ptr children, per-node
/// std::vector<Rect> with two heap arrays per rectangle) make every
/// traversal a pointer chase; PackedRTree lays the same tree out as one
/// contiguous arena of fixed-stride structure-of-arrays nodes:
///
///   * Nodes are numbered in breadth-first, level-grouped order (root = 0,
///     leaves last), so a level-ordered traversal streams the arena and
///     `node >= first_leaf_` replaces the is_leaf flag.
///   * Per node, entry coordinates are stored as dimension-major planes:
///     lo[d][entry] then hi[d][entry], each plane `cap` doubles wide. A
///     rect-overlap or MINDIST test over one dimension of a whole node is a
///     unit-stride loop the compiler vectorizes.
///   * Child node ids (internal) and data ids (leaves) are dense int32 in
///     one array; data ids are checked to fit at compile time.
///   * Per node: the exact MBR (union of entry rects, same arithmetic as
///     RTree::NodeMbr) and, for the plane-sweep join, the entry order
///     sorted by lo along every dimension (precomputed once per snapshot).
///
/// Traversals are iterative (explicit stack / priority queue, no recursion):
///   * Search / SearchGeneric: DFS with an explicit stack, visiting entries
///     in the same order as the recursive RTree traversal.
///   * JoinWith: synchronized descent structured exactly like
///     RTree::JoinWith, but leaf/leaf node pairs are resolved with a plane
///     sweep along the best (widest) dimension instead of all-pairs entry
///     tests. See the `slack` contract on JoinWith.
///   * NearestNeighbors: best-first search over a MINDIST priority queue of
///     packed nodes, with deterministic (distance, then id) tie-breaking.
///
/// Node-access accounting (DESIGN.md "Node-access accounting"): every
/// traversal counts the packed nodes it visits and returns that count, so
/// concurrent traversals of one snapshot never see each other's visits.
/// The visit rules match the source RTree one-for-one (Search /
/// SearchGeneric / JoinWith by construction; for NearestNeighbors both
/// visit exactly the nodes whose MINDIST is <= the k-th result distance),
/// which is what lets tests and micro_rtree use RTree as the reference.
/// The cumulative node_accesses() counter is bumped once per traversal by
/// its count; it is for tests and benches, not for per-query stats.
///
/// Thread-safety contract: a snapshot is immutable, so every const
/// method -- Search, SearchGeneric, JoinWith, NearestNeighbors, and all
/// accessors -- is snapshot-safe: any number of threads may traverse one
/// snapshot concurrently with no external lock (the cumulative counter is
/// a relaxed atomic, nothing else mutates). Owners cache snapshots in a
/// PackedSnapshotCache (bottom of this file): mutators call Invalidate()
/// while holding the owner's exclusive lock, queries call Get()/TryGet()
/// under the owner's shared lock, and the cache's internal mutex
/// serializes only the first post-invalidation compiles.

#ifndef SIMQ_INDEX_PACKED_RTREE_H_
#define SIMQ_INDEX_PACKED_RTREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "geom/linear_transform.h"
#include "geom/rect.h"
#include "geom/search_region.h"
#include "index/knn_best_first.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace simq {

class RTree;

/// Non-owning rectangle view over packed coordinate storage: dimension d
/// lives at lo[d * stride] / hi[d * stride]. This is what packed traversal
/// predicates receive instead of a Rect; write predicates as generic
/// lambdas ([](const auto& rect) { ... rect.lo(d) ... }) to share them
/// with RTree traversals.
class PackedRect {
 public:
  PackedRect(const double* lo, const double* hi, int32_t stride)
      : lo_(lo), hi_(hi), stride_(stride) {}

  double lo(int d) const { return lo_[d * stride_]; }
  double hi(int d) const { return hi_[d * stride_]; }

  const double* lo_data() const { return lo_; }
  const double* hi_data() const { return hi_; }
  int32_t stride() const { return stride_; }

 private:
  const double* lo_;
  const double* hi_;
  int32_t stride_;
};

/// The canonical epsilon spatial-join predicate: rectangles whose
/// per-dimension gap is at most eps (exact for point entries under the
/// Chebyshev metric, conservative on MBRs). Generic over the rect type so
/// it runs against both Rect and PackedRect, and bounded by eps along
/// every dimension -- i.e. it satisfies PackedRTree::JoinWith's slack
/// contract with slack = eps. Tests and benches use this one definition so
/// the contract cannot drift between PackedRTree and RTree.
struct EpsilonPairPredicate {
  int dims;
  double eps;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    for (int d = 0; d < dims; ++d) {
      if (a.lo(d) > b.hi(d) + eps || b.lo(d) > a.hi(d) + eps) {
        return false;
      }
    }
    return true;
  }
};

class PackedRTree {
 public:
  /// Largest node fanout the packed layout supports (sweep orders are uint8
  /// and traversal scratch is stack-allocated at this size). Compiling a
  /// tree with a larger fanout is a checked precondition violation; owners
  /// that accept RTree::Options (Database, SubsequenceIndex) check
  /// max_entries against it when they are constructed.
  static constexpr int kMaxFanout = 256;

  /// Compiles a snapshot of `tree`. O(nodes * dims * fanout); the source
  /// tree is not retained. Precondition: every node fanout is at most
  /// kMaxFanout (guaranteed when options.max_entries <= kMaxFanout).
  explicit PackedRTree(const RTree& tree);

  PackedRTree(const PackedRTree&) = delete;
  PackedRTree& operator=(const PackedRTree&) = delete;

  int dims() const { return dims_; }
  int64_t size() const { return size_; }
  int32_t node_count() const { return static_cast<int32_t>(counts_.size()); }
  int height() const { return height_; }
  /// Bytes of arena storage (coordinates + ids + MBRs + sweep orders).
  int64_t arena_bytes() const;

  /// Range search per Algorithm 2, identical in results and node accesses
  /// to RTree::Search on the source tree. Leaf entries are treated as
  /// points (their lo corner), as in RTree. Returns the nodes visited.
  int64_t Search(const SearchRegion& region,
                 const std::vector<DimAffine>* affines,
                 std::vector<int64_t>* results) const;

  /// Generic DFS: visits subtrees whose MBR satisfies node_predicate and
  /// emits leaf entries satisfying leaf_predicate, in the same order as
  /// RTree::SearchGeneric. Predicates receive PackedRect views. Returns
  /// the nodes visited.
  template <typename NodePred, typename LeafPred, typename Emit>
  int64_t SearchGeneric(NodePred&& node_predicate, LeafPred&& leaf_predicate,
                        Emit&& emit) const;

  /// Synchronized spatial join with `other` (which may be this snapshot: a
  /// self-join). The descent mirrors RTree::JoinWith (same node pairs, same
  /// node-access counts, both orientations and (id, id) pairs on
  /// self-joins); leaf/leaf pairs are resolved by a plane sweep along the
  /// dimension where the two nodes' combined MBR is widest.
  ///
  /// Contract: `pair_predicate` must be conservative on MBRs (as in
  /// RTree::JoinWith) and bounded by `slack` along every dimension --
  /// pair_predicate(a, b) must imply
  ///     a.lo(d) <= b.hi(d) + slack  &&  b.lo(d) <= a.hi(d) + slack
  /// for every d. Plain rect overlap satisfies this with slack = 0; an
  /// epsilon-distance join with slack = epsilon. Pass slack = +infinity to
  /// disable the sweep (all-pairs within each leaf pair, still iterative).
  /// Returns the node accesses of both sides (each node pair counts one
  /// access per side, one on a self-join's diagonal), as RTree::JoinWith
  /// adds them to the two trees' counters.
  template <typename PairPred, typename Emit>
  int64_t JoinWith(const PackedRTree& other, PairPred&& pair_predicate,
                   Emit&& emit, double slack) const;

  /// Best-first k-nearest neighbors over a MINDIST priority queue. Results
  /// are (id, exact_distance) ordered by (distance, id); ties at the k-th
  /// distance are resolved toward smaller ids. Same algorithm and
  /// accounting as RTree::NearestNeighbors. `initial_bound` caps the
  /// search as if k results at that distance already exist (cross-shard
  /// pruning; see index/knn_best_first.h); +infinity disables the cap.
  /// When `node_accesses` is non-null it receives the nodes visited.
  template <typename ExactFn>
  std::vector<std::pair<int64_t, double>> NearestNeighbors(
      const NnLowerBound& bound, const std::vector<DimAffine>* affines, int k,
      ExactFn&& exact_distance,
      double initial_bound = std::numeric_limits<double>::infinity(),
      int64_t* node_accesses = nullptr) const;

  /// Cumulative nodes visited by every traversal since the last reset
  /// (tests and benches; per-query counts are the traversals' returns).
  /// A reset concurrent with traversals loses their counts, so benches
  /// reset only between phases.
  void ResetNodeAccesses() const {
    node_accesses_.store(0, std::memory_order_relaxed);
  }
  int64_t node_accesses() const {
    return node_accesses_.load(std::memory_order_relaxed);
  }

  /// Entry i of node n as a strided view (stride = capacity). Arena
  /// offsets are computed in 64-bit arithmetic: node * cap_ exceeds int32
  /// well before the int32 data-id limit does.
  PackedRect EntryRect(int32_t node, int entry) const {
    const double* base =
        coords_.data() + static_cast<int64_t>(node) * coord_stride_ + entry;
    return PackedRect(base, base + static_cast<int64_t>(dims_) * cap_, cap_);
  }
  /// Exact MBR of node n (union of its entry rects), stride 1.
  PackedRect NodeMbr(int32_t node) const {
    const double* base =
        mbrs_.data() + static_cast<int64_t>(node) * 2 * dims_;
    return PackedRect(base, base + dims_, 1);
  }
  bool IsLeaf(int32_t node) const { return node >= first_leaf_; }
  int32_t EntryCount(int32_t node) const {
    return counts_[static_cast<size_t>(node)];
  }
  int32_t Level(int32_t node) const {
    return levels_[static_cast<size_t>(node)];
  }
  /// Child node id (internal) or data id (leaf) of entry i.
  int32_t EntryId(int32_t node, int entry) const {
    return kids_[static_cast<size_t>(static_cast<int64_t>(node) * cap_ +
                                     entry)];
  }

 private:
  /// Adds one traversal's visits to the cumulative counter and returns
  /// them.
  int64_t Tally(int64_t visited) const {
    node_accesses_.fetch_add(visited, std::memory_order_relaxed);
    return visited;
  }

  /// lo plane of dimension d in node `node` (cap_ doubles; hi plane is
  /// dims_ * cap_ further).
  const double* LoPlane(int32_t node, int d) const {
    return coords_.data() + node * coord_stride_ + d * cap_;
  }
  const double* HiPlane(int32_t node, int d) const {
    return coords_.data() + node * coord_stride_ + (dims_ + d) * cap_;
  }
  const uint8_t* SweepOrder(int32_t node, int d) const {
    return sweep_order_.data() + (static_cast<int64_t>(node) * dims_ + d) *
                                     cap_;
  }
  /// Dimension along which the union of the two node MBRs is widest -- the
  /// sweep axis for a leaf/leaf pair.
  int BestSweepDim(const PackedRTree& other, int32_t a, int32_t b) const;

  int dims_ = 0;
  int32_t cap_ = 0;          // entry capacity per node (max fanout seen)
  int64_t coord_stride_ = 0;  // doubles per node: 2 * dims_ * cap_
  int height_ = 0;
  int64_t size_ = 0;
  int32_t first_leaf_ = 0;

  std::vector<double> coords_;      // per node: lo planes, then hi planes
  std::vector<int32_t> kids_;       // per node: cap_ child/data ids
  std::vector<int32_t> counts_;     // entries per node
  std::vector<int32_t> levels_;     // level per node (0 = leaf)
  std::vector<double> mbrs_;        // per node: dims_ los, then dims_ his
  std::vector<uint8_t> sweep_order_;  // per node x dim: entries by lo asc

  mutable std::atomic<int64_t> node_accesses_{0};
};

template <typename NodePred, typename LeafPred, typename Emit>
int64_t PackedRTree::SearchGeneric(NodePred&& node_predicate,
                                   LeafPred&& leaf_predicate,
                                   Emit&& emit) const {
  std::vector<int32_t> stack;
  stack.reserve(static_cast<size_t>(height_) * static_cast<size_t>(cap_) + 1);
  stack.push_back(0);
  int64_t visited = 0;
  while (!stack.empty()) {
    const int32_t node = stack.back();
    stack.pop_back();
    ++visited;
    const int32_t count = EntryCount(node);
    if (IsLeaf(node)) {
      for (int32_t i = 0; i < count; ++i) {
        const int64_t id = EntryId(node, i);
        if (leaf_predicate(EntryRect(node, i), id)) {
          emit(id);
        }
      }
      continue;
    }
    // Push survivors in reverse so the DFS pops entry 0 first -- the same
    // visit (and emit) order as the recursive RTree traversal.
    for (int32_t i = count - 1; i >= 0; --i) {
      if (node_predicate(EntryRect(node, i))) {
        stack.push_back(EntryId(node, i));
      }
    }
  }
  return Tally(visited);
}

template <typename PairPred, typename Emit>
int64_t PackedRTree::JoinWith(const PackedRTree& other,
                              PairPred&& pair_predicate, Emit&& emit,
                              double slack) const {
  SIMQ_CHECK_EQ(dims_, other.dims_);
  struct Pair {
    int32_t a;
    int32_t b;
  };
  std::vector<Pair> stack;
  stack.reserve(64);
  stack.push_back(Pair{0, 0});
  int64_t visited_a = 0;
  int64_t visited_b = 0;
  while (!stack.empty()) {
    const Pair top = stack.back();
    stack.pop_back();
    const int32_t a = top.a;
    const int32_t b = top.b;
    ++visited_a;
    if (&other != this || a != b) {
      ++visited_b;
    }
    const int32_t na = EntryCount(a);
    const int32_t nb = other.EntryCount(b);
    if (IsLeaf(a) && other.IsLeaf(b)) {
      if (na == 0 || nb == 0) {
        continue;
      }
      // Plane sweep along the widest dimension of the combined MBR: only
      // entry pairs overlapping along it (inflated by `slack`) reach the
      // full predicate. By the slack contract no qualifying pair is
      // skipped; with slack = +inf this degenerates to all pairs.
      const int sweep = BestSweepDim(other, a, b);
      const uint8_t* order_a = SweepOrder(a, sweep);
      const uint8_t* order_b = other.SweepOrder(b, sweep);
      const double* a_lo = LoPlane(a, sweep);
      const double* a_hi = HiPlane(a, sweep);
      const double* b_lo = other.LoPlane(b, sweep);
      const double* b_hi = other.HiPlane(b, sweep);
      int32_t i = 0;
      int32_t j = 0;
      while (i < na && j < nb) {
        const int32_t ea = order_a[i];
        const int32_t eb = order_b[j];
        if (a_lo[ea] <= b_lo[eb]) {
          const double limit = a_hi[ea] + slack;
          const PackedRect rect_a = EntryRect(a, ea);
          const int64_t id_a = EntryId(a, ea);
          for (int32_t s = j; s < nb; ++s) {
            const int32_t es = order_b[s];
            if (b_lo[es] > limit) {
              break;
            }
            if (pair_predicate(rect_a, other.EntryRect(b, es))) {
              emit(id_a, static_cast<int64_t>(other.EntryId(b, es)));
            }
          }
          ++i;
        } else {
          const double limit = b_hi[eb] + slack;
          const PackedRect rect_b = other.EntryRect(b, eb);
          const int64_t id_b = other.EntryId(b, eb);
          for (int32_t s = i; s < na; ++s) {
            const int32_t es = order_a[s];
            if (a_lo[es] > limit) {
              break;
            }
            if (pair_predicate(EntryRect(a, es), rect_b)) {
              emit(static_cast<int64_t>(EntryId(a, es)), id_b);
            }
          }
          ++j;
        }
      }
      continue;
    }
    // Descend the deeper (or only internal) side, exactly as
    // RTree::JoinWith does; reverse push order preserves its DFS pair
    // order.
    if (!IsLeaf(a) && (other.IsLeaf(b) || Level(a) >= other.Level(b))) {
      const PackedRect b_mbr = other.NodeMbr(b);
      for (int32_t i = na - 1; i >= 0; --i) {
        if (pair_predicate(EntryRect(a, i), b_mbr)) {
          stack.push_back(Pair{EntryId(a, i), b});
        }
      }
      continue;
    }
    const PackedRect a_mbr = NodeMbr(a);
    for (int32_t j = nb - 1; j >= 0; --j) {
      if (pair_predicate(a_mbr, other.EntryRect(b, j))) {
        stack.push_back(Pair{a, other.EntryId(b, j)});
      }
    }
  }
  return Tally(visited_a) + other.Tally(visited_b);
}

template <typename ExactFn>
std::vector<std::pair<int64_t, double>> PackedRTree::NearestNeighbors(
    const NnLowerBound& bound, const std::vector<DimAffine>* affines, int k,
    ExactFn&& exact_distance, double initial_bound,
    int64_t* node_accesses) const {
  const std::vector<DimAffine> identity(static_cast<size_t>(dims_),
                                        DimAffine{});
  const std::vector<DimAffine>& actions =
      affines != nullptr ? *affines : identity;
  const size_t queue_reserve =
      static_cast<size_t>(k) +
      static_cast<size_t>(height_ + 1) * static_cast<size_t>(cap_) + 64;
  // The driver shared with RTree (index/knn_best_first.h) owns the queue,
  // tie draining, and deterministic (distance, id) ordering; this tree
  // only expands nodes over the packed planes.
  int64_t visited = 0;
  const auto expand = [&](int32_t node, auto&& push_node, auto&& push_entry) {
    ++visited;
    const int32_t count = EntryCount(node);
    if (IsLeaf(node)) {
      for (int32_t i = 0; i < count; ++i) {
        push_entry(
            bound.ToTransformedPoint(LoPlane(node, 0) + i, cap_, actions),
            static_cast<int64_t>(EntryId(node, i)));
      }
    } else {
      for (int32_t i = 0; i < count; ++i) {
        push_node(bound.ToTransformedBounds(LoPlane(node, 0) + i,
                                            HiPlane(node, 0) + i, cap_,
                                            actions),
                  EntryId(node, i));
      }
    }
  };
  std::vector<std::pair<int64_t, double>> results =
      internal::BestFirstNearestNeighbors<int32_t>(
          0, k, queue_reserve, expand, exact_distance, initial_bound);
  Tally(visited);
  if (node_accesses != nullptr) {
    *node_accesses = visited;
  }
  return results;
}

/// Lazily-compiled snapshot cache, the one rebuild-on-mutation protocol
/// shared by snapshot owners (Relation shards, SubsequenceIndex):
/// mutators call Invalidate(), queries call Get/TryGet with the owner's
/// compile callback (a callable returning std::unique_ptr<PackedRTree>),
/// which runs only when the cache is stale. Thread-safety: Get/TryGet
/// are snapshot-safe against each other (internal mutex); Invalidate,
/// Install and the mutation they reflect must hold exclusive access to
/// the owning structure, so a compile can never race a mutation.
class PackedSnapshotCache {
 public:
  /// A snapshot and the owner rows it covers, read under one lock: rows
  /// at or past `covered` are the owner's delta and must be scanned
  /// exactly alongside the snapshot. A null `tree` (failed compile)
  /// covers nothing.
  struct View {
    const PackedRTree* tree = nullptr;
    int64_t covered = 0;
  };

  void Invalidate() {
    std::lock_guard<std::mutex> lock(mutex_);
    stale_ = true;
  }

  /// Returns the current snapshot, compiling it with `compile()` first if
  /// a mutation invalidated it (or none was built yet). The reference
  /// stays valid until the next Get/TryGet after an Invalidate(). `rows`
  /// is the owner's row count the compile covers (see View::covered);
  /// owners that never consult coverage (the subsequence index) may omit
  /// it.
  template <typename CompileFn>
  const PackedRTree& Get(CompileFn&& compile, int64_t rows = -1) const {
    const View view = TryGet(compile, /*can_fail=*/false, rows);
    SIMQ_CHECK(view.tree != nullptr);
    return *view.tree;
  }

  /// Degradation-aware Get: the view's tree is null when the compile fails
  /// (today that means the "packed.compile" failpoint fired; a real
  /// allocation failure would land here too if compiles ever became
  /// fallible), and the caller exact-scans the rows instead. A cached
  /// snapshot that is still fresh is returned without re-evaluating the
  /// failpoint -- only compiles can fail, not reuse.
  template <typename CompileFn>
  View TryGet(CompileFn&& compile, bool can_fail = true,
              int64_t rows = -1) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stale_ || snapshot_ == nullptr) {
      if (can_fail && SIMQ_FAILPOINT_FIRED("packed.compile")) {
        return View{};
      }
      snapshot_ = compile();
      covered_ = rows;
      stale_ = false;
    }
    return View{snapshot_.get(), std::max<int64_t>(covered_, 0)};
  }

  /// Installs an externally compiled snapshot covering the owner's first
  /// `rows` rows, marking the cache fresh. Recompaction publish uses this
  /// to swap in the new generation's snapshot; the caller must hold the
  /// owner's exclusive lock (same requirement as Invalidate), so no
  /// reader can still be traversing the snapshot being replaced.
  void Install(std::unique_ptr<PackedRTree> snapshot, int64_t rows) {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_ = std::move(snapshot);
    covered_ = rows;
    stale_ = snapshot_ == nullptr;
  }

  /// True when the next Get/TryGet returns the cached snapshot without
  /// compiling.
  bool fresh() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return !stale_ && snapshot_ != nullptr;
  }

  /// Number of owner rows the cached snapshot covers (View::covered of
  /// the next TryGet that does not compile). 0 when no fresh snapshot
  /// exists, or when the last compile did not state its row count.
  int64_t covered() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return (stale_ || snapshot_ == nullptr || covered_ < 0) ? 0 : covered_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::unique_ptr<PackedRTree> snapshot_;
  mutable int64_t covered_ = 0;
  mutable bool stale_ = true;
};

}  // namespace simq

#endif  // SIMQ_INDEX_PACKED_RTREE_H_
