/// The reference R-tree: a pointer-based tree over runtime-dimensional
/// rectangles, kept to check the packed tree (index/packed_rtree.h), which
/// every query runs on. Nothing in the engine builds one; the tests
/// bulk-load it from the entries they pack and compare the two trees.
///
/// BulkLoad is Sort-Tile-Recursive loading (Leutenegger, Lopez and
/// Edgington, ICDE 1997) with the tiling the packed tree repeats, so the
/// two trees agree node for node. The traversals are the straightforward
/// recursive forms of the packed ones, with the same visit rules, so the
/// two also agree on every answer and node-access count. This is the
/// index substrate of [RM97] §4-5, with heap nodes in place of disk pages
/// and a node-access counter standing in for disk accesses (see
/// DESIGN.md):
///  * Search(region, affines): Algorithm 2 of [RM97] -- every node MBR and
///    leaf point is passed through the safe transformation's per-dimension
///    actions before being tested against the query's search region, which
///    is exactly "constructing the index I' for T(D) on the fly"
///    (Algorithm 1) without materializing it.
///  * SearchGeneric / JoinWith / NearestNeighbors: templated visitor
///    traversals. Pass any callable (lambda, function object) and the
///    predicate calls inline into the traversal loop. Callers that store
///    type-erased predicates can still pass a std::function -- it binds
///    to the template like any other callable -- but the traversal hot
///    paths carry no type-erasure of their own.
///  * NearestNeighbors(bound, affines, k, exact): branch-and-bound k-NN in
///    the style of [RKV95], generalized to transformed entries; candidates
///    are re-ranked by a caller-supplied exact distance so the index only
///    needs lower bounds.
///
/// Options::max_entries is also the engine's fanout setting: Database
/// takes an RTree::Options and passes max_entries to its packed trees.
///
/// Concurrent read traversals from multiple threads are safe: the
/// node-access counter is a relaxed atomic and nothing else mutates.
/// BulkLoad requires exclusive access.

#ifndef SIMQ_INDEX_RTREE_H_
#define SIMQ_INDEX_RTREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "geom/linear_transform.h"
#include "geom/rect.h"
#include "geom/search_region.h"
#include "index/knn_best_first.h"
#include "util/logging.h"

namespace simq {

class RTree {
 public:
  struct Options {
    int max_entries = 32;  // node fanout; at least 2
  };

  // Tree node, exposed read-only for the tests' structural comparisons.
  // Entries of a level-L node are child nodes of level L-1 (internal) or
  // data ids (leaves, level 0); rects[i] is the MBR of entry i.
  struct Node {
    bool is_leaf = true;
    int level = 0;  // 0 = leaf
    std::vector<Rect> rects;
    std::vector<std::unique_ptr<Node>> children;  // internal nodes only
    std::vector<int64_t> ids;                     // leaves only

    int num_entries() const { return static_cast<int>(rects.size()); }
  };

  explicit RTree(int dims);
  RTree(int dims, Options options);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Sort-Tile-Recursive bulk load (see the file comment). Requires an
  // empty tree; without a call, the tree is one empty leaf.
  void BulkLoad(std::vector<std::pair<Rect, int64_t>> entries);

  // Range search per Algorithm 2. `affines` (from LowerToFeatureSpace) is
  // the safe transformation applied to the data side; pass nullptr for the
  // identity. Appends matching ids to `results`.
  void Search(const SearchRegion& region, const std::vector<DimAffine>* affines,
              std::vector<int64_t>* results) const;

  // Generic traversal: visits subtrees whose MBR satisfies node_predicate
  // and emits leaf entries satisfying leaf_predicate. The templated form
  // inlines the callables into the traversal.
  template <typename NodePred, typename LeafPred, typename Emit>
  void SearchGeneric(NodePred&& node_predicate, LeafPred&& leaf_predicate,
                     Emit&& emit) const {
    SearchGenericImpl(root_.get(), node_predicate, leaf_predicate, emit);
  }

  // Synchronized-traversal spatial join with `other` (which may be this
  // tree: a self-join). Descends both trees in lockstep, pruning subtree
  // pairs whose MBRs fail `pair_predicate`, and emits (id, other_id) for
  // every leaf-entry pair whose rectangles satisfy it. The predicate must
  // be conservative on MBRs: if any contained pair qualifies, the MBR pair
  // must qualify. Self-joins emit both orientations and (id, id) pairs;
  // callers filter as needed.
  template <typename PairPred, typename Emit>
  void JoinWith(const RTree& other, PairPred&& pair_predicate,
                Emit&& emit) const {
    SIMQ_CHECK_EQ(dims_, other.dims_);
    JoinWithImpl(root_.get(), other.root_.get(), other, pair_predicate, emit);
  }

  // Branch-and-bound k-nearest neighbors under a transformation. Results
  // are (id, exact_distance) pairs ordered by increasing exact distance,
  // where exact_distance comes from the caller's callback (which must be
  // >= the feature-space lower bound, e.g. a full-spectrum distance).
  // `initial_bound` caps the search as if k results at that distance
  // already exist (cross-shard pruning; see index/knn_best_first.h);
  // +infinity disables the cap.
  template <typename ExactFn>
  std::vector<std::pair<int64_t, double>> NearestNeighbors(
      const NnLowerBound& bound, const std::vector<DimAffine>* affines, int k,
      ExactFn&& exact_distance,
      double initial_bound = std::numeric_limits<double>::infinity()) const {
    return NearestNeighborsImpl(bound, affines, k, exact_distance,
                                initial_bound);
  }

  int dims() const { return dims_; }
  int64_t size() const { return size_; }
  int height() const { return root_->level + 1; }
  int64_t node_count() const { return node_count_; }
  const Node* root() const { return root_.get(); }

  // Node-access accounting: number of nodes touched by searches since the
  // last reset. The in-memory proxy for the paper's disk accesses.
  // Maintained with relaxed atomics so concurrent read traversals can
  // share a tree; see DESIGN.md "Node-access accounting".
  void ResetNodeAccesses() const {
    node_accesses_.store(0, std::memory_order_relaxed);
  }
  int64_t node_accesses() const {
    return node_accesses_.load(std::memory_order_relaxed);
  }

 private:
  struct PendingEntry {
    Rect rect;
    int64_t id = -1;                  // valid when child == nullptr
    std::unique_ptr<Node> child;      // valid for internal entries
  };

  void AddEntryToNode(Node* node, PendingEntry entry);
  Rect NodeMbr(const Node* node) const;
  void SearchNode(const Node* node, const SearchRegion& region,
                  const std::vector<DimAffine>* affines,
                  std::vector<int64_t>* results) const;

  void CountNodeAccess() const {
    node_accesses_.fetch_add(1, std::memory_order_relaxed);
  }

  template <typename NodePred, typename LeafPred, typename Emit>
  void SearchGenericImpl(const Node* node, NodePred& node_predicate,
                         LeafPred& leaf_predicate, Emit& emit) const {
    CountNodeAccess();
    if (node->is_leaf) {
      for (int i = 0; i < node->num_entries(); ++i) {
        if (leaf_predicate(node->rects[static_cast<size_t>(i)],
                           node->ids[static_cast<size_t>(i)])) {
          emit(node->ids[static_cast<size_t>(i)]);
        }
      }
      return;
    }
    for (int i = 0; i < node->num_entries(); ++i) {
      if (node_predicate(node->rects[static_cast<size_t>(i)])) {
        SearchGenericImpl(node->children[static_cast<size_t>(i)].get(),
                          node_predicate, leaf_predicate, emit);
      }
    }
  }

  template <typename PairPred, typename Emit>
  void JoinWithImpl(const Node* a, const Node* b, const RTree& other,
                    PairPred& pair_predicate, Emit& emit) const {
    CountNodeAccess();
    if (&other != this || a != b) {
      other.CountNodeAccess();
    }
    if (a->is_leaf && b->is_leaf) {
      for (int i = 0; i < a->num_entries(); ++i) {
        for (int j = 0; j < b->num_entries(); ++j) {
          if (pair_predicate(a->rects[static_cast<size_t>(i)],
                             b->rects[static_cast<size_t>(j)])) {
            emit(a->ids[static_cast<size_t>(i)],
                 b->ids[static_cast<size_t>(j)]);
          }
        }
      }
      return;
    }
    // Descend the deeper (or only internal) side so both reach the leaf
    // level together.
    if (!a->is_leaf && (b->is_leaf || a->level >= b->level)) {
      const Rect b_mbr = other.NodeMbr(b);
      for (int i = 0; i < a->num_entries(); ++i) {
        if (pair_predicate(a->rects[static_cast<size_t>(i)], b_mbr)) {
          JoinWithImpl(a->children[static_cast<size_t>(i)].get(), b, other,
                       pair_predicate, emit);
        }
      }
      return;
    }
    const Rect a_mbr = NodeMbr(a);
    for (int j = 0; j < b->num_entries(); ++j) {
      if (pair_predicate(a_mbr, b->rects[static_cast<size_t>(j)])) {
        JoinWithImpl(a, b->children[static_cast<size_t>(j)].get(), other,
                     pair_predicate, emit);
      }
    }
  }

  // Best-first k-NN: the engine-shared driver (index/knn_best_first.h)
  // owns the queue, tie draining, and deterministic (distance, id)
  // ordering; this engine only expands nodes.
  template <typename ExactFn>
  std::vector<std::pair<int64_t, double>> NearestNeighborsImpl(
      const NnLowerBound& bound, const std::vector<DimAffine>* affines, int k,
      ExactFn& exact_distance, double initial_bound) const {
    const std::vector<DimAffine> identity(static_cast<size_t>(dims_),
                                          DimAffine{});
    const std::vector<DimAffine>& actions =
        affines != nullptr ? *affines : identity;
    const size_t queue_reserve =
        static_cast<size_t>(std::min<int64_t>(k, size_)) +
        static_cast<size_t>(height() + 1) *
            static_cast<size_t>(options_.max_entries) +
        64;
    Point point(static_cast<size_t>(dims_));
    return internal::BestFirstNearestNeighbors<const Node*>(
        root_.get(), k, queue_reserve,
        [&](const Node* node, auto&& push_node, auto&& push_entry) {
          CountNodeAccess();
          if (node->is_leaf) {
            for (int i = 0; i < node->num_entries(); ++i) {
              const Rect& rect = node->rects[static_cast<size_t>(i)];
              for (int d = 0; d < dims_; ++d) {
                point[static_cast<size_t>(d)] = rect.lo(d);
              }
              push_entry(bound.ToTransformedPoint(point, actions),
                         node->ids[static_cast<size_t>(i)]);
            }
          } else {
            for (int i = 0; i < node->num_entries(); ++i) {
              push_node(bound.ToTransformedRect(
                            node->rects[static_cast<size_t>(i)], actions),
                        node->children[static_cast<size_t>(i)].get());
            }
          }
        },
        exact_distance, initial_bound);
  }

  int dims_;
  Options options_;
  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
  int64_t node_count_ = 1;
  mutable std::atomic<int64_t> node_accesses_{0};
};

}  // namespace simq

#endif  // SIMQ_INDEX_RTREE_H_
