/// Best-first k-nearest-neighbor driver shared by RTree and PackedRTree.
///
/// The parity guarantees of the packed tree (identical results AND
/// identical node-access counts vs the RTree it was compiled from) depend
/// on both trees running exactly this control flow, so it exists once and
/// the trees supply only node expansion:
///
///  * Pops from the MINDIST priority queue arrive in nondecreasing
///    priority (children bound no tighter than their parent, exact
///    distances no tighter than their lower bound), so resolved entries
///    stream out sorted by distance and results[k-1] is the running k-th
///    distance.
///  * The loop keeps draining while the queue top is <= that distance, so
///    every boundary tie is collected; the final (distance, id) sort and
///    cut to k make tie-breaking deterministic (smaller ids win).
///  * A node is therefore popped iff its MINDIST is <= the final k-th
///    distance -- a set independent of heap tie order and of the tree
///    layout, which is what keeps the node-access counters equal.
///
/// `queue_reserve` sizes the queue's first allocation; callers keep it
/// within their entry count plus one root-to-leaf frontier.
///
/// `expand(node, push_node, push_entry)` must count the node access and
/// push every child subtree (lower bound, child handle) or leaf entry
/// (lower bound, data id); `exact_distance(id)` upgrades an entry's bound
/// when it first surfaces. It returns a double, or a std::optional<double>
/// that is empty for an entry the caller excludes (a deleted row, or one
/// a predicate rejects), and that entry is dropped. Every distance,
/// +infinity included, ranks by the same rules.
///
/// `initial_bound` supports cross-shard pruning (core/database.cc's
/// scatter-gather kNN): the driver behaves as if k results at that
/// distance already exist, so subtrees with MINDIST strictly above it are
/// never expanded. Candidates exactly AT the bound are still drained --
/// ties at the global k-th distance may be resolved toward a smaller id
/// in a later shard, so discarding them would break the deterministic
/// tie contract. +infinity (the default) disables the cap. Thread-safe:
/// the driver touches no shared state beyond what `expand` does.

#ifndef SIMQ_INDEX_KNN_BEST_FIRST_H_
#define SIMQ_INDEX_KNN_BEST_FIRST_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace simq {
namespace internal {

template <typename NodeHandle, typename ExpandFn, typename ExactFn>
std::vector<std::pair<int64_t, double>> BestFirstNearestNeighbors(
    NodeHandle root, int k, size_t queue_reserve, ExpandFn&& expand,
    ExactFn&& exact_distance,
    double initial_bound = std::numeric_limits<double>::infinity()) {
  SIMQ_CHECK_GT(k, 0);
  struct Item {
    double priority;
    bool is_node;
    NodeHandle node;  // valid for node items
    int64_t id;       // valid for entry items
    bool resolved;    // entry with exact distance computed
  };
  const auto cmp = [](const Item& a, const Item& b) {
    return a.priority > b.priority;
  };
  std::vector<Item> storage;
  storage.reserve(queue_reserve);
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> queue(
      cmp, std::move(storage));
  queue.push(Item{0.0, true, root, -1, false});

  std::vector<std::pair<int64_t, double>> results;
  // Callers bound queue_reserve by the tree's entry count, which k (up to
  // INT_MAX from query text) need not respect.
  results.reserve(std::min(static_cast<size_t>(k), queue_reserve));
  const auto push_node = [&](double priority, NodeHandle child) {
    queue.push(Item{priority, true, child, -1, false});
  };
  const auto push_entry = [&](double priority, int64_t id) {
    queue.push(Item{priority, false, NodeHandle{}, id, false});
  };
  while (!queue.empty()) {
    const Item item = queue.top();
    if (static_cast<int>(results.size()) >= k) {
      // Stop past the k-th distance. Ties exactly at it are drained so
      // the cut is id-deterministic.
      if (item.priority > results[static_cast<size_t>(k - 1)].second) {
        break;
      }
    } else if (item.priority > initial_bound) {
      // Fewer than k local results, but the caller already holds k
      // results at `initial_bound` or better (cross-shard pruning):
      // nothing past the bound can enter the merged top k. Ties AT the
      // bound are still drained -- see the file comment. Note the
      // invariant this break maintains: every resolved result was popped
      // while its priority passed the active cut, so results[k-1].second
      // can never exceed initial_bound -- once k results exist, the
      // branch above is automatically at least as tight as the bound.
      break;
    }
    queue.pop();
    if (item.is_node) {
      expand(item.node, push_node, push_entry);
    } else if (!item.resolved) {
      // First pop of an entry: upgrade the feature-space bound to the
      // exact distance and re-queue (unless the caller excludes it); when
      // it surfaces again it is final.
      const std::optional<double> distance = exact_distance(item.id);
      if (distance.has_value()) {
        queue.push(Item{*distance, false, NodeHandle{}, item.id, true});
      }
    } else {
      results.emplace_back(item.id, item.priority);
    }
  }
  std::sort(results.begin(), results.end(),
            [](const std::pair<int64_t, double>& a,
               const std::pair<int64_t, double>& b) {
              if (a.second != b.second) {
                return a.second < b.second;
              }
              return a.first < b.first;
            });
  if (static_cast<int>(results.size()) > k) {
    results.resize(static_cast<size_t>(k));
  }
  return results;
}

}  // namespace internal
}  // namespace simq

#endif  // SIMQ_INDEX_KNN_BEST_FIRST_H_
