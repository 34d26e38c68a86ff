#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/logging.h"

namespace simq {

RTree::RTree(int dims) : RTree(dims, Options()) {}

RTree::RTree(int dims, Options options) : dims_(dims), options_(options) {
  SIMQ_CHECK_GT(dims_, 0);
  // Below 2 entries per node, an STR level never shrinks.
  SIMQ_CHECK_GE(options_.max_entries, 2);
  root_ = std::make_unique<Node>();
}

Rect RTree::NodeMbr(const Node* node) const {
  Rect mbr = Rect::Empty(dims_);
  for (const Rect& rect : node->rects) {
    mbr.ExpandToInclude(rect);
  }
  return mbr;
}

void RTree::AddEntryToNode(Node* node, PendingEntry entry) {
  node->rects.push_back(entry.rect);
  if (entry.child != nullptr) {
    SIMQ_DCHECK(!node->is_leaf);
    node->children.push_back(std::move(entry.child));
  } else {
    SIMQ_DCHECK(node->is_leaf);
    node->ids.push_back(entry.id);
  }
}

void RTree::BulkLoad(std::vector<std::pair<Rect, int64_t>> input) {
  SIMQ_CHECK_EQ(size_, 0) << "BulkLoad requires an empty tree";
  if (input.empty()) {
    return;
  }
  for (const auto& [rect, id] : input) {
    SIMQ_CHECK_EQ(rect.dims(), dims_);
  }

  std::vector<PendingEntry> entries(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    entries[i].rect = input[i].first;
    entries[i].id = input[i].second;
  }
  size_ = static_cast<int64_t>(input.size());

  // Sort-Tile-Recursive partitioning of entries into groups of at most
  // `capacity`, slicing one dimension at a time by MBR center (lo + hi).
  // PackedRTree's build repeats this tiling step for step.
  const int capacity = options_.max_entries;
  std::vector<std::vector<PendingEntry>> groups;
  std::function<void(std::vector<PendingEntry>, int)> tile =
      [&](std::vector<PendingEntry> items, int dim) {
        const int count = static_cast<int>(items.size());
        if (count <= capacity) {
          groups.push_back(std::move(items));
          return;
        }
        std::sort(items.begin(), items.end(),
                  [dim](const PendingEntry& a, const PendingEntry& b) {
                    return a.rect.lo(dim) + a.rect.hi(dim) <
                           b.rect.lo(dim) + b.rect.hi(dim);
                  });
        const int num_groups = (count + capacity - 1) / capacity;
        auto partition_evenly = [&](int parts, auto&& consume) {
          for (int p = 0; p < parts; ++p) {
            const int begin = static_cast<int>(
                static_cast<int64_t>(count) * p / parts);
            const int end = static_cast<int>(
                static_cast<int64_t>(count) * (p + 1) / parts);
            if (end > begin) {
              consume(std::vector<PendingEntry>(
                  std::make_move_iterator(items.begin() + begin),
                  std::make_move_iterator(items.begin() + end)));
            }
          }
        };
        if (dim >= dims_ - 1) {
          partition_evenly(num_groups, [&](std::vector<PendingEntry> group) {
            groups.push_back(std::move(group));
          });
          return;
        }
        const int slabs = std::max(
            1, static_cast<int>(std::ceil(std::pow(
                   static_cast<double>(num_groups),
                   1.0 / static_cast<double>(dims_ - dim)))));
        partition_evenly(slabs, [&](std::vector<PendingEntry> slab) {
          tile(std::move(slab), dim + 1);
        });
      };

  int level = 0;
  node_count_ = 0;
  while (true) {
    groups.clear();
    tile(std::move(entries), 0);
    std::vector<std::unique_ptr<Node>> nodes;
    nodes.reserve(groups.size());
    for (auto& group : groups) {
      auto node = std::make_unique<Node>();
      node->is_leaf = (level == 0);
      node->level = level;
      ++node_count_;
      for (PendingEntry& entry : group) {
        AddEntryToNode(node.get(), std::move(entry));
      }
      nodes.push_back(std::move(node));
    }
    if (nodes.size() == 1) {
      root_ = std::move(nodes[0]);
      return;
    }
    entries.clear();
    entries.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      entries[i].rect = NodeMbr(nodes[i].get());
      entries[i].child = std::move(nodes[i]);
    }
    ++level;
  }
}

void RTree::Search(const SearchRegion& region,
                   const std::vector<DimAffine>* affines,
                   std::vector<int64_t>* results) const {
  SIMQ_CHECK_EQ(region.dims(), dims_);
  if (results->capacity() == results->size()) {
    results->reserve(results->size() +
                     static_cast<size_t>(std::min<int64_t>(size_, 64)) + 1);
  }
  SearchNode(root_.get(), region, affines, results);
}

void RTree::SearchNode(const Node* node, const SearchRegion& region,
                       const std::vector<DimAffine>* affines,
                       std::vector<int64_t>* results) const {
  CountNodeAccess();
  if (node->is_leaf) {
    // Leaf entries are points (degenerate rects): test exact membership of
    // the transformed point. One scratch buffer serves the whole node.
    Point point(static_cast<size_t>(dims_));
    for (int i = 0; i < node->num_entries(); ++i) {
      const Rect& rect = node->rects[static_cast<size_t>(i)];
      for (int d = 0; d < dims_; ++d) {
        point[static_cast<size_t>(d)] = rect.lo(d);
      }
      const bool hit = affines == nullptr
                           ? region.ContainsPoint(point)
                           : region.ContainsTransformedPoint(point, *affines);
      if (hit) {
        results->push_back(node->ids[static_cast<size_t>(i)]);
      }
    }
    return;
  }
  for (int i = 0; i < node->num_entries(); ++i) {
    const Rect& rect = node->rects[static_cast<size_t>(i)];
    const bool overlap = affines == nullptr
                             ? region.IntersectsRect(rect)
                             : region.IntersectsTransformedRect(rect, *affines);
    if (overlap) {
      SearchNode(node->children[static_cast<size_t>(i)].get(), region, affines,
                 results);
    }
  }
}

}  // namespace simq
