#include "core/sharded_relation.h"

#include <algorithm>
#include <utility>

#include "util/env.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace simq {
namespace {

// The capacity a column reaches when it grows by doubling from one row:
// the smallest power of two at least `rows`.
int64_t DoublingCapacity(int64_t rows) {
  int64_t capacity = 1;
  while (capacity < rows) {
    capacity *= 2;
  }
  return capacity;
}

}  // namespace

ShardingOptions ShardingOptions::FromEnv() {
  ShardingOptions options;
  // A set-but-invalid SIMQ_SHARDS aborts with a clear message instead of
  // silently running unsharded (util/env.h).
  options.num_shards =
      PositiveIntFromEnv("SIMQ_SHARDS", options.num_shards);
  return options;
}

RelationShard::RelationShard(int dims, int max_entries)
    : dims_(dims), max_entries_(max_entries) {}

std::unique_ptr<PackedRTree> RelationShard::CompileSnapshot(
    int64_t rows) const {
  std::vector<double> points;
  std::vector<int64_t> ids;
  points.reserve(static_cast<size_t>(rows * dims_));
  ids.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    if (!alive(r)) {
      continue;
    }
    const double* point = points_.data() + r * dims_;
    points.insert(points.end(), point, point + dims_);
    ids.push_back(global_id(r));
  }
  return std::make_unique<PackedRTree>(dims_, max_entries_, points, points,
                                       ids);
}

ShardedRelation::ShardedRelation(int dims, int max_entries,
                                 const ShardingOptions& options) {
  const int num_shards = std::max(1, options.num_shards);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<RelationShard>(dims, max_entries));
  }
}

uint64_t ShardedRelation::epoch() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->epoch_;
  }
  return sum;
}

uint64_t ShardedRelation::generation() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->generation_;
  }
  return sum;
}

int64_t ShardedRelation::delta_rows() const {
  int64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->size() - shard->packed_peek().covered;
  }
  return sum;
}

int64_t ShardedRelation::pending_tombstones() const {
  int64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->pending_tombstones_;
  }
  return sum;
}

int64_t ShardedRelation::delta_pressure() const {
  int64_t max = 0;
  for (const auto& shard : shards_) {
    max = std::max(max, shard->mutations_since_publish_);
  }
  return max;
}

void ShardedRelation::Append(const RowData& row) {
  const int64_t global = size();
  const int target = static_cast<int>(global % num_shards());
  RelationShard& shard = *shards_[static_cast<size_t>(target)];
  shard_of_.push_back(target);
  local_of_.push_back(shard.size());
  shard.global_ids_.push_back(global);
  shard.alive_.push_back(1);
  shard.points_.insert(shard.points_.end(), row.point.begin(),
                       row.point.end());
  shard.store_.Append(row.features, row.normal_values);
  ++shard.mutations_since_publish_;
  ++shard.epoch_;
}

bool ShardedRelation::Delete(int64_t g) {
  RelationShard& shard = *shards_[static_cast<size_t>(shard_of(g))];
  uint8_t& alive = shard.alive_[static_cast<size_t>(local_of(g))];
  if (alive == 0) {
    return false;
  }
  alive = 0;
  ++dead_;
  ++shard.pending_tombstones_;
  ++shard.mutations_since_publish_;
  ++shard.epoch_;
  return true;
}

void ShardedRelation::BulkLoad(int64_t count, const LoadFn& load_row) {
  if (count <= 0) {
    return;
  }
  const int64_t base = size();
  const int num = num_shards();

  // Partition the batch by hash: per-shard global-id lists, each
  // ascending.
  std::vector<std::vector<int64_t>> shard_ids(static_cast<size_t>(num));
  for (int64_t g = base; g < base + count; ++g) {
    shard_ids[static_cast<size_t>(g % num)].push_back(g);
  }

  // Locator entries are written up front (they depend only on the
  // partition, not on the shard builds).
  shard_of_.resize(static_cast<size_t>(base + count));
  local_of_.resize(static_cast<size_t>(base + count));
  for (int s = 0; s < num; ++s) {
    const int64_t existing = shards_[static_cast<size_t>(s)]->size();
    const std::vector<int64_t>& ids = shard_ids[static_cast<size_t>(s)];
    for (size_t i = 0; i < ids.size(); ++i) {
      shard_of_[static_cast<size_t>(ids[i])] = s;
      local_of_[static_cast<size_t>(ids[i])] =
          existing + static_cast<int64_t>(i);
    }
  }

  // Fill every shard in parallel: derived-data computation and the store
  // fill run inside the shard task, so the load scales with
  // min(num_shards, pool threads). Each task writes only its own shard
  // (load_row only reads), so the result is deterministic and identical
  // to a serial load.
  ThreadPool::Global().ParallelFor(
      0, num, /*min_grain=*/1, [&](int64_t /*block*/, int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) {
          RelationShard& shard = *shards_[static_cast<size_t>(s)];
          const std::vector<int64_t>& ids =
              shard_ids[static_cast<size_t>(s)];
          if (ids.empty()) {
            continue;
          }
          // Every column is allocated once, at the capacity that growing
          // row by row would end at, so later inserts keep the same
          // headroom. Doubling a dozen columns in turn would leave their
          // discarded copies as holes in the heap, and how later
          // allocations fill them moves the peak resident size from one
          // run to the next.
          const int64_t rows =
              DoublingCapacity(shard.size() + static_cast<int64_t>(ids.size()));
          shard.global_ids_.reserve(static_cast<size_t>(rows));
          shard.alive_.reserve(static_cast<size_t>(rows));
          shard.points_.reserve(static_cast<size_t>(rows * shard.dims_));
          shard.store_.Reserve(rows);
          for (const int64_t g : ids) {
            const RowData row = load_row(g);
            shard.global_ids_.push_back(g);
            shard.alive_.push_back(1);
            shard.points_.insert(shard.points_.end(), row.point.begin(),
                                 row.point.end());
            shard.store_.Append(row.features, row.normal_values);
          }
          // A bulk load is the one mutation that stales the compiled
          // artifacts; the next compile covers every row, so no delta
          // pressure accrues.
          shard.packed_.Invalidate();
          shard.codes_.Invalidate();
          shard.mutations_since_publish_ = 0;
          ++shard.epoch_;
        }
      });
}

Status ShardedRelation::BuildRecompaction(
    std::vector<RelationShard::Recompaction>* out) const {
  SIMQ_RETURN_IF_FAILPOINT("recompact.build");
  out->clear();
  out->reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    const RelationShard& shard = *shard_ptr;
    RelationShard::Recompaction built;
    built.build_rows = shard.size();
    built.packed = shard.CompileSnapshot(built.build_rows);
    built.shed = built.build_rows - built.packed->size();
    // Codes only where a filtered query compiled them: elsewhere the
    // publish installs none, the cache stays empty, and the next filtered
    // query compiles them lazily.
    if (shard.codes_peek().artifact != nullptr && built.build_rows > 0) {
      built.codes = std::make_unique<QuantizedCodes>(shard.store_);
    }
    out->push_back(std::move(built));
  }
  return Status::Ok();
}

Status ShardedRelation::PublishRecompaction(
    std::vector<RelationShard::Recompaction> built) {
  SIMQ_CHECK_EQ(static_cast<int>(built.size()), num_shards());
  SIMQ_RETURN_IF_FAILPOINT("recompact.publish.before");
  for (size_t s = 0; s < shards_.size(); ++s) {
    RelationShard& shard = *shards_[s];
    RelationShard::Recompaction& plan = built[s];
    if (s > 0) {
      // Between-shard boundary: a crash here leaves some shards on the
      // new generation and the rest on the old one -- each shard's
      // artifacts stay self-consistent, so answers are unaffected.
      SIMQ_RETURN_IF_FAILPOINT("recompact.publish.mid");
    }
    // Rows appended since the build are past the new coverage: they stay
    // the snapshot's delta, and tombstones keep filtering at read time.
    shard.packed_.Install(std::move(plan.packed), plan.build_rows);
    shard.codes_.Install(std::move(plan.codes), plan.build_rows);
    // `shed` counts every dead row of the build, including those the
    // previous generation already omitted.
    shard.pending_tombstones_ -= plan.shed - shard.shed_;
    shard.shed_ = plan.shed;
    shard.mutations_since_publish_ = shard.size() - plan.build_rows;
    ++shard.generation_;
  }
  SIMQ_RETURN_IF_FAILPOINT("recompact.publish.after");
  return Status::Ok();
}

}  // namespace simq
