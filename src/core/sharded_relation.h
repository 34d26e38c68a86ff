/// Horizontal sharding of a relation's data plane.
///
/// A `ShardedRelation` partitions a relation's derived data -- the columnar
/// FeatureStore, the feature points, and the packed R-tree over them --
/// into N `RelationShard`s. The shard stores are the only copy of a row's
/// normal form, spectrum and statistics; the relation's `Record`s keep
/// just id, name and raw values (core/database.h). Record identity stays
/// global: ids are dense in insertion order exactly as in the unsharded
/// engine, shard trees store *global* ids, and a locator (two flat
/// arrays, global id -> (shard, local row)) maps between the two spaces
/// in O(1). Because every per-record computation (normal form, spectrum,
/// distance kernels) is a pure function of that record alone,
/// partitioning cannot change any distance the engine computes -- the
/// scatter-gather drivers in core/database.cc therefore return answers
/// bit-identical to the unsharded engine (see DESIGN.md "Sharded
/// execution").
///
/// Partitioning: shard = global id mod N, for bulk loads and inserts
/// alike. Balanced for the dense id sequence; inserts keep rotating
/// across shards.
///
/// Mutations follow the unsharded contract: callers must hold exclusive
/// access (the query service's writer lock). A mutation bumps only the
/// epoch of the shard it touched. The relation epoch reported to the
/// service layer is the sum of the shard epochs: monotone, and it changes
/// whenever any shard changes, so result-cache keys and snapshot
/// isolation remain correct (service/query_service.h).
///
/// One index per shard (DESIGN.md "Delta layer & MVCC generations"): the
/// packed snapshot. A shard keeps no mutable tree; its snapshot is
/// compiled by one helper that STR-bulk-loads a temporary RTree over the
/// live rows of a row prefix [0, n), packs it, and drops the temporary.
/// The first index query after a bulk load compiles it lazily with
/// n = size(); recompaction compiles the next generation's with n frozen
/// at build time. Mutations never invalidate compiled artifacts: the
/// packed snapshot and quantized codes each cover a row prefix
/// [0, covered) frozen at their compile; rows at or past an artifact's
/// coverage are that artifact's *delta* and the scatter-gather drivers
/// scan them exactly. Deletes are tombstones in a per-shard aliveness
/// bitmap, filtered on every read path and shed from the snapshot at
/// recompaction. `BuildRecompaction` (under a shared lock: readers keep
/// running, the store is frozen) compiles a fresh live-only snapshot per
/// shard, plus fresh codes for each shard whose codes a filtered query
/// had compiled (a shard no filtered query reads gets none, and compiles
/// them lazily if one ever does); `PublishRecompaction` (under the
/// exclusive lock, brief) installs them at their build coverage -- rows
/// appended since the build stay delta -- and bumps the shard
/// *generation*, a second monotone counter, summed like the epoch, that
/// counts published snapshot generations.
///
/// Thread-safety: all const accessors are safe under concurrent readers
/// (each artifact cache takes its own mutex; util/artifact_cache.h).
/// `Append`/`BulkLoad`/`Delete`/`PublishRecompaction` require exclusive
/// access; `BuildRecompaction` requires shared access (no concurrent
/// mutation).

#ifndef SIMQ_CORE_SHARDED_RELATION_H_
#define SIMQ_CORE_SHARDED_RELATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/feature_store.h"
#include "filter/quantized_codes.h"
#include "index/packed_rtree.h"
#include "ts/feature.h"
#include "util/artifact_cache.h"
#include "util/logging.h"
#include "util/status.h"

namespace simq {

/// How a Database partitions each relation's data plane.
struct ShardingOptions {
  /// Number of horizontal shards per relation; 1 = the unsharded engine
  /// (a single shard owning everything). Values below 1 clamp to 1.
  int num_shards = 1;

  /// Options with num_shards taken from the SIMQ_SHARDS environment
  /// variable when it is set to a positive integer (benches and the shell
  /// use this; library callers pass options explicitly).
  static ShardingOptions FromEnv();
};

/// One horizontal shard: a FeatureStore slice, that slice's feature
/// points, and two lazily compiled artifacts over them: a packed R-tree
/// (storing global record ids) and quantized codes. Rows are indexed by
/// *local* position; `global_id(local)` maps back to the record id.
class RelationShard {
 public:
  /// `max_entries` is the node fanout of the shard's packed trees
  /// (at most PackedRTree::kMaxFanout; Database checks it).
  RelationShard(int dims, int max_entries);

  /// One shard's freshly compiled recompaction artifacts, built under a
  /// shared lock and handed to PublishRecompaction under the exclusive
  /// lock.
  struct Recompaction {
    std::unique_ptr<PackedRTree> packed;    // live rows of [0, build_rows)
    std::unique_ptr<QuantizedCodes> codes;  // all rows of [0, build_rows)
    int64_t build_rows = 0;   // shard size frozen at build time
    int64_t shed = 0;         // dead rows omitted from `packed`
  };

  /// A compiled artifact and the shard rows it covers.
  using PackedView = ArtifactCache<PackedRTree>::View;
  using CodesView = ArtifactCache<QuantizedCodes>::View;

  RelationShard(const RelationShard&) = delete;
  RelationShard& operator=(const RelationShard&) = delete;

  /// Columnar derived data of this shard's records, local row order.
  const FeatureStore& store() const { return store_; }
  /// The shard's packed R-tree (entry ids are global) and the rows it
  /// covers, compiled over every live row if a bulk load staled it.
  /// Appends and deletes leave it in place and grow its delta (the rows
  /// past the coverage). A failed compile (the "packed.compile"
  /// failpoint, standing in for any future real failure) gives an empty
  /// view: no tree, nothing covered, so the query's delta scan
  /// exact-checks the whole shard. Read once per query, so the query sees
  /// one consistent (tree, coverage) pair.
  PackedView packed_view() const {
    return packed_.Get([this] { return CompileSnapshot(size()); }, size());
  }
  /// The packed view without compiling: empty unless the tree is built.
  PackedView packed_peek() const {
    return packed_.Peek();
  }
  /// The shard's quantized codes (filter/quantized_codes.h), which cover
  /// their own size() rows, compiled over every row if none are built. A
  /// failed compile (the "filter.compile" failpoint) gives an empty view,
  /// and the query runs the exact kernels instead.
  CodesView codes_view() const {
    return codes_.Get(
        [this] { return std::make_unique<QuantizedCodes>(store_); }, size());
  }
  /// The codes without compiling: empty unless they are built. The
  /// EXPLAIN estimator and the fold look through it, so neither does (or
  /// fails) a code build.
  CodesView codes_peek() const {
    return codes_.Peek();
  }

  int64_t size() const { return static_cast<int64_t>(global_ids_.size()); }
  int64_t global_id(int64_t local) const {
    return global_ids_[static_cast<size_t>(local)];
  }
  /// Monotone per-shard mutation counter (see file comment).
  uint64_t epoch() const { return epoch_; }
  /// Monotone count of published recompaction generations (file comment).
  uint64_t generation() const { return generation_; }

  /// Tombstone filter: false once local row `local` has been deleted.
  /// Every read path must drop dead rows; their store/code rows stay in
  /// place (ids are dense and rows never move), and recompaction sheds
  /// them from the next snapshot.
  bool alive(int64_t local) const {
    return alive_[static_cast<size_t>(local)] != 0;
  }
  /// Deleted rows the last recompaction publish has not shed.
  int64_t pending_tombstones() const { return pending_tombstones_; }
  /// Mutations (inserts + deletes) applied since the last recompaction
  /// publish -- the delta-pressure signal the service thresholds on.
  int64_t mutations_since_publish() const { return mutations_since_publish_; }

 private:
  friend class ShardedRelation;

  /// The one way a shard's packed tree is built: STR-bulk-loads a
  /// temporary RTree over the live rows of [0, rows) in local row order,
  /// compiles it, and drops the temporary.
  std::unique_ptr<PackedRTree> CompileSnapshot(int64_t rows) const;

  int dims_;
  int max_entries_;
  FeatureStore store_;
  std::vector<int64_t> global_ids_;  // local row -> global record id
  std::vector<uint8_t> alive_;       // local row -> 0 once deleted
  std::vector<double> points_;       // local row-major feature points
  ArtifactCache<PackedRTree> packed_{"packed.compile"};
  ArtifactCache<QuantizedCodes> codes_{"filter.compile"};
  uint64_t epoch_ = 0;
  uint64_t generation_ = 0;
  int64_t pending_tombstones_ = 0;
  int64_t shed_ = 0;  // dead rows the published generation omits
  int64_t mutations_since_publish_ = 0;
};

class ShardedRelation {
 public:
  /// Derived data of one record: what Append and BulkLoad copy into the
  /// owning shard's store and points. A temporary -- the shard keeps the
  /// only copy.
  struct RowData {
    SeriesFeatures features;            // mean, std, normal-form spectrum
    std::vector<double> normal_values;  // Goldin-Kanellakis normal form
    std::vector<double> point;          // feature point for the shard tree
  };
  /// Computes one record's derived data. BulkLoad invokes it from
  /// concurrent shard tasks, each global id exactly once; the callback
  /// must not mutate shared state (it normally only reads that id's raw
  /// values).
  using LoadFn = std::function<RowData(int64_t global_id)>;

  ShardedRelation(int dims, int max_entries, const ShardingOptions& options);

  ShardedRelation(const ShardedRelation&) = delete;
  ShardedRelation& operator=(const ShardedRelation&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const RelationShard& shard(int s) const { return *shards_[static_cast<size_t>(s)]; }

  /// Total records across shards (== the relation's record count).
  int64_t size() const { return static_cast<int64_t>(shard_of_.size()); }
  /// Relation epoch: the sum of the shard epochs. Monotone; changes on
  /// every mutation of any shard.
  uint64_t epoch() const;
  /// Relation generation: the sum of the shard generations. Monotone;
  /// changes on every recompaction publish of any shard.
  uint64_t generation() const;

  /// Tombstone filter by global id.
  bool alive(int64_t g) const {
    return shards_[static_cast<size_t>(shard_of(g))]->alive(local_of(g));
  }
  /// Live records across shards.
  int64_t live_size() const { return size() - dead_; }
  /// Rows not covered by any shard's packed snapshot (EXPLAIN
  /// `delta_rows`).
  int64_t delta_rows() const;
  /// Deleted rows not yet shed by any shard's recompaction publish.
  int64_t pending_tombstones() const;
  /// Largest per-shard mutations_since_publish -- the recompaction
  /// trigger signal.
  int64_t delta_pressure() const;

  /// Locator: which shard holds global id `g`, and at which local row.
  int shard_of(int64_t g) const { return shard_of_[static_cast<size_t>(g)]; }
  int64_t local_of(int64_t g) const { return local_of_[static_cast<size_t>(g)]; }

  /// Row accessors by global id (one locator hop; the scan drivers iterate
  /// shards locally instead and never pay it).
  const double* SpectrumRow(int64_t g) const {
    const RelationShard& s = *shards_[static_cast<size_t>(shard_of(g))];
    return s.store().SpectrumRow(local_of(g));
  }
  const double* NormalRow(int64_t g) const {
    const RelationShard& s = *shards_[static_cast<size_t>(shard_of(g))];
    return s.store().NormalRow(local_of(g));
  }
  double mean(int64_t g) const {
    const RelationShard& s = *shards_[static_cast<size_t>(shard_of(g))];
    return s.store().mean(local_of(g));
  }
  double std_dev(int64_t g) const {
    const RelationShard& s = *shards_[static_cast<size_t>(shard_of(g))];
    return s.store().std_dev(local_of(g));
  }

  /// Routes one new record (global id == size()) to its shard (global id
  /// mod num_shards()): appends to the shard store and feature points
  /// and bumps that shard's epoch. The shard's compiled artifacts stay
  /// valid (the new row is their delta). Caller holds exclusive access.
  void Append(const RowData& row);

  /// Parallel per-shard bulk load of `count` records with global ids
  /// [size(), size() + count). Partitions the ids by hash, then fills
  /// every shard concurrently (ThreadPool::Global()): each shard task
  /// computes its records' derived data via `load_row` and fills the
  /// shard store and points in ascending global-id order.
  /// Each loaded shard's compiled artifacts are invalidated -- its first
  /// index query compiles the packed tree over every row -- and its epoch
  /// is bumped once. Caller holds exclusive access.
  void BulkLoad(int64_t count, const LoadFn& load_row);

  /// Tombstones global id `g` (false when it is already dead): marks the
  /// row dead, bumps the owning shard's epoch, and leaves every compiled
  /// artifact in place (read paths filter on alive()). Caller holds
  /// exclusive access.
  bool Delete(int64_t g);

  /// Compiles fresh recompaction artifacts for every shard: a packed
  /// snapshot of the live rows (RelationShard's one compile helper) and,
  /// only where the shard's codes are built, new codes. Requires shared
  /// access -- concurrent readers are fine, the store must not grow
  /// underneath. Fails only at the "recompact.build" failpoint.
  Status BuildRecompaction(std::vector<RelationShard::Recompaction>* out) const;

  /// Publishes `built` artifacts: per shard, installs the snapshot and
  /// codes at their build coverage (rows appended since the build stay
  /// delta), bumps the shard generation, and resets the delta-pressure
  /// counter to those rows. Requires exclusive access. The
  /// "recompact.publish.before" / ".mid" / ".after" failpoints bracket
  /// the swap (mid fires between shards).
  Status PublishRecompaction(std::vector<RelationShard::Recompaction> built);

 private:
  std::vector<std::unique_ptr<RelationShard>> shards_;
  std::vector<int32_t> shard_of_;  // global id -> shard
  std::vector<int64_t> local_of_;  // global id -> local row within shard
  int64_t dead_ = 0;               // total tombstoned rows
};

}  // namespace simq

#endif  // SIMQ_CORE_SHARDED_RELATION_H_
