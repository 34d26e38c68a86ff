/// The similarity database: named relations of equal-length time series,
/// each backed by an R-tree over normal-form DFT features (the "k-index" of
/// [AFS93]/[RM97] §4), plus the planner/executor for the query language L.
///
/// Each relation shard has exactly one index: a packed R-tree
/// (index/packed_rtree.h) STR-packed from the shard's live rows, plus an
/// exactly-scanned delta of the rows appended since that compile (see
/// core/sharded_relation.h). There is no mutable tree and no second
/// engine: when a compile fails, the shard's rows are all delta and the
/// query still answers exactly (DESIGN.md "Degradation matrix").
///
/// Execution strategies:
///  * Index (Algorithm 2): build the search rectangle (geom/search_region.h)
///    from the query's first k coefficients, traverse each shard's packed
///    R-tree applying the safe transformation to every MBR/point on the
///    fly, exact-check the shard's delta rows, then postprocess candidates
///    with the exact full-length frequency-domain distance (early
///    abandoning). By Lemma 1 this never produces false dismissals.
///  * Scan: early-abandoning sequential scan over the frequency-domain
///    relation (the paper's "good implementation" of the baseline), or a
///    full scan without abandoning (Table 1 method a). Scans and the
///    nested-loop sides of joins execute as batched columnar kernels over
///    the relation's FeatureStore, parallelized over record blocks (see
///    DESIGN.md "Columnar execution").
/// The planner (strategy kAuto) uses the index whenever the distance mode is
/// normal-form and the transformation has a safe spectral lowering;
/// everything else falls back to scanning, including arbitrary non-spectral
/// rules (which are applied in the time domain).

#ifndef SIMQ_CORE_DATABASE_H_
#define SIMQ_CORE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/feature_store.h"
#include "core/query.h"
#include "core/sharded_relation.h"
#include "core/transformation.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "ts/feature.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace simq {

// One stored series as it was inserted. Everything derived from `raw` --
// normal form, spectrum, mean/std, feature point -- lives once, in the
// owning shard's FeatureStore; read it by global id through
// Relation::sharded() (SpectrumRow, NormalRow, mean, std_dev).
struct Record {
  int64_t id = 0;
  std::string name;
  std::vector<double> raw;  // original values
};

// A unary relation of series. All members must have one common length
// (established by the first insert); cross-length similarity is expressed
// through time-warp transformations, not mixed relations.
//
// The relation splits each series in two, with no field held twice: the
// global record list (records(): dense insertion-order ids, names, raw
// values -- what snapshots save and the raw-mode distance reads) and a
// sharded data plane holding everything derived from the raw values
// (sharded(): per-shard FeatureStore columns, feature points and packed
// R-tree; see core/sharded_relation.h). With the default ShardingOptions
// this is one shard and behaves exactly like the pre-sharding engine.
class Relation {
 public:
  // `max_entries` is the node fanout of the shards' packed trees.
  Relation(std::string name, const FeatureConfig& config, int max_entries,
           const ShardingOptions& sharding);

  const std::string& name() const { return name_; }
  int64_t size() const { return static_cast<int64_t>(records_.size()); }
  int series_length() const { return series_length_; }
  const Record& record(int64_t id) const;
  const std::vector<Record>& records() const { return records_; }

  // The sharded data plane: per-shard columnar stores and indexes, the
  // global-id locator, and the rolled-up relation epoch.
  const ShardedRelation& sharded() const { return data_; }

  // Monotone data version: the sum of the shard epochs, bumped by every
  // mutation. The query service keys result-cache entries on it.
  uint64_t epoch() const { return data_.epoch(); }

  // Single-shard conveniences, kept for tests/benches that inspect the
  // index or the columnar store directly. Valid only when the relation is
  // unsharded (num_shards == 1, the default); checked.
  const FeatureStore& store() const;
  // The shard's packed R-tree, the index the query hot paths run on. A
  // bulk load marks it stale and the next call compiles it over every
  // live row; rows inserted after that compile are its delta, not in it.
  // Thread-safe against concurrent queries (mutations already require
  // exclusive access).
  const PackedRTree& packed_index() const;

  // Id of the series inserted under `name`, or NotFound.
  Result<int64_t> FindByName(const std::string& series_name) const;

 private:
  friend class Database;

  std::string name_;
  FeatureConfig config_;
  int series_length_ = 0;
  std::vector<Record> records_;
  std::unordered_map<std::string, int64_t> by_name_;
  ShardedRelation data_;
};

// Self-join algorithms (Table 1 of [RM97]).
enum class JoinMethod {
  kFullScan,           // (a) nested scan, complete distance computation
  kScanEarlyAbandon,   // (b) nested scan, abandon when distance exceeds eps
  kIndexNoTransform,   // (c) per-series search rectangle, no transformation
  kIndexTransform,     // (d) method c with T applied to index + rectangles
};

// Snapshot of the graceful-degradation counters: how often a derived-
// artifact compile (packed snapshot, quantized codes) failed and the
// engine exact-scanned the rows instead of aborting -- a shard whose
// packed compile failed has all its rows in the delta scan. Answers are
// unaffected; only acceleration is lost. packed_compile_failures counts
// failed shard compiles, degraded_queries the queries they touched.
struct DegradationStats {
  uint64_t packed_compile_failures = 0;
  uint64_t filter_compile_failures = 0;
  uint64_t degraded_queries = 0;
};

// Delta-layer configuration (DESIGN.md "Delta layer & MVCC generations").
// Mutations never invalidate a shard's compiled artifacts: new rows become
// the artifacts' delta, scanned exactly by every driver, and deletes are
// tombstones filtered at read time. `recompact_threshold` is the per-shard
// mutation count past which the service folds the delta into a fresh
// generation (the library's Database::Recompact is always explicit); 0 or
// less turns the service's trigger off.
struct DeltaOptions {
  int64_t recompact_threshold = 256;
};

class Database {
 public:
  // Of `index_options` only max_entries, the packed trees' node fanout,
  // is read; it must lie in [4, PackedRTree::kMaxFanout] (checked here).
  explicit Database(FeatureConfig config = FeatureConfig(),
                    RTree::Options index_options = RTree::Options(),
                    ShardingOptions sharding = ShardingOptions());

  const FeatureConfig& config() const { return config_; }
  const ShardingOptions& sharding() const { return sharding_; }

  // Cross-shard kNN pruning (default on): the scatter-gather nearest-
  // neighbor driver hands each shard after the first the current merged
  // k-th distance as an upper bound, so later shards prune subtrees the
  // earlier shards already beat. Answer-preserving (ties at the bound are
  // drained; see index/knn_best_first.h); the off switch exists for the
  // node-access monotonicity tests and ablation benches.
  bool cross_shard_knn_pruning() const { return cross_shard_knn_pruning_; }
  void set_cross_shard_knn_pruning(bool enabled) {
    cross_shard_knn_pruning_ = enabled;
  }

  // Delta-layer configuration (the service's recompaction trigger). Set
  // under exclusive access.
  const DeltaOptions& delta_options() const { return delta_options_; }
  void set_delta_options(const DeltaOptions& options) {
    delta_options_ = options;
  }

  Status CreateRelation(const std::string& name);
  // Inserts one series (into the shards' deltas); returns its id.
  Result<int64_t> Insert(const std::string& relation,
                         const TimeSeries& series);
  // Inserts a batch into an empty relation; the first index query then
  // STR-compiles every shard's packed tree over the whole batch.
  Status BulkLoad(const std::string& relation,
                  const std::vector<TimeSeries>& series);

  // Tombstones the record with this id: it disappears from every query
  // answer immediately; its row (and name, which stays reserved) remain
  // in place, and the next recompaction sheds it from the packed tree.
  // OutOfRange for an unknown id, NotFound when it is already deleted.
  Status Delete(const std::string& relation, int64_t id);

  // Synchronous recompaction of one relation: folds every shard's delta
  // and tombstones into a fresh generation (packed tree of the live rows,
  // and new quantized codes where a filtered query had compiled them).
  // Answers are unaffected; generation()
  // advances. The service runs the same two phases split across its
  // shared/exclusive locks (BuildRecompaction/PublishRecompaction on the
  // relation's ShardedRelation); this entry point is for single-threaded
  // callers that hold exclusive access.
  Status Recompact(const std::string& relation);

  // The two recompaction phases, split so the service can run the build
  // under its shared lock (readers keep executing) and only the brief
  // publish under the exclusive lock. NotFound for an unknown relation.
  Status BuildRecompaction(
      const std::string& relation,
      std::vector<RelationShard::Recompaction>* out) const;
  Status PublishRecompaction(
      const std::string& relation,
      std::vector<RelationShard::Recompaction> built);

  const Relation* GetRelation(const std::string& name) const;

  // Names of all relations, in lexicographic order.
  std::vector<std::string> RelationNames() const;

  // Executes a parsed query.
  Result<QueryResult> Execute(const Query& query) const;
  // Parses and executes a textual query (core/parser.h grammar).
  Result<QueryResult> ExecuteText(const std::string& text) const;

  // Similarity self-join with an explicit algorithm choice; rules may be
  // null (identity). Distances use normal-form semantics:
  //   D( left_rule(x_i), right_rule(x_j) ) <= epsilon.
  // Equal rules on both sides give the symmetric join of Table 1 (method d
  // smooths both sides); different rules express joins between r and T(r),
  // e.g. the paper's hedging join r >< T_rev(r). Index methods report every
  // qualifying ordered pair; symmetric scan methods report each unordered
  // pair once -- matching the answer-set accounting of Table 1.
  // kIndexNoTransform ignores the rules (method c is defined that way).
  // `filter` is a query's MODE clause: kFiltered runs the quantized filter
  // for the early-abandoning scan method with untransformed spectral sides
  // (other methods, and the other modes, run the exact kernels).
  // `exec` carries the deadline/cancellation handle (null = unbounded),
  // polled between outer rows / node pairs like the other drivers.
  Result<QueryResult> SelfJoin(
      const std::string& relation, double epsilon,
      const TransformationRule* left_rule,
      const TransformationRule* right_rule, JoinMethod method,
      FilterMode filter = FilterMode::kDefault,
      std::shared_ptr<const ExecutionContext> exec = nullptr) const;

  // Convenience: the same rule applied to both sides.
  Result<QueryResult> SelfJoin(const std::string& relation, double epsilon,
                               const TransformationRule* rule,
                               JoinMethod method) const;

  // Current graceful-degradation counters (see DegradationStats).
  DegradationStats degradation_stats() const {
    DegradationStats stats;
    stats.packed_compile_failures =
        degradation_->packed_compile_failures.load(
            std::memory_order_relaxed);
    stats.filter_compile_failures =
        degradation_->filter_compile_failures.load(
            std::memory_order_relaxed);
    stats.degraded_queries =
        degradation_->degraded_queries.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  Result<QueryResult> ExecuteRange(const Relation& relation,
                                   const Query& query) const;
  Result<QueryResult> ExecuteNearest(const Relation& relation,
                                     const Query& query) const;
  Result<std::vector<double>> ResolveSeries(const Relation& relation,
                                            const SeriesRef& ref) const;

  // A range or nearest query planned against one relation: the resolved
  // query representation, the chosen strategy, the exact checker, and the
  // quantized filter state. Defined in database.cc; built in place by
  // PrepareProbe and never moved (the checker refers to fields beside it).
  struct Probe;
  // The planning prologue ExecuteRange and ExecuteNearest share (see its
  // definition for the steps). Leaves `probe` without a checker when the
  // relation is empty, whose answer is empty. Records a filter-compile
  // degradation and the EXPLAIN shard estimates in `stats`.
  Status PrepareProbe(const Relation& relation, const Query& query,
                      Probe* probe, ExecutionStats* stats) const;

  // Counts one failed quantized-code compile that sent a query to the
  // exact kernels, and marks `stats` degraded.
  void CountFilterDegradation(ExecutionStats* stats) const;

  // Resolves every shard's (packed tree, covered rows) pair once, before
  // a query's fan-out, compiling stale snapshots in parallel on the pool.
  // A failed compile leaves that shard's view empty (its rows all go
  // through the delta scan) and sets *degraded (counted in
  // degradation_stats).
  std::vector<RelationShard::PackedView> ResolveSnapshots(
      const ShardedRelation& data, bool* degraded) const;

  // Atomic counters behind a pointer so Database stays movable (the query
  // service holds it by value).
  struct DegradationState {
    std::atomic<uint64_t> packed_compile_failures{0};
    std::atomic<uint64_t> filter_compile_failures{0};
    std::atomic<uint64_t> degraded_queries{0};
  };

  FeatureConfig config_;
  int max_entries_;
  ShardingOptions sharding_;
  DeltaOptions delta_options_;
  bool cross_shard_knn_pruning_ = true;
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  std::unique_ptr<DegradationState> degradation_ =
      std::make_unique<DegradationState>();
};

}  // namespace simq

#endif  // SIMQ_CORE_DATABASE_H_
