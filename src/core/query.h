/// The query language L of the framework: abstract syntax, patterns, and
/// result types.
///
/// [JMM95] extends relational calculus with predicates asserting that an
/// object can be transformed into (a member of) the set denoted by a pattern
/// expression within a distance bound. The implementation surfaces the three
/// query shapes of [RM97] §1.2 -- range, all-pairs, and nearest neighbor --
/// over unary relations of time series:
///
///   RANGE   r WITHIN eps OF q [USING t]   ==  { o in r : D(t(o), q) <= eps }
///   PAIRS   r WITHIN eps      [USING t]   ==  { (a,b) : D(t(a), t(b)) <= eps }
///   NEAREST k r TO q          [USING t]   ==  k-argmin_{o in r} D(t(o), q)
///
/// augmented with the pattern predicates of the trivial pattern language P
/// (a constant object or every object of a relation, optionally filtered by
/// mean/std ranges -- the [GK95] shift/scale predicates). The textual
/// grammar is documented in core/parser.h; core/database.h plans and
/// executes the AST.

#ifndef SIMQ_CORE_QUERY_H_
#define SIMQ_CORE_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "core/transformation.h"

namespace simq {

enum class QueryKind { kRange, kAllPairs, kNearest };

// Distance semantics. kNormalForm replaces every series by its
// Goldin-Kanellakis normal form before transformations and distances (what
// [RM97] §5 evaluates and what the index accelerates); kRaw compares the
// original values.
enum class DistanceMode { kNormalForm, kRaw };

// Execution strategy; kAuto lets the planner pick index vs. scan.
enum class ExecutionStrategy { kAuto, kIndex, kScan, kScanNoEarlyAbandon };

// Per-query quantized-filter toggle (the MODE FILTERED / MODE EXACT
// clauses). kDefault defers to the engine-wide setting
// (Database::set_filter_engine); kFiltered requests the two-phase
// quantized filter-and-refine path (and biases kAuto planning toward the
// filtered scan); kExact forces the unfiltered kernels. Answers are
// bit-identical either way -- the filter only prunes exact-distance
// evaluations that provably cannot match.
enum class FilterMode { kDefault, kFiltered, kExact };

// The pattern language P: which data objects the query ranges over.
struct Pattern {
  enum class Kind { kAll, kConstant };
  Kind kind = Kind::kAll;
  // kConstant: the single object, by id within the relation.
  std::optional<int64_t> constant_id;
  // Optional statistic predicates (the [GK95] extension): inclusive ranges.
  std::optional<std::pair<double, double>> mean_range;
  std::optional<std::pair<double, double>> std_range;
};

// A query object: either a reference to a stored series or literal values.
struct SeriesRef {
  std::optional<int64_t> id;
  std::optional<std::string> name;
  std::vector<double> literal;  // used when id and name are empty

  bool is_literal() const { return !id.has_value() && !name.has_value(); }
};

struct Query {
  QueryKind kind = QueryKind::kRange;
  std::string relation;
  Pattern pattern;

  // Range / nearest: the query object.
  SeriesRef query_series;
  double epsilon = 0.0;  // range / all-pairs threshold
  int k = 1;             // nearest-neighbor count

  // Transformation applied to the data side (and to both sides of an
  // all-pairs query). Null means identity.
  std::shared_ptr<const TransformationRule> transform;

  // All-pairs queries only: when set, `transform` applies to the left side
  // and `transform_right` to the right side, expressing the join
  // r >< T(r) (e.g. the hedging join against reversed series). Textual
  // syntax: USING <left> VS <right>.
  std::shared_ptr<const TransformationRule> transform_right;

  DistanceMode mode = DistanceMode::kNormalForm;
  ExecutionStrategy strategy = ExecutionStrategy::kAuto;
  FilterMode filter = FilterMode::kDefault;

  // Normal-form mode only: when true, the query series is taken to already
  // live in normal-form space (e.g. a smoothed normal form used as a search
  // pattern) and is not re-normalized by the engine. Textual syntax:
  // the PRENORMALIZED clause.
  bool query_prenormalized = false;

  // Set by the EXPLAIN prefix of the textual grammar. The engine executes
  // the query normally; front ends (the query service / simq_shell) report
  // the chosen strategy, traversal engine, and cache status instead of --
  // or alongside -- the answer set.
  bool explain = false;

  // Set by EXPLAIN ANALYZE: execute normally (answers stay bit-identical
  // and cacheable -- analyze is not part of the semantic identity either)
  // but force a trace so front ends can render the span tree with actual
  // timings and cardinalities next to the plan.
  bool analyze = false;

  // Deadline / cancellation handle, polled at block boundaries during
  // execution (core/exec_context.h). Null means unbounded. Not part of the
  // query's semantic identity: the service's cache / prepared-statement
  // fingerprints ignore it.
  std::shared_ptr<const ExecutionContext> exec;
};

struct Match {
  int64_t id = 0;
  std::string name;
  double distance = 0.0;
};

struct PairMatch {
  int64_t first = 0;
  int64_t second = 0;
  double distance = 0.0;
};

// How a query was actually executed, plus effort counters; the benchmark
// harnesses report these next to wall-clock times.
struct ExecutionStats {
  bool used_index = false;
  bool used_filter = false;    // quantized filter-and-refine path taken
  int64_t node_accesses = 0;   // R-tree nodes touched (disk-access proxy)
  int64_t candidates = 0;      // entries surviving the index/code filter
  int64_t exact_checks = 0;    // full-distance computations performed
  // Quantized filter path only: records (or pairs, for joins) whose
  // packed codes were bound-scanned. candidates / filter_scanned is the
  // survivor rate; 1 - that is the pruning ratio EXPLAIN reports.
  int64_t filter_scanned = 0;
  // True when a packed-tree or quantized-code compile failed and the
  // engine exact-scanned the rows that artifact would have pruned (answers
  // are identical; only the acceleration was lost).
  bool degraded = false;

  // Per-shard breakdown, filled by the sharded executors for range and
  // nearest queries. `estimated_candidates` is the planner-side estimate
  // (relation stats plus quantizer cell occupancy when codes exist) and
  // is produced even for EXPLAIN without ANALYZE, so the estimated and
  // actual columns of the two outputs always line up.
  struct ShardStats {
    int shard = 0;
    int64_t rows = 0;                  // rows resident in the shard
    int64_t estimated_candidates = 0;  // pre-execution estimate
    int64_t candidates = 0;            // actual filter/index survivors
    int64_t exact_checks = 0;          // actual full-distance evaluations
  };
  std::vector<ShardStats> shard_stats;
};

struct QueryResult {
  std::vector<Match> matches;     // range / nearest
  std::vector<PairMatch> pairs;   // all-pairs
  ExecutionStats stats;
};

}  // namespace simq

#endif  // SIMQ_CORE_QUERY_H_
