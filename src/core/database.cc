#include "core/database.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>

#include "core/parser.h"
#include "filter/bound_kernels.h"
#include "obs/trace.h"
#include "filter/quantized_codes.h"
#include "geom/search_region.h"
#include "ts/transforms.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace simq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool StatsAdmit(double mean, double std_dev, const Pattern& pattern) {
  if (pattern.mean_range.has_value()) {
    if (mean < pattern.mean_range->first ||
        mean > pattern.mean_range->second) {
      return false;
    }
  }
  if (pattern.std_range.has_value()) {
    if (std_dev < pattern.std_range->first ||
        std_dev > pattern.std_range->second) {
      return false;
    }
  }
  return true;
}

// Position of the first NaN or infinity in `values`, or -1. Stored and
// query series must be finite: the spectra, the index geometry and the
// quantizer grid built from them assume finite coordinates.
int64_t FirstNonFinite(const std::vector<double>& values) {
  const auto it = std::find_if(values.begin(), values.end(),
                               [](double v) { return !std::isfinite(v); });
  return it == values.end() ? -1 : it - values.begin();
}

Status CheckFiniteSeries(const std::string& name,
                         const std::vector<double>& values) {
  const int64_t at = FirstNonFinite(values);
  if (at >= 0) {
    return Status::InvalidArgument("series '" + name +
                                   "' has a non-finite value at position " +
                                   std::to_string(at));
  }
  // Finite values near DBL_MAX can still overflow the mean or the
  // standard deviation the normal form divides by (1.7e308 - i * 1e300
  // over 16 values), leaving inf/NaN in the normal form, the spectrum and
  // the index point. StdDev is non-finite whenever the mean is; with both
  // finite, every normal-form value is at most sqrt(n) in magnitude.
  if (!std::isfinite(StdDev(values))) {
    return Status::InvalidArgument(
        "series '" + name + "' has a non-finite mean or standard deviation");
  }
  return Status::Ok();
}

// RANGE and PAIRS thresholds. A NaN passes `epsilon < 0`, and neither a
// NaN nor an infinite threshold makes a search region or a bound.
Status CheckEpsilon(double epsilon) {
  if (!std::isfinite(epsilon) || epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be finite and nonnegative");
  }
  return Status::Ok();
}

// Cooperative-stop poll for the parallel driver loops: workers check this
// at block boundaries (scan units, shards, outer rows, candidate batches)
// and bail out early; the driver's epilogue then re-checks the context and
// returns its typed error (kTimeout/kCancelled). Cancellation is sticky
// and deadlines are monotone, so the epilogue observes the same verdict
// the workers did. A null context never stops anything.
inline bool ShouldStop(const ExecutionContext* exec) {
  return exec != nullptr && !exec->Check().ok();
}

// How many index candidates / join rows are refined between polls. Poll
// cost is one relaxed load + one clock read, so this mainly bounds how
// much work a cancelled query still does inside one block.
constexpr int64_t kPollStride = 1024;

// Work granularity for ParallelFor over records: aim for blocks of at
// least ~2^19 doubles of kernel work so scheduling overhead stays
// negligible even for short series.
int64_t RecordGrain(int series_length) {
  return std::max<int64_t>(
      64, (int64_t{1} << 19) / std::max(1, 2 * series_length));
}

// Multiplier values of a spectral rule for output frequencies 0..out_n-1,
// materialized once per query so the per-candidate distance kernels stay a
// tight multiply-subtract loop. Returns nullopt for the identity.
std::optional<Spectrum> MaterializeMultiplier(const TransformationRule* rule,
                                              int n) {
  if (rule == nullptr) {
    return std::nullopt;
  }
  const int out_n = static_cast<int>(rule->OutputLength(n));
  Spectrum multiplier(static_cast<size_t>(out_n));
  for (int f = 0; f < out_n; ++f) {
    const std::optional<Complex> m = rule->Multiplier(f, n);
    SIMQ_CHECK(m.has_value()) << "rule is not spectral";
    multiplier[static_cast<size_t>(f)] = *m;
  }
  return multiplier;
}

// InvalidArgument when a spectral rule's materialized multiplier holds a
// NaN or an infinity: scale(1e200)|scale(1e200)|diff overflows to inf,
// and inf * 0 is NaN, so no distance through it is a number. Every entry
// path checks it right after materializing the multiplier.
Status CheckFiniteMultiplier(const TransformationRule* rule,
                             const std::optional<Spectrum>& multiplier) {
  if (multiplier.has_value() &&
      std::any_of(multiplier->begin(), multiplier->end(),
                  [](const Complex& m) {
                    return !std::isfinite(m.real()) ||
                           !std::isfinite(m.imag());
                  })) {
    return Status::InvalidArgument("transformation " + rule->name() +
                                   " has a non-finite spectral multiplier");
  }
  return Status::Ok();
}

// InvalidArgument when `rule` stretches length-n series past INT_MAX
// values (a warp chain): no series that long can exist. Runs before
// anything reads the rule's length or multiplier as an int.
Status CheckOutputLength(const TransformationRule* rule, int n) {
  if (rule != nullptr &&
      rule->OutputLength(n) > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "transformation " + rule->name() + " stretches " +
        std::to_string(n) + "-value series past " +
        std::to_string(std::numeric_limits<int>::max()) + " values");
  }
  return Status::Ok();
}

// Coefficient f of an interleaved (re, im) spectrum row (FeatureStore).
inline Complex RowCoefficient(const double* row, int f) {
  return Complex(row[2 * f], row[2 * f + 1]);
}

// Exact frequency-domain distance between T(data) and the query spectrum,
// early-abandoning once the partial sum exceeds threshold. `data` is a
// stored spectrum row of n coefficients; `multiplier` is the materialized
// spectral form of T (nullptr for the identity). Relies on Parseval: this
// equals the time-domain distance between T(x) and q.
double FreqDistance(const double* data, int n, const Spectrum& query,
                    const Spectrum* multiplier, double threshold) {
  const int out_n = multiplier != nullptr
                        ? static_cast<int>(multiplier->size())
                        : n;
  SIMQ_CHECK_EQ(static_cast<int>(query.size()), out_n);
  const double limit =
      threshold == kInf ? kInf : threshold * threshold;
  double sum = 0.0;
  for (int f = 0; f < out_n; ++f) {
    Complex value = RowCoefficient(data, f % n);
    if (multiplier != nullptr) {
      value *= (*multiplier)[static_cast<size_t>(f)];
    }
    sum += std::norm(value - query[static_cast<size_t>(f)]);
    if (sum > limit) {
      return kInf;
    }
  }
  return std::sqrt(sum);
}

// Query-side state for the exact checks of ExecuteRange/ExecuteNearest:
// columnar kernels over the sharded FeatureStores whenever the check runs
// in the frequency domain over same-length spectra (the common case);
// generic wraparound/time-domain fallbacks otherwise (expanding rules,
// non-spectral rules, raw mode), over the same shard store rows (raw mode
// reads the record's raw values). Holds references to its constructor
// arguments -- the Database::Probe fields beside it, valid within one
// Execute call. Distance(id) addresses rows by global id through the
// relation's shard locator; the arithmetic is identical for every shard
// count because each kernel reads only that record's row.
class ExactChecker {
 public:
  ExactChecker(const Relation& relation, const Query& query,
               const TransformationRule* rule, bool spectral, int out_n,
               const Spectrum& query_spectrum, const Spectrum* mult,
               const std::vector<double>& query_values)
      : relation_(relation),
        data_(relation.sharded()),
        query_(query),
        rule_(rule),
        spectral_(spectral),
        n_(relation.series_length()),
        query_spectrum_(query_spectrum),
        mult_(mult),
        query_values_(query_values),
        columnar_(query.mode == DistanceMode::kNormalForm && spectral &&
                  out_n == relation.series_length()) {
    if (columnar_) {
      query_ri_ = InterleaveSpectrum(query_spectrum);
      if (mult != nullptr) {
        mult_ri_ = InterleaveSpectrum(*mult);
      }
    }
  }

  bool columnar() const { return columnar_; }
  // Interleaved query spectrum / multiplier; empty / null when not
  // columnar (or no multiplier).
  const std::vector<double>& query_ri() const { return query_ri_; }
  const double* mult_ri() const {
    return mult_ri_.empty() ? nullptr : mult_ri_.data();
  }

  // Early-abandoning exact distance to record `id`; `threshold` bounds the
  // distance of interest (kInf disables abandoning). A NaN distance (a
  // rule overflowed: inf - inf, or inf * 0) is returned as +infinity, so
  // no NaN reaches KeepBest or SortMatches, and fails the query: the
  // driver returns status() once its fan-out is done.
  double Distance(int64_t id, double threshold) const {
    const double distance = UncheckedDistance(id, threshold);
    if (std::isnan(distance)) {
      nan_distance_.store(true);
      return kInf;
    }
    return distance;
  }

  // InvalidArgument once any Distance call met a NaN distance.
  Status status() const {
    if (nan_distance_.load()) {
      return Status::InvalidArgument(
          rule_ != nullptr
              ? "transformation " + rule_->name() + " gives a NaN distance"
              : "a distance is NaN");
    }
    return Status::Ok();
  }

 private:
  double UncheckedDistance(int64_t id, double threshold) const {
    if (columnar_) {
      const double limit_sq =
          threshold == kInf ? kInf : threshold * threshold;
      const double* mult_ptr = mult_ri();
      const double dist_sq =
          mult_ptr != nullptr
              ? RowDistanceSqMult(data_.SpectrumRow(id), mult_ptr,
                                  query_ri_.data(), n_, limit_sq)
              : RowDistanceSq(data_.SpectrumRow(id), query_ri_.data(), n_,
                              limit_sq);
      return std::sqrt(dist_sq);
    }
    if (query_.mode == DistanceMode::kNormalForm && spectral_) {
      return FreqDistance(data_.SpectrumRow(id), n_, query_spectrum_, mult_,
                          threshold);
    }
    std::vector<double> values;
    if (query_.mode == DistanceMode::kNormalForm) {
      const double* normal = data_.NormalRow(id);
      values.assign(normal, normal + n_);
    } else {
      values = relation_.record(id).raw;
    }
    if (rule_ != nullptr) {
      values = rule_->Apply(values);
      // A NaN in the transformed row fails the query whether or not the
      // abandoning kernel would reach it; an infinity orders (+inf).
      if (std::any_of(values.begin(), values.end(),
                      [](double v) { return std::isnan(v); })) {
        return std::numeric_limits<double>::quiet_NaN();
      }
    }
    return threshold == kInf
               ? EuclideanDistance(values, query_values_)
               : EuclideanDistanceEarlyAbandon(values, query_values_,
                                               threshold);
  }

  const Relation& relation_;
  const ShardedRelation& data_;
  const Query& query_;
  const TransformationRule* rule_;
  const bool spectral_;
  const int n_;
  const Spectrum& query_spectrum_;
  const Spectrum* mult_;
  const std::vector<double>& query_values_;
  const bool columnar_;
  std::vector<double> query_ri_;
  std::vector<double> mult_ri_;
  mutable std::atomic<bool> nan_distance_{false};
};

// One contiguous local-row range of one shard: the work unit of the
// sharded scan drivers. Units are ordered (shard, row range); RunBlocks
// over the unit list, its tallies folded in block order, is
// deterministic for any thread count, exactly like the
// pre-sharding blocked scans.
struct ScanUnit {
  int shard = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

std::vector<ScanUnit> MakeScanUnits(const ShardedRelation& data,
                                    int64_t grain) {
  std::vector<ScanUnit> units;
  for (int s = 0; s < data.num_shards(); ++s) {
    const int64_t n = data.shard(s).size();
    for (int64_t lo = 0; lo < n; lo += grain) {
      units.push_back(ScanUnit{s, lo, std::min(n, lo + grain)});
    }
  }
  return units;
}

// Spectrum-row pointer per global id, gathered once per join so the
// O(N^2) kernels below index records flat regardless of how rows are
// sharded -- the gather is what makes the join answers independent of
// the shard count by construction.
std::vector<const double*> GatherSpectrumRows(const ShardedRelation& data) {
  std::vector<const double*> rows(static_cast<size_t>(data.size()));
  for (int s = 0; s < data.num_shards(); ++s) {
    const RelationShard& shard = data.shard(s);
    const FeatureStore& store = shard.store();
    for (int64_t i = 0; i < shard.size(); ++i) {
      rows[static_cast<size_t>(shard.global_id(i))] = store.SpectrumRow(i);
    }
  }
  return rows;
}

// Per-shard quantized codes plus per-query bound LUTs for the filtered
// scan paths. Codes are resolved (lazily compiling any shard a bulk load
// staled) before the parallel fan-out, so workers never contend on a
// rebuild -- the same discipline as ResolveSnapshots for the packed
// trees. LUTs are built against each shard's own quantile grid.
struct ShardFilterState {
  std::vector<const QuantizedCodes*> codes;
  std::vector<QueryLuts> luts;
  // Largest absolute FP slack across the shards: the guard for
  // comparisons that mix bounds from different shards (the kNN radius).
  double max_slack = 0.0;
};

// Nullopt when any shard's code compile fails (the "filter.compile"
// failpoint): the caller counts the degradation and runs the exact scan
// instead -- same answers, no acceleration.
std::optional<ShardFilterState> MakeShardFilterState(
    const ShardedRelation& data, const double* query_ri,
    const double* mult_ri, int n) {
  ShardFilterState state;
  const int num_shards = data.num_shards();
  state.codes.reserve(static_cast<size_t>(num_shards));
  state.luts.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const QuantizedCodes* codes = data.shard(s).codes_view().artifact;
    if (codes == nullptr) {
      return std::nullopt;
    }
    state.codes.push_back(codes);
    state.luts.push_back(
        BuildQueryLuts(codes->quantizer(), query_ri, mult_ri, n));
    state.max_slack = std::max(state.max_slack, state.luts.back().slack);
  }
  return state;
}

// What one ParallelFor block of an executor loop found and did: its rows
// (matches, pairs or (distance, id) entries) and its work counts, in an
// ExecutionStats. Its shard_stats hold per-shard actuals only when the
// query's stats do (explained or traced queries) and stay empty otherwise.
// Each block writes only its own tally, so no counter is shared or atomic.
template <typename Row>
struct BlockTally {
  std::vector<Row> rows;
  ExecutionStats stats;

  // Adds to `shard`'s actual candidates and exact checks, if kept.
  void CountShard(int shard, int64_t candidates, int64_t checks) {
    if (!stats.shard_stats.empty()) {
      ExecutionStats::ShardStats& ss =
          stats.shard_stats[static_cast<size_t>(shard)];
      ss.candidates += candidates;
      ss.exact_checks += checks;
    }
  }
};

// Adds `tally`'s work counts, and per-shard actuals where `stats` keeps
// them, into `stats`, and moves its rows onto the end of `rows`.
template <typename Row>
void FoldTally(BlockTally<Row>* tally, ExecutionStats* stats,
               std::vector<Row>* rows) {
  const ExecutionStats& t = tally->stats;
  stats->node_accesses += t.node_accesses;
  stats->candidates += t.candidates;
  stats->exact_checks += t.exact_checks;
  stats->filter_scanned += t.filter_scanned;
  for (size_t s = 0; s < t.shard_stats.size(); ++s) {
    stats->shard_stats[s].candidates += t.shard_stats[s].candidates;
    stats->shard_stats[s].exact_checks += t.shard_stats[s].exact_checks;
  }
  rows->insert(rows->end(), std::make_move_iterator(tally->rows.begin()),
               std::make_move_iterator(tally->rows.end()));
}

// The skeleton of every executor loop: runs body(tally, lo, hi) over the
// blocks of [0, count) on the pool, each block into its own tally
// (ThreadPool::max_blocks() of them), then folds the tallies into
// `stats` and returns their rows joined in block order. Blocks partition
// the range in order, so rows join in range order and a count summed over
// the range is the same for any partition (not the filtered kNN's checks:
// each of its blocks shrinks its own radius).
template <typename Row, typename Body>
std::vector<Row> RunBlocks(int64_t count, int64_t grain, ExecutionStats* stats,
                           const Body& body) {
  ThreadPool& pool = ThreadPool::Global();
  std::vector<BlockTally<Row>> tallies(static_cast<size_t>(pool.max_blocks()));
  for (BlockTally<Row>& tally : tallies) {
    tally.stats.shard_stats.resize(stats->shard_stats.size());
  }
  pool.ParallelFor(0, count, grain,
                   [&](int64_t block, int64_t lo, int64_t hi) {
                     body(tallies[static_cast<size_t>(block)], lo, hi);
                   });
  std::vector<Row> rows;
  for (BlockTally<Row>& tally : tallies) {
    FoldTally(&tally, stats, &rows);
  }
  return rows;
}

using Entry = std::pair<double, int64_t>;  // (distance, id)

// The one k-best step of every kNN strategy. `best` is a max-heap of the k
// smallest (distance, id) entries offered so far; offers `entry` and
// returns the k-th smallest distance, or +infinity while fewer than k are
// held -- the filtered scan's radius and the index path's cross-shard
// pruning bound. The scans' blocks keep their k best with it, and the
// merge of blocks and of index shards runs every entry through it again.
// Like std::sort, it needs a strict weak order: no distance is NaN, since
// stored and query series and multipliers are checked finite and
// ExactChecker turns a NaN distance into +infinity and an error.
double KeepBest(size_t k, const Entry& entry, std::vector<Entry>* best) {
  if (best->size() < k) {
    best->push_back(entry);
    std::push_heap(best->begin(), best->end());
  } else if (entry < best->front()) {
    std::pop_heap(best->begin(), best->end());
    best->back() = entry;
    std::push_heap(best->begin(), best->end());
  }
  return best->size() < k ? kInf : best->front().first;
}

// The k-best merge of every kNN strategy: runs `entries` (the scan
// blocks' k best, joined, or the index shards' merged k best) through
// KeepBest and returns the k best as named matches, ascending by
// (distance, id).
std::vector<Match> MergeBest(const Relation& relation, size_t k,
                             const std::vector<Entry>& entries) {
  std::vector<Entry> best;
  for (const Entry& entry : entries) {
    KeepBest(k, entry, &best);
  }
  std::sort_heap(best.begin(), best.end());
  std::vector<Match> matches;
  matches.reserve(best.size());
  for (const auto& [distance, id] : best) {
    matches.push_back(Match{id, relation.record(id).name, distance});
  }
  return matches;
}

// Appends to `out` the offsets from `unit_lo` of the rows of [lo, hi)
// that are alive and admitted by the pattern: the rows a filtered scan
// bound-scans or exact-checks (mirrors the exact scan's predicates).
void AppendAdmitted(const RelationShard& shard, const Pattern& pattern,
                    int64_t unit_lo, int64_t lo, int64_t hi,
                    std::vector<int32_t>* out) {
  const FeatureStore& store = shard.store();
  for (int64_t i = lo; i < hi; ++i) {
    if (shard.alive(i) &&
        StatsAdmit(store.mean(i), store.std_dev(i), pattern)) {
      out->push_back(static_cast<int32_t>(i - unit_lo));
    }
  }
}

// Orders unit-relative row offsets by (bound[offset], offset).
auto ByBound(const double* bound) {
  return [bound](int32_t a, int32_t b) {
    return bound[a] != bound[b] ? bound[a] < bound[b] : a < b;
  };
}

void SortMatches(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const Match& a, const Match& b) {
              if (a.distance != b.distance) {
                return a.distance < b.distance;
              }
              return a.id < b.id;
            });
}

// The query's trace, or null (the common case: one pointer load).
inline obs::Trace* QueryTrace(const Query& query) {
  return query.exec != nullptr ? query.exec->trace() : nullptr;
}

// Pre-execution per-shard cardinality estimates for EXPLAIN / EXPLAIN
// ANALYZE -- computed only for explained or traced queries, never on the
// hot path. Range estimates (`k` == 0) read the shard quantizer's cell
// occupancy when codes are already compiled (the peek: a plan estimate
// must not trigger -- or fail -- a code build) and fall back to
// the shard row count; nearest estimates are min(rows, k), since each
// shard contributes at most k candidates to the merge and there is no
// radius to estimate against. Estimates feed the reported plan only; no
// pruning decision reads them.
void FillShardEstimates(const ShardedRelation& data,
                        const ExactChecker& checker, int n, double epsilon,
                        int k, ExecutionStats* stats) {
  const int num_shards = data.num_shards();
  stats->shard_stats.assign(static_cast<size_t>(num_shards),
                            ExecutionStats::ShardStats{});
  for (int s = 0; s < num_shards; ++s) {
    ExecutionStats::ShardStats& ss =
        stats->shard_stats[static_cast<size_t>(s)];
    ss.shard = s;
    ss.rows = data.shard(s).size();
    if (k > 0) {
      ss.estimated_candidates = std::min<int64_t>(ss.rows, k);
      continue;
    }
    ss.estimated_candidates = ss.rows;
    if (!checker.columnar()) {
      continue;
    }
    const QuantizedCodes* codes = data.shard(s).codes_peek().artifact;
    if (codes != nullptr && codes->dims() > 0) {
      const double fraction = EstimateRangeSurvivorFraction(
          codes->quantizer(), checker.query_ri().data(), checker.mult_ri(),
          n, epsilon);
      ss.estimated_candidates = std::min<int64_t>(
          ss.rows, static_cast<int64_t>(std::ceil(
                       fraction * static_cast<double>(ss.rows))));
    }
  }
}

// Everything a shard stores for one series, derived from its raw values.
ShardedRelation::RowData DeriveRow(const std::vector<double>& raw,
                                   const FeatureConfig& config) {
  ShardedRelation::RowData row;
  row.normal_values = ToNormalForm(raw).values;
  row.features = ComputeFeatures(raw);
  row.point = MakeFeaturePoint(row.features, config);
  return row;
}

}  // namespace

Relation::Relation(std::string name, const FeatureConfig& config,
                   int max_entries, const ShardingOptions& sharding)
    : name_(std::move(name)),
      config_(config),
      data_(FeatureDimension(config), max_entries, sharding) {}

const Record& Relation::record(int64_t id) const {
  SIMQ_CHECK_GE(id, 0);
  SIMQ_CHECK_LT(id, size());
  return records_[static_cast<size_t>(id)];
}

const FeatureStore& Relation::store() const {
  SIMQ_CHECK_EQ(data_.num_shards(), 1)
      << "Relation::store() is only defined for unsharded relations; use "
         "sharded().shard(s).store()";
  return data_.shard(0).store();
}

const PackedRTree& Relation::packed_index() const {
  SIMQ_CHECK_EQ(data_.num_shards(), 1)
      << "Relation::packed_index() is only defined for unsharded "
         "relations; use sharded().shard(s).packed_view()";
  const PackedRTree* tree = data_.shard(0).packed_view().artifact;
  SIMQ_CHECK(tree != nullptr) << "the packed compile failed";
  return *tree;
}

Result<int64_t> Relation::FindByName(const std::string& series_name) const {
  const auto it = by_name_.find(series_name);
  if (it == by_name_.end() || !data_.alive(it->second)) {
    // Deleted series resolve like never-inserted ones; the name itself
    // stays reserved (re-inserting it is still AlreadyExists) because ids
    // are dense and the tombstoned row keeps its slot.
    return Status::NotFound("no series named '" + series_name +
                            "' in relation '" + name_ + "'");
  }
  return it->second;
}

Database::Database(FeatureConfig config, RTree::Options index_options,
                   ShardingOptions sharding)
    : config_(config),
      max_entries_(index_options.max_entries),
      sharding_(sharding) {
  // The packed layout caps node fanout at kMaxFanout; the STR build's
  // RTree needs max_entries >= 2 * min_entries = 4.
  SIMQ_CHECK(max_entries_ >= 4 && max_entries_ <= PackedRTree::kMaxFanout)
      << "RTree::Options::max_entries must lie in [4, "
      << PackedRTree::kMaxFanout << "], got " << max_entries_;
  sharding_.num_shards = std::max(1, sharding_.num_shards);
}

void Database::CountFilterDegradation(ExecutionStats* stats) const {
  degradation_->filter_compile_failures.fetch_add(1,
                                                  std::memory_order_relaxed);
  degradation_->degraded_queries.fetch_add(1, std::memory_order_relaxed);
  stats->degraded = true;
}

std::vector<RelationShard::PackedView> Database::ResolveSnapshots(
    const ShardedRelation& data, bool* degraded) const {
  const int num_shards = data.num_shards();
  std::vector<RelationShard::PackedView> views(
      static_cast<size_t>(num_shards));
  const auto resolve = [&](int64_t /*block*/, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      views[static_cast<size_t>(s)] =
          data.shard(static_cast<int>(s)).packed_view();
    }
  };
  // Stale shards (the first index query after a bulk load) compile on the
  // pool, as the load's own per-shard work does; when every shard is
  // fresh the views are read inline, one lock each.
  bool any_stale = false;
  for (int s = 0; s < num_shards && !any_stale; ++s) {
    any_stale = data.shard(s).packed_peek().artifact == nullptr;
  }
  if (any_stale) {
    ThreadPool::Global().ParallelFor(0, num_shards, /*min_grain=*/1, resolve);
  } else {
    resolve(0, 0, num_shards);
  }
  bool failed = false;
  for (const RelationShard::PackedView& view : views) {
    if (view.artifact == nullptr) {
      degradation_->packed_compile_failures.fetch_add(
          1, std::memory_order_relaxed);
      failed = true;
    }
  }
  if (failed) {
    degradation_->degraded_queries.fetch_add(1, std::memory_order_relaxed);
    *degraded = true;
  }
  return views;
}

Status Database::CreateRelation(const std::string& name) {
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  relations_[name] =
      std::make_unique<Relation>(name, config_, max_entries_, sharding_);
  return Status::Ok();
}

Status Database::Delete(const std::string& relation, int64_t id) {
  const auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  Relation* rel = it->second.get();
  if (id < 0 || id >= rel->size()) {
    return Status::OutOfRange("series id out of range");
  }
  if (!rel->data_.Delete(id)) {
    return Status::NotFound("series #" + std::to_string(id) +
                            " is already deleted");
  }
  return Status::Ok();
}

Status Database::BuildRecompaction(
    const std::string& relation,
    std::vector<RelationShard::Recompaction>* out) const {
  const Relation* rel = GetRelation(relation);
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  return rel->data_.BuildRecompaction(out);
}

Status Database::PublishRecompaction(
    const std::string& relation,
    std::vector<RelationShard::Recompaction> built) {
  const auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  return it->second->data_.PublishRecompaction(std::move(built));
}

Status Database::Recompact(const std::string& relation) {
  std::vector<RelationShard::Recompaction> built;
  SIMQ_RETURN_IF_ERROR(BuildRecompaction(relation, &built));
  return PublishRecompaction(relation, std::move(built));
}

Result<int64_t> Database::Insert(const std::string& relation,
                                 const TimeSeries& series) {
  const auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  Relation* rel = it->second.get();
  if (series.values.empty()) {
    return Status::InvalidArgument("cannot insert an empty series");
  }
  if (rel->series_length_ == 0) {
    rel->series_length_ = series.length();
  } else if (rel->series_length_ != series.length()) {
    return Status::InvalidArgument(
        "series length does not match relation '" + relation + "'");
  }

  Record record;
  record.id = rel->size();
  record.name =
      series.id.empty() ? "s" + std::to_string(record.id) : series.id;
  SIMQ_RETURN_IF_ERROR(CheckFiniteSeries(record.name, series.values));
  if (rel->by_name_.count(record.name) > 0) {
    return Status::AlreadyExists("series '" + record.name +
                                 "' already exists in relation");
  }
  record.raw = series.values;

  // Route the record's derived data to its shard: the shard's store grows
  // and its epoch bumps; the row joins that shard's delta, so no compiled
  // artifact is invalidated.
  rel->data_.Append(DeriveRow(record.raw, config_));
  rel->by_name_[record.name] = record.id;
  rel->records_.push_back(std::move(record));
  return rel->size() - 1;
}

Status Database::BulkLoad(const std::string& relation,
                          const std::vector<TimeSeries>& series) {
  const auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  Relation* rel = it->second.get();
  if (rel->size() != 0) {
    return Status::FailedPrecondition(
        "BulkLoad requires an empty relation; use Insert instead");
  }
  // Validation pass (serial, all-or-nothing: an invalid batch leaves the
  // relation empty, including the series-length sentinel a partial pass
  // may have set). Only cheap checks run here; the expensive per-record
  // derivations happen inside the parallel shard builds below.
  const int prior_length = rel->series_length_;
  const auto fail = [&](Status status) {
    rel->by_name_.clear();
    rel->records_.clear();
    rel->series_length_ = prior_length;
    return status;
  };
  rel->records_.reserve(series.size());
  for (const TimeSeries& ts : series) {
    if (ts.values.empty()) {
      return fail(Status::InvalidArgument("cannot insert an empty series"));
    }
    if (rel->series_length_ == 0) {
      rel->series_length_ = ts.length();
    } else if (rel->series_length_ != ts.length()) {
      return fail(
          Status::InvalidArgument("series length mismatch in bulk load"));
    }
    Record record;
    record.id = rel->size();
    record.name = ts.id.empty() ? "s" + std::to_string(record.id) : ts.id;
    const Status finite = CheckFiniteSeries(record.name, ts.values);
    if (!finite.ok()) {
      return fail(finite);
    }
    if (rel->by_name_.count(record.name) > 0) {
      return fail(Status::AlreadyExists("series '" + record.name +
                                        "' already exists in relation"));
    }
    record.raw = ts.values;
    rel->by_name_[record.name] = record.id;
    rel->records_.push_back(std::move(record));
  }
  // Parallel per-shard load: every shard task derives its own records'
  // normal forms and spectra from their raw values (reads only, so the
  // fan-out is deterministic) and fills the shard's columnar store; the
  // first index query STR-compiles the shard's packed tree. With one
  // shard this degenerates to the pre-sharding serial load.
  rel->data_.BulkLoad(static_cast<int64_t>(series.size()), [&](int64_t id) {
    return DeriveRow(rel->records_[static_cast<size_t>(id)].raw, config_);
  });
  return Status::Ok();
}

const Relation* Database::GetRelation(const std::string& name) const {
  const auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) {
    names.push_back(name);
  }
  return names;
}

Result<std::vector<double>> Database::ResolveSeries(
    const Relation& relation, const SeriesRef& ref) const {
  if (ref.id.has_value()) {
    if (*ref.id < 0 || *ref.id >= relation.size()) {
      return Status::OutOfRange("series id out of range");
    }
    if (!relation.sharded().alive(*ref.id)) {
      return Status::NotFound("series #" + std::to_string(*ref.id) +
                              " is deleted");
    }
    return relation.record(*ref.id).raw;
  }
  if (ref.name.has_value()) {
    Result<int64_t> id = relation.FindByName(*ref.name);
    if (!id.ok()) {
      return id.status();
    }
    return relation.record(id.value()).raw;
  }
  if (ref.literal.empty()) {
    return Status::InvalidArgument("query series is empty");
  }
  const int64_t at = FirstNonFinite(ref.literal);
  if (at >= 0) {
    return Status::InvalidArgument(
        "query series has a non-finite value at position " +
        std::to_string(at));
  }
  return ref.literal;
}

Result<QueryResult> Database::Execute(const Query& query) const {
  const Relation* relation = GetRelation(query.relation);
  if (relation == nullptr) {
    return Status::NotFound("no relation named '" + query.relation + "'");
  }
  // An infinite MEAN/STD bound is legal (MEAN -1e999 1e999 admits every
  // mean); a NaN one admits nothing and breaks the search region.
  for (const std::optional<std::pair<double, double>>* range :
       {&query.pattern.mean_range, &query.pattern.std_range}) {
    if (range->has_value() &&
        (std::isnan((*range)->first) || std::isnan((*range)->second))) {
      return Status::InvalidArgument("MEAN and STD bounds must not be NaN");
    }
  }
  switch (query.kind) {
    case QueryKind::kRange:
      return ExecuteRange(*relation, query);
    case QueryKind::kNearest:
      return ExecuteNearest(*relation, query);
    case QueryKind::kAllPairs: {
      const TransformationRule* left_rule = query.transform.get();
      const TransformationRule* right_rule =
          query.transform_right != nullptr ? query.transform_right.get()
                                           : left_rule;
      if (query.mode != DistanceMode::kNormalForm) {
        return Status::Unimplemented(
            "all-pairs queries support normal-form distances only");
      }
      const int n = relation->series_length();
      bool can_index = true;
      for (const TransformationRule* rule : {left_rule, right_rule}) {
        if (rule == nullptr || n == 0) {
          continue;
        }
        SIMQ_RETURN_IF_ERROR(CheckOutputLength(rule, n));
        const std::optional<LinearTransform> lowered =
            rule->IndexTransform(n, config_.num_coefficients);
        // Only the data-side (right) transformation must be safe in the
        // index space; the left rule merely transforms the probe point.
        const bool needs_safety = rule == right_rule;
        can_index = can_index && lowered.has_value() &&
                    (!needs_safety || lowered->IsSafeIn(config_.space)) &&
                    rule->OutputLength(n) == n;
      }
      const bool any_rule = left_rule != nullptr || right_rule != nullptr;
      // An explicit MODE FILTERED biases kAuto planning to the filtered
      // early-abandon scan when the quantized join screen applies (an
      // untransformed join: identity or normal-form-invariant rules) --
      // mirroring the range/nearest planners.
      const bool filter_biased =
          query.filter == FilterMode::kFiltered &&
          (left_rule == nullptr || left_rule->IsNormalFormInvariant()) &&
          (right_rule == nullptr || right_rule->IsNormalFormInvariant());
      JoinMethod method = JoinMethod::kScanEarlyAbandon;
      switch (query.strategy) {
        case ExecutionStrategy::kAuto:
          method = filter_biased ? JoinMethod::kScanEarlyAbandon
                   : can_index  ? (any_rule ? JoinMethod::kIndexTransform
                                            : JoinMethod::kIndexNoTransform)
                                : JoinMethod::kScanEarlyAbandon;
          break;
        case ExecutionStrategy::kIndex:
          if (!can_index) {
            return Status::FailedPrecondition(
                "transformation is not index-accelerable for this join");
          }
          method = any_rule ? JoinMethod::kIndexTransform
                            : JoinMethod::kIndexNoTransform;
          break;
        case ExecutionStrategy::kScan:
          method = JoinMethod::kScanEarlyAbandon;
          break;
        case ExecutionStrategy::kScanNoEarlyAbandon:
          method = JoinMethod::kFullScan;
          break;
      }
      // Joins trace as one stage: the join drivers have their own
      // internal phasing, but the service-level question ("where did the
      // time go?") is answered by one span with the pair accounting.
      obs::Trace* const trace = QueryTrace(query);
      const double span_start = trace != nullptr ? trace->NowMs() : 0.0;
      Result<QueryResult> result =
          SelfJoin(query.relation, query.epsilon, left_rule, right_rule,
                   method, query.filter, query.exec);
      if (trace != nullptr && result.ok()) {
        const ExecutionStats& stats = result.value().stats;
        const int span =
            trace->AddCompleted("join", trace->engine_parent(), span_start,
                                trace->NowMs() - span_start);
        trace->SetRows(
            span,
            stats.filter_scanned > 0 ? stats.filter_scanned
                                     : stats.exact_checks,
            stats.filter_scanned > 0
                ? stats.filter_scanned - stats.candidates
                : 0,
            static_cast<int64_t>(result.value().pairs.size()));
      }
      return result;
    }
  }
  return Status::Internal("unknown query kind");
}

Result<QueryResult> Database::ExecuteText(const std::string& text) const {
  Result<Query> query = ParseQuery(text);
  if (!query.ok()) {
    return query.status();
  }
  return Execute(query.value());
}

// Declared in database.h. `checker` refers to query_spectrum, multiplier
// and query_values, which is why a Probe is filled in place and never
// copied or moved.
struct Database::Probe {
  Probe() = default;
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  std::vector<double> query_values;  // distance-side query
  Spectrum query_spectrum;
  std::optional<Spectrum> multiplier;  // spectral rules only
  ExecutionStrategy strategy = ExecutionStrategy::kAuto;  // as planned
  std::optional<ExactChecker> checker;  // empty for an empty relation
  // Index strategy: the query's X1..Xk and, under a rule, its lowering to
  // the feature space that the traversals apply to every MBR and point.
  std::vector<Complex> query_coeffs;
  std::optional<std::vector<DimAffine>> affines;
  // Per-shard codes and LUTs of the quantized scan; empty when the scan is
  // unfiltered or a code compile failed.
  std::optional<ShardFilterState> filter;

  const std::vector<DimAffine>* affines_or_null() const {
    return affines.has_value() ? &*affines : nullptr;
  }
};

// The planning prologue of both drivers, in order: resolve the query
// series, apply the [GK95] shortcut, check the length, build the query's
// normal form and spectrum, decide spectral / index transform / multiplier
// / index eligibility, plan kAuto, build the exact checker, derive the
// index search inputs or compile the quantized filter state, and fill the
// EXPLAIN shard estimates. A range query with a constant pattern stops
// after the checker: ExecuteRange checks its one row directly, with no
// codes to compile or shards to estimate. Nearest queries estimate
// min(rows, k) per shard.
Status Database::PrepareProbe(const Relation& relation, const Query& query,
                              Probe* probe, ExecutionStats* stats) const {
  SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
  if (relation.size() == 0) {
    return Status::Ok();
  }
  Result<std::vector<double>> resolved =
      ResolveSeries(relation, query.query_series);
  if (!resolved.ok()) {
    return resolved.status();
  }
  const std::vector<double>& raw_query = resolved.value();

  const TransformationRule* rule = query.transform.get();
  if (query.mode == DistanceMode::kNormalForm && rule != nullptr &&
      rule->IsNormalFormInvariant()) {
    rule = nullptr;  // the [GK95] shortcut: invisible to normal forms
  }
  const int n = relation.series_length();
  SIMQ_RETURN_IF_ERROR(CheckOutputLength(rule, n));
  const int out_n =
      rule != nullptr ? static_cast<int>(rule->OutputLength(n)) : n;
  if (static_cast<int>(raw_query.size()) != out_n) {
    return Status::InvalidArgument(
        "query series length does not match the transformed data length");
  }

  // Query-side representation. A query series normalized here must have
  // a finite mean and deviation, as a stored one must (CheckFiniteSeries);
  // a PRENORMALIZED one is used as given, so its spectrum is checked.
  const bool normal_form = query.mode == DistanceMode::kNormalForm;
  if (normal_form && !query.query_prenormalized) {
    NormalFormResult normal = ToNormalForm(raw_query);
    if (!std::isfinite(normal.std_dev)) {
      return Status::InvalidArgument(
          "query series has a non-finite mean or standard deviation");
    }
    probe->query_values = std::move(normal.values);
  } else {
    probe->query_values = raw_query;
  }
  probe->query_spectrum = Dft(probe->query_values);
  if (normal_form && query.query_prenormalized &&
      std::any_of(probe->query_spectrum.begin(), probe->query_spectrum.end(),
                  [](const Complex& c) {
                    return !std::isfinite(c.real()) || !std::isfinite(c.imag());
                  })) {
    return Status::InvalidArgument(
        "PRENORMALIZED query series has a non-finite spectrum");
  }

  const bool spectral = rule == nullptr || rule->IsSpectral(n);
  std::optional<LinearTransform> index_transform;
  if (rule != nullptr && spectral) {
    index_transform = rule->IndexTransform(n, config_.num_coefficients);
  }
  if (spectral) {
    probe->multiplier = MaterializeMultiplier(rule, n);
    SIMQ_RETURN_IF_ERROR(CheckFiniteMultiplier(rule, probe->multiplier));
  }
  const bool can_use_index =
      query.mode == DistanceMode::kNormalForm &&
      (rule == nullptr || (index_transform.has_value() &&
                           index_transform->IsSafeIn(config_.space)));

  ExecutionStrategy strategy = query.strategy;
  if (strategy == ExecutionStrategy::kAuto) {
    // An explicit MODE FILTERED biases planning toward the quantized
    // filter scan whenever that path is eligible (normal-form spectral
    // distance over same-length spectra); otherwise the usual
    // index-first rule.
    const bool filter_eligible = query.filter == FilterMode::kFiltered &&
                                 query.mode == DistanceMode::kNormalForm &&
                                 spectral && out_n == n;
    strategy = filter_eligible  ? ExecutionStrategy::kScan
               : can_use_index ? ExecutionStrategy::kIndex
                                : ExecutionStrategy::kScan;
  }
  if (strategy == ExecutionStrategy::kIndex && !can_use_index) {
    return Status::FailedPrecondition(
        "query is not index-accelerable (requires normal-form mode and a "
        "safe spectral transformation)");
  }
  probe->strategy = strategy;

  // Columnar kernels apply whenever the exact check runs in the frequency
  // domain over same-length spectra (the common case); expanding rules
  // (out_n != n, e.g. time warps) fall back to the generic wraparound
  // distance inside the checker.
  const ExactChecker& checker = probe->checker.emplace(
      relation, query, rule, spectral, out_n, probe->query_spectrum,
      probe->multiplier.has_value() ? &*probe->multiplier : nullptr,
      probe->query_values);
  const bool nearest = query.kind == QueryKind::kNearest;
  if (!nearest && query.pattern.kind == Pattern::Kind::kConstant) {
    return Status::Ok();
  }
  const ShardedRelation& data = relation.sharded();

  if (strategy == ExecutionStrategy::kIndex) {
    probe->query_coeffs =
        ExtractCoefficients(probe->query_spectrum, config_.num_coefficients);
    if (rule != nullptr) {
      probe->affines = LowerToFeatureSpace(*index_transform, config_);
    }
  }
  // Quantized-filter eligibility and code compile, resolved before the
  // drivers' strategy branch: a failed compile (the "filter.compile"
  // failpoint) falls through to the exact scan with the degradation
  // counted -- same answers, no acceleration, never an abort.
  if (strategy == ExecutionStrategy::kScan && checker.columnar() && n >= 1 &&
      query.filter == FilterMode::kFiltered) {
    probe->filter = MakeShardFilterState(data, checker.query_ri().data(),
                                         checker.mult_ri(), n);
    if (!probe->filter.has_value()) {
      CountFilterDegradation(stats);
    }
  }

  // Per-shard estimates (after the code compile above, so the quantizer
  // grid is visible to the estimator on the filtered path) and actuals
  // are produced only for explained or traced queries.
  if (query.explain || QueryTrace(query) != nullptr) {
    FillShardEstimates(data, checker, n, nearest ? 0.0 : query.epsilon,
                       nearest ? query.k : 0, stats);
  }
  return Status::Ok();
}

Result<QueryResult> Database::ExecuteRange(const Relation& relation,
                                           const Query& query) const {
  SIMQ_RETURN_IF_ERROR(CheckEpsilon(query.epsilon));
  QueryResult out;
  Probe probe;
  SIMQ_RETURN_IF_ERROR(PrepareProbe(relation, query, &probe, &out.stats));
  if (!probe.checker.has_value()) {
    return out;  // empty relation
  }
  const ExactChecker& checker = *probe.checker;
  const ShardedRelation& data = relation.sharded();

  // Trivial pattern "a given constant object": check that object directly.
  if (query.pattern.kind == Pattern::Kind::kConstant) {
    if (!query.pattern.constant_id.has_value() ||
        *query.pattern.constant_id < 0 ||
        *query.pattern.constant_id >= relation.size()) {
      return Status::OutOfRange("pattern constant id out of range");
    }
    const int64_t id = *query.pattern.constant_id;
    if (data.alive(id) &&
        StatsAdmit(data.mean(id), data.std_dev(id), query.pattern)) {
      ++out.stats.exact_checks;
      const double distance = checker.Distance(id, query.epsilon);
      SIMQ_RETURN_IF_ERROR(checker.status());
      if (distance <= query.epsilon) {
        out.matches.push_back(Match{id, relation.record(id).name, distance});
      }
    }
    return out;
  }

  const ExecutionContext* exec = query.exec.get();
  obs::Trace* const trace = QueryTrace(query);
  const int trace_parent = trace != nullptr ? trace->engine_parent() : 0;
  const int n = relation.series_length();
  if (probe.strategy == ExecutionStrategy::kIndex) {
    SearchRegion region =
        SearchRegion::MakeRange(probe.query_coeffs, query.epsilon, config_);
    if (config_.include_mean_std) {
      if (query.pattern.mean_range.has_value()) {
        region.ConstrainMean(query.pattern.mean_range->first,
                             query.pattern.mean_range->second);
      }
      if (query.pattern.std_range.has_value()) {
        region.ConstrainStd(query.pattern.std_range->first,
                            query.pattern.std_range->second);
      }
    }
    const std::vector<DimAffine>* affines_ptr = probe.affines_or_null();
    // Scatter: every shard's tree is searched (in parallel across shards;
    // the admission scheduler's per-query parallelism budget caps this
    // fan-out like any other ParallelFor). Gather: the blocks' matches are
    // joined in shard order and canonically sorted below, so the answer is
    // independent of shard count and scheduling.
    const std::vector<RelationShard::PackedView> views =
        ResolveSnapshots(data, &out.stats.degraded);
    out.matches = RunBlocks<Match>(
        data.num_shards(), /*grain=*/1, &out.stats,
        [&](BlockTally<Match>& tally, int64_t lo, int64_t hi) {
          for (int64_t s = lo; s < hi; ++s) {
            if (ShouldStop(exec)) {
              break;
            }
            const double span_start = trace != nullptr ? trace->NowMs() : 0.0;
            const RelationShard::PackedView& view =
                views[static_cast<size_t>(s)];
            std::vector<int64_t> candidates;
            if (view.artifact != nullptr) {
              tally.stats.node_accesses +=
                  view.artifact->Search(region, affines_ptr, &candidates);
            }
            const int64_t tree_candidates =
                static_cast<int64_t>(candidates.size());
            // Delta rows: rows past the snapshot's coverage (appended after
            // its compile, or every row when the compile failed) are not in
            // the tree -- they follow its candidates into the exact check.
            const RelationShard& shard = data.shard(static_cast<int>(s));
            for (int64_t r = view.covered; r < shard.size(); ++r) {
              candidates.push_back(shard.global_id(r));
            }
            const size_t rows_before = tally.rows.size();
            int64_t checks = 0;
            bool stopped = false;
            for (size_t c = 0; c < candidates.size(); ++c) {
              if (c % kPollStride == 0 && ShouldStop(exec)) {
                stopped = true;
                break;
              }
              const int64_t id = candidates[c];
              if (!data.alive(id) ||
                  !StatsAdmit(data.mean(id), data.std_dev(id),
                              query.pattern)) {
                continue;
              }
              ++checks;
              const double distance = checker.Distance(id, query.epsilon);
              if (distance <= query.epsilon) {
                tally.rows.push_back(
                    Match{id, relation.record(id).name, distance});
              }
            }
            tally.stats.candidates += tree_candidates;
            tally.stats.exact_checks += checks;
            tally.CountShard(static_cast<int>(s), tree_candidates, checks);
            if (trace != nullptr) {
              const int span =
                  trace->AddCompleted("index shard", trace_parent, span_start,
                                      trace->NowMs() - span_start);
              trace->SetShard(span, static_cast<int>(s));
              trace->SetRows(
                  span, tree_candidates, tree_candidates - checks,
                  static_cast<int64_t>(tally.rows.size() - rows_before));
            }
            if (stopped) {
              break;
            }
          }
        });
    out.stats.used_index = true;
  } else if (probe.filter.has_value()) {
    // Two-phase quantized filter-and-refine scan (DESIGN.md "Quantized
    // filter"): phase 1 bound-scans the per-shard code columns and
    // drops every record whose lower-bound distance already exceeds eps
    // (Lemma-1 style: the bound is conservative, so nothing true is
    // dropped); phase 2 refines only the survivors through the exact
    // columnar kernels the unfiltered scan runs -- same kernels, same
    // threshold -- so the answer set and every distance are
    // bit-identical by construction.
    const ShardFilterState& filter = *probe.filter;
    const double eps_sq = query.epsilon * query.epsilon;
    const std::vector<ScanUnit> units = MakeScanUnits(data, RecordGrain(n));
    // Phase 1 and 2 are fused per scan unit on this path, so one span
    // covers both; scanned/pruned/returned separate the phases in the
    // rendered tree.
    obs::ScopedSpan filter_span(trace, "filter+refine", trace_parent);
    out.matches = RunBlocks<Match>(
        static_cast<int64_t>(units.size()), /*grain=*/1, &out.stats,
        [&](BlockTally<Match>& tally, int64_t unit_lo, int64_t unit_hi) {
          std::vector<int32_t> active;
          std::vector<double> scratch;
          for (int64_t u = unit_lo; u < unit_hi; ++u) {
            if (ShouldStop(exec)) {
              break;
            }
            const ScanUnit& unit = units[static_cast<size_t>(u)];
            const RelationShard& shard = data.shard(unit.shard);
            const QuantizedCodes& codes =
                *filter.codes[static_cast<size_t>(unit.shard)];
            const QueryLuts& luts =
                filter.luts[static_cast<size_t>(unit.shard)];
            const double abandon_sq = SafeThreshold(eps_sq, luts.slack);
            // The codes cover a row prefix frozen at their compile; rows
            // past it are the codes' delta and skip the screen entirely
            // (exact-checked below), so a mutation never invalidates the
            // compiled codes. Pattern and tombstone predicates run before
            // the code scan, so excluded records are never bound-scanned.
            const int64_t screen_hi = std::min(unit.hi, codes.size());
            active.clear();
            AppendAdmitted(shard, query.pattern, unit.lo, unit.lo, screen_hi,
                           &active);
            tally.stats.filter_scanned += static_cast<int64_t>(active.size());
            ColumnLowerBoundScan(
                codes, luts, unit.lo, screen_hi,
                [abandon_sq](std::vector<int32_t>*, const double*) {
                  return abandon_sq;
                },
                &active, &scratch);
            // Delta rows of this unit join the survivors unscreened:
            // always exact-checked -- the unmodified kernels keep the
            // answer bit-identical to the unfiltered scan.
            AppendAdmitted(shard, query.pattern, unit.lo,
                           std::max(unit.lo, screen_hi), unit.hi, &active);
            const int64_t unit_checks = static_cast<int64_t>(active.size());
            for (const int32_t offset : active) {
              const int64_t id = shard.global_id(unit.lo + offset);
              const double distance = checker.Distance(id, query.epsilon);
              if (distance <= query.epsilon) {
                tally.rows.push_back(
                    Match{id, relation.record(id).name, distance});
              }
            }
            tally.stats.exact_checks += unit_checks;
            tally.CountShard(unit.shard, unit_checks, unit_checks);
          }
        });
    out.stats.used_filter = true;
    out.stats.candidates = out.stats.exact_checks;
    filter_span.Rows(out.stats.filter_scanned,
                     out.stats.filter_scanned - out.stats.candidates,
                     static_cast<int64_t>(out.matches.size()));
  } else {
    const bool abandon =
        probe.strategy != ExecutionStrategy::kScanNoEarlyAbandon;
    const double threshold = abandon ? query.epsilon : kInf;
    // Sharded blocked scan: the unit list enumerates contiguous local-row
    // ranges shard by shard, and the fan-out parallelizes over units --
    // across shards and within them -- with per-block tallies folded in
    // block order, so results stay deterministic for any thread count and
    // shard count. Columnar early-abandoning scans first screen against
    // the shard's packed prefix column (32 sequential bytes per record)
    // and touch the full strided row only for survivors.
    const bool screen =
        checker.columnar() && abandon && threshold != kInf && n >= 2;
    const double limit_sq = threshold * threshold;
    double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
    const double* mult_ri_ptr = nullptr;
    if (screen) {
      const std::vector<double>& query_ri = checker.query_ri();
      q0 = query_ri[0];
      q1 = query_ri[1];
      q2 = query_ri[2];
      q3 = query_ri[3];
      mult_ri_ptr = checker.mult_ri();
    }
    const std::vector<ScanUnit> units = MakeScanUnits(data, RecordGrain(n));
    obs::ScopedSpan scan_span(trace, "scan", trace_parent);
    out.matches = RunBlocks<Match>(
        static_cast<int64_t>(units.size()), /*grain=*/1, &out.stats,
        [&](BlockTally<Match>& tally, int64_t unit_lo, int64_t unit_hi) {
          for (int64_t u = unit_lo; u < unit_hi; ++u) {
            if (ShouldStop(exec)) {
              break;
            }
            const ScanUnit& unit = units[static_cast<size_t>(u)];
            const RelationShard& shard = data.shard(unit.shard);
            const FeatureStore& store = shard.store();
            int64_t checks = 0;
            for (int64_t i = unit.lo; i < unit.hi; ++i) {
              if (!shard.alive(i) ||
                  !StatsAdmit(store.mean(i), store.std_dev(i),
                              query.pattern)) {
                continue;
              }
              ++checks;
              if (screen) {
                const double* p = store.PrefixRow(i);
                const bool dead =
                    mult_ri_ptr != nullptr
                        ? PrefixScreenMultDead(p, mult_ri_ptr, q0, q1, q2,
                                               q3, limit_sq)
                        : PrefixScreenDead(p, q0, q1, q2, q3, limit_sq);
                if (dead) {
                  continue;
                }
              }
              const int64_t id = shard.global_id(i);
              const double distance = checker.Distance(id, threshold);
              if (distance <= query.epsilon) {
                tally.rows.push_back(
                    Match{id, relation.record(id).name, distance});
              }
            }
            tally.stats.exact_checks += checks;
            tally.CountShard(unit.shard, checks, checks);
          }
        });
    scan_span.Rows(out.stats.exact_checks, 0,
                   static_cast<int64_t>(out.matches.size()));
  }
  // Workers that observed a stop left partial buffers behind; the typed
  // error below discards them so callers never see a partial answer.
  SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
  SIMQ_RETURN_IF_ERROR(checker.status());
  {
    obs::ScopedSpan merge(trace, "merge", trace_parent);
    SortMatches(&out.matches);
    merge.Rows(0, 0, static_cast<int64_t>(out.matches.size()));
  }
  return out;
}

Result<QueryResult> Database::ExecuteNearest(const Relation& relation,
                                             const Query& query) const {
  if (query.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  QueryResult out;
  Probe probe;
  SIMQ_RETURN_IF_ERROR(PrepareProbe(relation, query, &probe, &out.stats));
  if (!probe.checker.has_value()) {
    return out;  // empty relation
  }
  // All nearest-neighbor exact checks are unbounded (kInf threshold).
  const ExactChecker& checker = *probe.checker;
  const ShardedRelation& data = relation.sharded();
  const ExecutionContext* exec = query.exec.get();
  obs::Trace* const trace = QueryTrace(query);
  const int trace_parent = trace != nullptr ? trace->engine_parent() : 0;
  const int n = relation.series_length();
  const size_t k = static_cast<size_t>(query.k);
  // (distance, id) entries for the one k-best merge below: the index
  // path's k best over every shard, or the scan blocks' k best, joined.
  std::vector<Entry> entries;
  if (probe.strategy == ExecutionStrategy::kIndex) {
    const NnLowerBound bound(probe.query_coeffs, config_);
    const std::vector<DimAffine>* affines_ptr = probe.affines_or_null();
    // A deleted row, or one the pattern excludes, has no distance (and is
    // never offered to the k best); +infinity is a distance like any
    // other.
    const auto exact = [&](int64_t id) -> std::optional<double> {
      if (!data.alive(id) ||
          !StatsAdmit(data.mean(id), data.std_dev(id), query.pattern)) {
        return std::nullopt;
      }
      ++out.stats.exact_checks;
      return checker.Distance(id, kInf);
    };
    // Scatter-gather kNN: the shared best-first driver runs per shard,
    // sequentially, and every shard after the first receives the merged
    // k-th distance so far as its pruning bound (answer-preserving: ties
    // at the bound are drained; see index/knn_best_first.h and DESIGN.md
    // "Sharded execution" for the argument). Each shard's results and
    // delta rows go through KeepBest -- any record it drops is beaten by
    // k results under the final tie-break order and can never re-enter.
    double kth = kInf;
    const std::vector<RelationShard::PackedView> views =
        ResolveSnapshots(data, &out.stats.degraded);
    for (int s = 0; s < data.num_shards(); ++s) {
      SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
      const double span_start = trace != nullptr ? trace->NowMs() : 0.0;
      const int64_t checks_before = out.stats.exact_checks;
      const RelationShard::PackedView& view = views[static_cast<size_t>(s)];
      int64_t shard_returned = 0;
      if (view.artifact != nullptr) {
        int64_t visited = 0;
        const auto shard_results = view.artifact->NearestNeighbors(
            bound, affines_ptr, query.k, exact,
            cross_shard_knn_pruning_ ? kth : kInf, &visited);
        out.stats.node_accesses += visited;
        shard_returned = static_cast<int64_t>(shard_results.size());
        for (const auto& [id, distance] : shard_results) {
          kth = KeepBest(k, Entry(distance, id), &entries);
        }
      }
      // Delta scan: rows past the snapshot's coverage (appended after its
      // compile, or every row when the compile failed) are invisible to
      // the tree -- exact-check each and offer it to the k best.
      const RelationShard& shard = data.shard(s);
      for (int64_t r = view.covered; r < shard.size(); ++r) {
        const int64_t id = shard.global_id(r);
        if (const std::optional<double> distance = exact(id)) {
          kth = KeepBest(k, Entry(*distance, id), &entries);
        }
      }
      if (trace != nullptr) {
        const int span =
            trace->AddCompleted("index shard", trace_parent, span_start,
                                trace->NowMs() - span_start);
        trace->SetShard(span, s);
        trace->SetRows(span, out.stats.exact_checks - checks_before, 0,
                       shard_returned);
      }
      if (!out.stats.shard_stats.empty()) {
        ExecutionStats::ShardStats& ss =
            out.stats.shard_stats[static_cast<size_t>(s)];
        ss.candidates = shard_returned;
        ss.exact_checks = out.stats.exact_checks - checks_before;
      }
    }
    out.stats.used_index = true;
  } else if (probe.filter.has_value()) {
    // The range path's filter-and-refine scan at a radius that shrinks
    // (DESIGN.md "Quantized filter"). The first scan unit runs alone on
    // the caller and seeds: it keeps its k best (distance, id) entries
    // through KeepBest, and its radius is the k-th best distance so far,
    // made safe with the largest shard slack (a block can span shards),
    // +infinity until it holds k entries. The remaining units run in
    // blocks, each starting from a copy of the seed's k best and radius
    // and shrinking its own radius from unit to unit. Per unit: the codes'
    // delta rows are exact-checked first; the column scan compacts
    // against the radius after every group of dimensions, and in the seed
    // unit it also exact-checks, after groups 1, 2, 4, 8, ..., the k
    // unchecked rows with the smallest partial bounds within the radius --
    // cheap exact distances that make the radius tight early, so every
    // later unit runs as a plain range scan. Survivors refine in ascending
    // (bound, row) order until a bound passes the radius. A pruned row's
    // distance provably exceeds its block's k-th; every distance comes
    // from the no-abandon kernel the unfiltered kNN scan runs (the
    // abandoning kernel's association differs by ulps); the copies of the
    // seed's entries are dropped, and the merge keeps the k smallest
    // (distance, id) entries -- so the answer, ties included, is
    // bit-identical.
    const ShardFilterState& filter = *probe.filter;
    const std::vector<ScanUnit> units = MakeScanUnits(data, RecordGrain(n));
    obs::ScopedSpan filter_span(trace, "filter+refine", trace_parent);
    // Scans units [unit_lo, unit_hi) into `tally` from `radius_sq`, and
    // returns the radius it shrank to; with `reseed_early` (the seed unit)
    // it also exact-checks early rows.
    const auto scan_units = [&](BlockTally<Entry>& tally, double radius_sq,
                                int64_t unit_lo, int64_t unit_hi,
                                bool reseed_early) {
      std::vector<int32_t> active;
      std::vector<double> scratch;
      std::vector<int32_t> seed;
      const auto refine = [&](int64_t id) {
        ++tally.stats.exact_checks;
        const double kth = KeepBest(
            k, Entry(checker.Distance(id, kInf), id), &tally.rows);
        radius_sq = SafeThreshold(kth * kth, filter.max_slack);
      };
      for (int64_t u = unit_lo; u < unit_hi; ++u) {
        if (ShouldStop(exec)) {
          break;
        }
        const ScanUnit& unit = units[static_cast<size_t>(u)];
        const RelationShard& shard = data.shard(unit.shard);
        const QuantizedCodes& codes =
            *filter.codes[static_cast<size_t>(unit.shard)];
        const int64_t checks_before = tally.stats.exact_checks;
        const int64_t screen_hi = std::min(unit.hi, codes.size());
        const auto refine_offset = [&](int32_t offset) {
          refine(shard.global_id(unit.lo + offset));
        };
        active.clear();
        AppendAdmitted(shard, query.pattern, unit.lo,
                       std::max(unit.lo, screen_hi), unit.hi, &active);
        for (const int32_t r : active) {
          refine_offset(r);
        }
        active.clear();
        AppendAdmitted(shard, query.pattern, unit.lo, unit.lo, screen_hi,
                       &active);
        tally.stats.filter_scanned += static_cast<int64_t>(active.size());
        // Exact-checks the k rows with the smallest partial bounds
        // within the radius, and drops them from the scan.
        const auto reseed = [&](std::vector<int32_t>* rows,
                                const double* partial) {
          seed.clear();
          for (const int32_t r : *rows) {
            if (partial[r] <= radius_sq) {
              seed.push_back(r);
            }
          }
          if (seed.size() > k) {
            std::nth_element(seed.begin(), seed.begin() + (k - 1),
                             seed.end(), ByBound(partial));
            seed.resize(k);
          }
          std::sort(seed.begin(), seed.end());
          for (const int32_t r : seed) {
            refine_offset(r);
          }
          rows->erase(std::remove_if(rows->begin(), rows->end(),
                                     [&](int32_t r) {
                                       return std::binary_search(
                                           seed.begin(), seed.end(), r);
                                     }),
                      rows->end());
        };
        int groups = 0;
        ColumnLowerBoundScan(
            codes, filter.luts[static_cast<size_t>(unit.shard)], unit.lo,
            screen_hi,
            [&](std::vector<int32_t>* rows, const double* partial) {
              ++groups;
              if (reseed_early && (groups & (groups - 1)) == 0) {
                reseed(rows, partial);
              }
              return radius_sq;
            },
            &active, &scratch);
        std::sort(active.begin(), active.end(), ByBound(scratch.data()));
        for (const int32_t r : active) {
          if (scratch[static_cast<size_t>(r)] > radius_sq) {
            break;  // bounds ascend and the radius only shrinks
          }
          refine_offset(r);
        }
        const int64_t checks = tally.stats.exact_checks - checks_before;
        tally.CountShard(unit.shard, checks, checks);
      }
      return radius_sq;
    };
    BlockTally<Entry> first;
    first.stats.shard_stats.resize(out.stats.shard_stats.size());
    const int64_t rest = static_cast<int64_t>(units.size()) - 1;
    const double seed_radius_sq =
        rest >= 0 ? scan_units(first, kInf, 0, 1, /*reseed_early=*/true)
                  : kInf;
    entries = RunBlocks<Entry>(
        rest, /*grain=*/1, &out.stats,
        [&](BlockTally<Entry>& tally, int64_t lo, int64_t hi) {
          tally.rows = first.rows;
          scan_units(tally, seed_radius_sq, lo + 1, hi + 1,
                     /*reseed_early=*/false);
        });
    FoldTally(&first, &out.stats, &entries);
    // Every block started from the seed's entries: keep one of each.
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    out.stats.used_filter = true;
    out.stats.candidates = out.stats.exact_checks;
    filter_span.Rows(out.stats.filter_scanned,
                     out.stats.filter_scanned - out.stats.candidates,
                     std::min<int64_t>(query.k,
                                       static_cast<int64_t>(entries.size())));
  } else {
    // Exact scan: every admitted row's distance is needed (no abandoning),
    // over the shard-local unit list, across shards and within them; each
    // block keeps its k best through KeepBest.
    const std::vector<ScanUnit> units = MakeScanUnits(data, RecordGrain(n));
    obs::ScopedSpan scan_span(trace, "scan", trace_parent);
    entries = RunBlocks<Entry>(
        static_cast<int64_t>(units.size()), /*grain=*/1, &out.stats,
        [&](BlockTally<Entry>& tally, int64_t unit_lo, int64_t unit_hi) {
          for (int64_t u = unit_lo; u < unit_hi; ++u) {
            if (ShouldStop(exec)) {
              break;
            }
            const ScanUnit& unit = units[static_cast<size_t>(u)];
            const RelationShard& shard = data.shard(unit.shard);
            const FeatureStore& store = shard.store();
            int64_t checks = 0;
            for (int64_t i = unit.lo; i < unit.hi; ++i) {
              if (!shard.alive(i) ||
                  !StatsAdmit(store.mean(i), store.std_dev(i),
                              query.pattern)) {
                continue;
              }
              ++checks;
              const int64_t id = shard.global_id(i);
              KeepBest(k, Entry(checker.Distance(id, kInf), id), &tally.rows);
            }
            tally.stats.exact_checks += checks;
            tally.CountShard(unit.shard, checks, checks);
          }
        });
    scan_span.Rows(out.stats.exact_checks, 0, std::min<int64_t>(
        static_cast<int64_t>(query.k), out.stats.exact_checks));
  }
  // Discard any partial answer a stopped worker left behind.
  SIMQ_RETURN_IF_ERROR(CheckExecution(query.exec));
  SIMQ_RETURN_IF_ERROR(checker.status());
  {
    obs::ScopedSpan merge(trace, "merge", trace_parent);
    out.matches = MergeBest(relation, k, entries);
    merge.Rows(0, 0, static_cast<int64_t>(out.matches.size()));
  }
  return out;
}

Result<QueryResult> Database::SelfJoin(const std::string& relation_name,
                                       double epsilon,
                                       const TransformationRule* rule,
                                       JoinMethod method) const {
  return SelfJoin(relation_name, epsilon, rule, rule, method);
}

Result<QueryResult> Database::SelfJoin(
    const std::string& relation_name, double epsilon,
    const TransformationRule* left_rule,
    const TransformationRule* right_rule, JoinMethod method,
    FilterMode filter, std::shared_ptr<const ExecutionContext> exec) const {
  SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
  const ExecutionContext* ctx = exec.get();
  const Relation* relation = GetRelation(relation_name);
  if (relation == nullptr) {
    return Status::NotFound("no relation named '" + relation_name + "'");
  }
  SIMQ_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  QueryResult out;
  const int64_t count = relation->size();
  if (count == 0) {
    return out;
  }
  const int n = relation->series_length();
  // Flat tombstone flags by global id: the O(N^2) pair loops below test
  // aliveness per pair, so pay the locator hop once per row up front.
  std::vector<uint8_t> alive(static_cast<size_t>(count), 1);
  for (int64_t g = 0; g < count; ++g) {
    alive[static_cast<size_t>(g)] =
        relation->sharded().alive(g) ? 1 : 0;
  }
  const bool symmetric = left_rule == right_rule;
  if (left_rule != nullptr && left_rule->IsNormalFormInvariant()) {
    left_rule = nullptr;
  }
  if (right_rule != nullptr && right_rule->IsNormalFormInvariant()) {
    right_rule = nullptr;
  }
  for (const TransformationRule* rule : {left_rule, right_rule}) {
    if (rule != nullptr && rule->OutputLength(n) != n) {
      return Status::InvalidArgument(
          "self-join transformations must preserve series length");
    }
  }
  const bool left_spectral = left_rule == nullptr || left_rule->IsSpectral(n);
  const bool right_spectral =
      right_rule == nullptr || right_rule->IsSpectral(n);
  const std::optional<Spectrum> left_multiplier =
      left_spectral ? MaterializeMultiplier(left_rule, n) : std::nullopt;
  const std::optional<Spectrum> right_multiplier =
      right_spectral ? MaterializeMultiplier(right_rule, n) : std::nullopt;
  SIMQ_RETURN_IF_ERROR(CheckFiniteMultiplier(left_rule, left_multiplier));
  SIMQ_RETURN_IF_ERROR(CheckFiniteMultiplier(right_rule, right_multiplier));
  const Spectrum* left_mult =
      left_multiplier.has_value() ? &*left_multiplier : nullptr;
  const Spectrum* right_mult =
      right_multiplier.has_value() ? &*right_multiplier : nullptr;

  if (method == JoinMethod::kFullScan ||
      method == JoinMethod::kScanEarlyAbandon) {
    const double threshold =
        method == JoinMethod::kFullScan ? kInf : epsilon;
    if (left_spectral && right_spectral) {
      // Batched nested-loop scan over the columnar stores. Row pointers
      // are gathered per global id once, so the O(N^2) loops below are
      // oblivious to sharding. Spectral multipliers are applied to every
      // row ONCE up front (O(N n)), so the inner loop runs the plain
      // subtract-square kernel -- the per-pair multiplier application of
      // the row-at-a-time implementation was the dominant cost of
      // early-abandoned pairs. Parallelized over outer-row blocks;
      // per-block tallies folded in block order keep the output
      // deterministic.
      const std::vector<const double*> base_rows =
          GatherSpectrumRows(relation->sharded());
      ThreadPool& pool = ThreadPool::Global();
      // Quantized filter-and-refine join (untransformed early-abandoning
      // method only). Per outer row i, a partial screen LUT over the
      // codes' most discriminating dimensions (static variance order) is
      // filled from i's exact spectrum row, and each shard's code
      // columns are swept column-major against it -- LUT rows and code
      // columns stay cache-hot across the whole inner side. A
      // partial-dimension lower bound is still a lower bound, so no true
      // pair is dropped; survivors are exact-checked in ascending global
      // j order, so the pair set, distances, and emission order match
      // the unfiltered join bit-for-bit.
      bool join_filter = method == JoinMethod::kScanEarlyAbandon && n >= 1 &&
                         left_mult == nullptr && right_mult == nullptr &&
                         filter == FilterMode::kFiltered;
      std::vector<const QuantizedCodes*> shard_codes;
      double max_energy = 0.0;
      if (join_filter) {
        const ShardedRelation& data = relation->sharded();
        shard_codes.reserve(static_cast<size_t>(data.num_shards()));
        for (int s = 0; s < data.num_shards(); ++s) {
          const QuantizedCodes* codes = data.shard(s).codes_view().artifact;
          if (codes == nullptr) {
            // Compile failed ("filter.compile"): degrade to the unfiltered
            // early-abandoning scan below -- identical pairs, no screen.
            CountFilterDegradation(&out.stats);
            shard_codes.clear();
            join_filter = false;
            break;
          }
          shard_codes.push_back(codes);
          max_energy =
              std::max(max_energy, codes->quantizer().max_row_energy());
        }
      }
      // Both join loops below run over outer-row blocks, each into its own
      // tally, folded in block order. Each outer row costs up to count * n
      // work: one row of outer loop is already a coarse unit for any
      // nontrivial relation.
      const int64_t grain =
          std::max<int64_t>(1, RecordGrain(n) / std::max<int64_t>(1, count));
      if (join_filter) {
        const ShardedRelation& data = relation->sharded();
        const int num_shards = data.num_shards();
        const double eps_sq = epsilon * epsilon;
        const double abandon_sq =
            SafeThreshold(eps_sq, 1e-9 * 2.0 * max_energy);
        const int ranks = std::min(16, shard_codes[0]->dims());
        out.pairs = RunBlocks<PairMatch>(
            count, grain, &out.stats,
            [&](BlockTally<PairMatch>& tally, int64_t lo, int64_t hi) {
              std::vector<double> lut(static_cast<size_t>(ranks) *
                                      ScalarQuantizer::kCells);
              std::vector<int32_t> active;
              std::vector<double> scratch;
              std::vector<int64_t> survivors;
              for (int64_t i = lo; i < hi; ++i) {
                if (ShouldStop(ctx)) {
                  break;
                }
                if (alive[static_cast<size_t>(i)] == 0) {
                  continue;
                }
                const double* a = base_rows[static_cast<size_t>(i)];
                survivors.clear();
                for (int s = 0; s < num_shards; ++s) {
                  const QuantizedCodes& codes = *shard_codes[s];
                  const RelationShard& shard = data.shard(s);
                  // The screen covers the codes' frozen row prefix; the
                  // shard's delta rows below skip it and go straight to
                  // the exact check (the check decides membership, so the
                  // pair set is unchanged).
                  const int64_t screen_hi =
                      std::min(shard.size(), codes.size());
                  if (screen_hi > 0) {
                    FillPairScreenLut(codes.quantizer(), a,
                                      codes.scan_order().data(), ranks,
                                      lut.data());
                    active.clear();
                    for (int64_t r = 0; r < screen_hi; ++r) {
                      const int64_t g = shard.global_id(r);
                      if (shard.alive(r) && (symmetric ? g > i : g != i)) {
                        active.push_back(static_cast<int32_t>(r));
                      }
                    }
                    tally.stats.filter_scanned +=
                        static_cast<int64_t>(active.size());
                    PairScreenScan(codes, lut.data(),
                                   codes.scan_order().data(), ranks,
                                   abandon_sq, 0, screen_hi, &active,
                                   &scratch);
                    for (const int32_t r : active) {
                      survivors.push_back(shard.global_id(r));
                    }
                  }
                  for (int64_t r = screen_hi; r < shard.size(); ++r) {
                    const int64_t g = shard.global_id(r);
                    if (shard.alive(r) && (symmetric ? g > i : g != i)) {
                      survivors.push_back(g);
                    }
                  }
                }
                std::sort(survivors.begin(), survivors.end());
                tally.stats.exact_checks +=
                    static_cast<int64_t>(survivors.size());
                for (const int64_t j : survivors) {
                  const double dist_sq = RowDistanceSq(
                      a, base_rows[static_cast<size_t>(j)], n, eps_sq);
                  if (dist_sq <= eps_sq) {
                    tally.rows.push_back(PairMatch{i, j, std::sqrt(dist_sq)});
                  }
                }
              }
            });
        out.stats.used_filter = true;
        out.stats.candidates = out.stats.exact_checks;
        SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
        return out;
      }
      const int64_t row_stride = (2 * static_cast<int64_t>(n) + 7) &
                                 ~int64_t{7};  // cache-line aligned rows
      const auto materialize = [&](const Spectrum& mult) {
        const std::vector<double> mult_ri = InterleaveSpectrum(mult);
        std::vector<double> rows(static_cast<size_t>(count * row_stride),
                                 0.0);
        pool.ParallelFor(
            0, count, RecordGrain(n),
            [&](int64_t /*block*/, int64_t lo, int64_t hi) {
              for (int64_t i = lo; i < hi; ++i) {
                const double* src = base_rows[static_cast<size_t>(i)];
                double* dst = rows.data() + i * row_stride;
                for (int f = 0; f < 2 * n; f += 2) {
                  const double ar = src[f], ai = src[f + 1];
                  const double mr = mult_ri[static_cast<size_t>(f)];
                  const double mi = mult_ri[static_cast<size_t>(f + 1)];
                  dst[f] = ar * mr - ai * mi;
                  dst[f + 1] = ar * mi + ai * mr;
                }
              }
            });
        return rows;
      };
      // A symmetric join transforms both sides identically: share the
      // left side's premultiplied rows.
      const bool share_rows = symmetric && left_mult != nullptr;
      std::vector<double> left_rows;
      std::vector<double> right_rows;
      if (left_mult != nullptr) {
        left_rows = materialize(*left_mult);
      }
      if (right_mult != nullptr && !share_rows) {
        right_rows = materialize(*right_mult);
      }
      const auto left_row = [&](int64_t i) {
        return left_mult != nullptr ? left_rows.data() + i * row_stride
                                    : base_rows[static_cast<size_t>(i)];
      };
      const auto right_row = [&](int64_t j) -> const double* {
        if (right_mult == nullptr) {
          return base_rows[static_cast<size_t>(j)];
        }
        return (share_rows ? left_rows : right_rows).data() +
               j * row_stride;
      };
      const double limit_sq =
          threshold == kInf ? kInf : threshold * threshold;
      const double eps_sq = epsilon * epsilon;
      // Prefix screen for the early-abandoning method: the first two
      // coefficients of every (transformed) row packed contiguously, so a
      // pair that abandons immediately -- almost all of them at similarity
      // thresholds -- touches 32 sequential bytes instead of a cache line
      // of a 2 n-double strided row. The screen replays exactly the
      // kernels' prefix check, so it never changes the outcome.
      const bool screen = limit_sq != kInf && n >= 2;
      std::vector<double> right_prefix;
      if (screen) {
        right_prefix.resize(static_cast<size_t>(count) * 4);
        for (int64_t j = 0; j < count; ++j) {
          const double* row = right_row(j);
          double* p = right_prefix.data() + 4 * j;
          p[0] = row[0];
          p[1] = row[1];
          p[2] = row[2];
          p[3] = row[3];
        }
      }
      out.pairs = RunBlocks<PairMatch>(
          count, grain, &out.stats,
          [&](BlockTally<PairMatch>& tally, int64_t lo, int64_t hi) {
            int64_t checks = 0;
            for (int64_t i = lo; i < hi; ++i) {
              if (ShouldStop(ctx)) {
                break;
              }
              if (alive[static_cast<size_t>(i)] == 0) {
                continue;
              }
              const double* a = left_row(i);
              const double a0 = a[0], a1 = a[1];
              const double a2 = n >= 2 ? a[2] : 0.0;
              const double a3 = n >= 2 ? a[3] : 0.0;
              for (int64_t j = symmetric ? i + 1 : 0; j < count; ++j) {
                if (j == i || alive[static_cast<size_t>(j)] == 0) {
                  continue;
                }
                ++checks;
                if (screen &&
                    PrefixScreenDead(right_prefix.data() + 4 * j, a0, a1,
                                     a2, a3, limit_sq)) {
                  continue;
                }
                const double dist_sq =
                    RowDistanceSq(a, right_row(j), n, limit_sq);
                // Squared-domain compare: sqrt only for accepted pairs.
                if (dist_sq <= eps_sq) {
                  tally.rows.push_back(PairMatch{i, j, std::sqrt(dist_sq)});
                }
              }
            }
            tally.stats.exact_checks += checks;
          });
    } else {
      // Non-spectral rule(s): transform every series once per side, then
      // compare in the time domain.
      std::vector<std::vector<double>> left_values(
          static_cast<size_t>(count));
      std::vector<std::vector<double>> right_values(
          static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) {
        if (alive[static_cast<size_t>(i)] == 0) {
          continue;  // dead rows never join; skip their transforms too
        }
        const double* normal = relation->sharded().NormalRow(i);
        const std::vector<double> base(normal, normal + n);
        left_values[static_cast<size_t>(i)] =
            left_rule != nullptr ? left_rule->Apply(base) : base;
        right_values[static_cast<size_t>(i)] =
            right_rule != nullptr ? right_rule->Apply(base) : base;
      }
      for (int64_t i = 0; i < count; ++i) {
        if (alive[static_cast<size_t>(i)] == 0) {
          continue;
        }
        SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
        for (int64_t j = symmetric ? i + 1 : 0; j < count; ++j) {
          if (j == i || alive[static_cast<size_t>(j)] == 0) {
            continue;
          }
          ++out.stats.exact_checks;
          const double distance =
              method == JoinMethod::kFullScan
                  ? EuclideanDistance(left_values[static_cast<size_t>(i)],
                                      right_values[static_cast<size_t>(j)])
                  : EuclideanDistanceEarlyAbandon(
                        left_values[static_cast<size_t>(i)],
                        right_values[static_cast<size_t>(j)], epsilon);
          if (distance <= epsilon) {
            out.pairs.push_back(PairMatch{i, j, distance});
          }
        }
      }
    }
    SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
    return out;
  }

  // Index nested-loop methods (Table 1 c and d). Probe side: left rule
  // applied to the probe's coefficients; data side: right rule applied to
  // the index on the fly (Algorithm 1).
  std::optional<LinearTransform> left_transform;
  std::optional<LinearTransform> right_transform;
  std::vector<DimAffine> affines;
  const std::vector<DimAffine>* affines_ptr = nullptr;
  const Spectrum* post_left = nullptr;
  const Spectrum* post_right = nullptr;
  if (method == JoinMethod::kIndexTransform) {
    if (!left_spectral || !right_spectral) {
      return Status::FailedPrecondition(
          "index join requires spectral transformations");
    }
    if (left_rule != nullptr) {
      left_transform = left_rule->IndexTransform(n, config_.num_coefficients);
      if (!left_transform.has_value()) {
        return Status::FailedPrecondition(
            "left transformation has no index form");
      }
    }
    if (right_rule != nullptr) {
      right_transform =
          right_rule->IndexTransform(n, config_.num_coefficients);
      if (!right_transform.has_value() ||
          !right_transform->IsSafeIn(config_.space)) {
        return Status::FailedPrecondition(
            "right transformation is not safe in the configured feature "
            "space");
      }
      affines = LowerToFeatureSpace(*right_transform, config_);
      affines_ptr = &affines;
    }
    post_left = left_mult;
    post_right = right_mult;
  }

  // Index nested loop over the shard grid: every probe record is paired
  // with every shard's tree (probe side x shard trees), parallelized over
  // probe blocks -- the packed trees are immutable, so concurrent
  // searches are safe, and per-block tallies folded in block order
  // keep the output deterministic. ResolveSnapshots compiles every
  // shard's tree before the fan-out, so workers never contend on a
  // compile lock. For each probe, candidates arrive shard by shard; the
  // union over shards plus the delta rows is exactly the unsharded
  // candidate superset, and the exact checks (over gathered rows) decide
  // membership identically.
  const ShardedRelation& data = relation->sharded();
  const std::vector<const double*> base_rows = GatherSpectrumRows(data);
  std::vector<double> post_left_ri;
  std::vector<double> post_right_ri;
  const double* post_left_ptr = nullptr;
  const double* post_right_ptr = nullptr;
  if (post_left != nullptr) {
    post_left_ri = InterleaveSpectrum(*post_left);
    post_left_ptr = post_left_ri.data();
  }
  if (post_right != nullptr) {
    post_right_ri = InterleaveSpectrum(*post_right);
    post_right_ptr = post_right_ri.data();
  }
  const double eps_sq = epsilon * epsilon;
  out.stats.used_index = true;
  const std::vector<RelationShard::PackedView> views =
      ResolveSnapshots(data, &out.stats.degraded);
  out.pairs = RunBlocks<PairMatch>(
      count, /*grain=*/16, &out.stats,
      [&](BlockTally<PairMatch>& tally, int64_t lo, int64_t hi) {
        std::vector<int64_t> candidates;
        const auto check = [&](int64_t i, const double* a, int64_t j) {
          ++tally.stats.exact_checks;
          const double dist_sq =
              RowDistanceSqTwoSided(a, base_rows[static_cast<size_t>(j)],
                                    post_left_ptr, post_right_ptr, n, eps_sq);
          if (dist_sq <= eps_sq) {
            tally.rows.push_back(PairMatch{i, j, std::sqrt(dist_sq)});
          }
        };
        for (int64_t i = lo; i < hi; ++i) {
          if (ShouldStop(ctx)) {
            break;
          }
          if (alive[static_cast<size_t>(i)] == 0) {
            continue;
          }
          // X1..Xk of the probe, read from its stored spectrum row as
          // ExtractCoefficients reads a Spectrum (zero past n).
          const double* a = base_rows[static_cast<size_t>(i)];
          std::vector<Complex> query_coeffs(
              static_cast<size_t>(config_.num_coefficients));
          for (int c = 0; c < config_.num_coefficients && c + 1 < n; ++c) {
            query_coeffs[static_cast<size_t>(c)] = RowCoefficient(a, c + 1);
          }
          if (left_transform.has_value()) {
            query_coeffs = left_transform->Apply(query_coeffs);
          }
          const SearchRegion region =
              SearchRegion::MakeRange(query_coeffs, epsilon, config_);
          for (const RelationShard::PackedView& view : views) {
            if (view.artifact == nullptr) {
              continue;
            }
            candidates.clear();
            tally.stats.node_accesses +=
                view.artifact->Search(region, affines_ptr, &candidates);
            tally.stats.candidates += static_cast<int64_t>(candidates.size());
            for (const int64_t j : candidates) {
              if (j != i && alive[static_cast<size_t>(j)] != 0) {
                check(i, a, j);
              }
            }
          }
          // Delta scan per probe: inner rows past each shard's coverage
          // (every row of a shard whose compile failed) are not in the
          // trees -- exact-check them directly (the check decides
          // membership, so the pair set is unchanged).
          for (int s = 0; s < data.num_shards(); ++s) {
            const RelationShard& shard = data.shard(s);
            for (int64_t r = views[static_cast<size_t>(s)].covered;
                 r < shard.size(); ++r) {
              const int64_t j = shard.global_id(r);
              if (j != i && shard.alive(r)) {
                check(i, a, j);
              }
            }
          }
        }
      });
  SIMQ_RETURN_IF_ERROR(CheckExecution(exec));
  return out;
}

}  // namespace simq
