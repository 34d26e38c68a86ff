/// The concurrent query service: the layer that turns the single-Database
/// engine into something that serves sustained multi-client traffic.
///
/// A QueryService owns a Database and serves any number of concurrent
/// Sessions. Four mechanisms, layered (see DESIGN.md "Query service"):
///
///  * Snapshot-isolated concurrency. All data-plane reads and writes go
///    through one reader/writer lock (std::shared_mutex): queries hold it
///    shared -- any number run fully in parallel, on the immutable packed
///    index snapshot and the append-only columnar store -- while
///    Insert/BulkLoad/CreateRelation hold it exclusive. Every relation
///    carries a monotonically increasing epoch -- the roll-up of its
///    per-shard mutation counters (core/sharded_relation.h), bumped by
///    every mutation of any shard; a query reads the epoch once under the
///    shared lock, so the epoch it reports (and caches under) names
///    exactly the (records, FeatureStore, PackedRTree) version it
///    executed against.
///
///  * Prepared queries. Session::Prepare parses and validates once;
///    ExecutePrepared reuses the AST -- including the compiled
///    TransformationRule chain and, when the query series is a literal, its
///    precomputed normal form -- and binds per-execution parameters
///    (epsilon, k, the query series). Prepared execution returns answers
///    bit-identical to a cold parse->execute of the same text.
///
///  * Result cache. Successful results are cached under the canonical
///    query key + relation epoch + generation (service/fingerprint.h,
///    service/result_cache.h); mutations invalidate per relation. A hit
///    replays the original answer set without touching the engine. The
///    cache is bounded both by entry count and by approximate bytes
///    (ServiceOptions::result_cache_max_bytes).
///
///  * Admission scheduler. At most `max_concurrent_queries` queries execute
///    at once (the rest wait FIFO-ish on a condition variable, bounded by
///    ServiceOptions::admission_timeout_ms -> kOverloaded), and each
///    admitted query gets a parallelism budget of roughly
///    pool_threads / running_queries, installed as a
///    ThreadPool::ScopedParallelismBudget -- one query saturates the
///    machine when alone, concurrent queries share it instead of
///    oversubscribing the pool with 4x blocks each.
///
/// Query-lifecycle hardening (this layer's fault story; DESIGN.md
/// "Durability & fault handling"):
///
///  * Deadlines. Every execution may carry a deadline
///    (ExecOptions::deadline_ms, defaulting to
///    ServiceOptions::default_deadline_ms). The service binds it into an
///    ExecutionContext on the query; the engine polls it at block
///    boundaries and the admission wait respects it, so an expired query
///    returns kTimeout within one poll interval -- whether it was running
///    or still queued -- and never returns partial answers.
///
///  * Cancellation. Session::Cancel() cancels every query in flight on
///    that session (they return kCancelled at their next poll) and makes
///    the session refuse new executions until ResetCancel(). Admission
///    waiters are woken and bail out too -- a cancelled query never
///    consumes an execution slot.
///
///  * Overload shedding. When the admission wait exceeds
///    admission_timeout_ms the execution fails fast with kOverloaded
///    instead of queueing unboundedly. Slots never leak: only an admitted
///    execution decrements the running count.
///
///  * Graceful degradation. A failed packed-tree or quantized-code
///    compile (fault-injected today, any real resource failure tomorrow)
///    makes the engine exact-scan the rows that artifact would have
///    pruned; the service surfaces it in QueryPlan::degraded and the
///    degraded_queries counter. Answers are identical; only the
///    acceleration is lost. An exception escaping the engine (e.g. the
///    "pool.task" failpoint) is caught and returned as kInternal -- one
///    poisoned query never takes down the service or its sessions.
///
///  * Durability. With ServiceOptions::wal_path set, every successful
///    mutation is appended to the write-ahead log (core/wal.h) under the
///    same exclusive lock that applied it -- log order is apply order --
///    and synced before the mutation is acknowledged (sync_wal).
///    Checkpoint() writes an atomic snapshot (core/persistence.h) and
///    truncates the log. Build the Database with OpenDurableDatabase over
///    the same paths to recover: snapshot + WAL replay reconstructs every
///    acknowledged mutation after a crash at any instruction.
///
/// Observability (DESIGN.md "Observability"): every counter the service
/// keeps lives in an obs::MetricRegistry -- owned per service by default
/// so instances never bleed into each other, shareable via
/// ServiceOptions::metrics_registry. Latency percentiles come from a
/// bounded log-bucketed histogram (simq_query_latency_ms), not a sample
/// vector. Executions are traced (a span tree on the ExecutionContext)
/// when the query is EXPLAIN ANALYZE, when ExecOptions::force_trace is
/// set, or when the 1-in-N sampler (ServiceOptions::trace_sample_every)
/// fires; traced queries that cross the slow-query threshold are appended
/// to the structured JSONL slow-query log (obs/slow_query_log.h).
/// ServiceStats remains the aggregated read API; stats() assembles it
/// from the registry.
///
/// Thread-safety summary (which lock guards what):
///  * data_mutex_ (std::shared_mutex): the database, its epochs, and the
///    WAL writer. Execute/ExecuteText/ExecutePrepared/RelationEpoch take
///    it shared; CreateRelation/Insert/BulkLoad/Checkpoint take it
///    exclusive. Everything that runs under the shared lock is
///    snapshot-safe: packed index snapshots are immutable, FeatureStores
///    append-only, node-access counters relaxed atomics.
///  * admission_mutex_: the running-query count and its condvar.
///  * stats_mutex_: session-id allocation. Counters live in the metrics
///    registry (sharded atomics; obs/metrics.h) and need no lock.
///  * Session::mutex_: that session's prepared-statement map, cancel
///    flag, and in-flight execution contexts.
/// All public methods of QueryService and Session are safe to call from
/// any thread concurrently, EXCEPT database_unlocked() /
/// mutable_database_unlocked(), which bypass data_mutex_ by design.
///
/// Lifetime: Sessions hold a pointer to their service. Destroy all
/// sessions before the service (the shell and tests scope them naturally).

#ifndef SIMQ_SERVICE_QUERY_SERVICE_H_
#define SIMQ_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/database.h"
#include "core/exec_context.h"
#include "core/query.h"
#include "core/wal.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_usage.h"
#include "obs/slow_query_log.h"
#include "obs/statements.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "service/result_cache.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace simq {

class QueryService;

struct ServiceOptions {
  /// Maximum queries executing simultaneously; 0 means the thread pool
  /// width (ThreadPool::Global().num_threads()).
  int max_concurrent_queries = 0;
  /// Result cache entries; 0 disables caching entirely (no lookups, no
  /// inserts -- the switch for callers that need every read to execute).
  size_t result_cache_capacity = 256;
  /// Approximate byte budget for the result cache; 0 = unbounded. LRU
  /// entries are evicted past it, so one huge answer set cannot pin
  /// unbounded memory (service/result_cache.h).
  size_t result_cache_max_bytes = 0;

  /// Metrics registry to record into. Null (the default) means the
  /// service constructs and owns a private registry -- counters never
  /// bleed across service instances. Pass one to share a registry across
  /// services or to scrape it from outside; it must outlive the service.
  obs::MetricRegistry* metrics_registry = nullptr;
  /// Trace 1 in N executions (0 = never sample). Independent of EXPLAIN
  /// ANALYZE and ExecOptions::force_trace, which always trace.
  int trace_sample_every = 0;
  /// Structured slow-query log (obs/slow_query_log.h); empty = disabled.
  /// Only traced executions are considered -- a slow line always carries
  /// its span tree.
  std::string slow_query_log_path;
  /// Minimum elapsed time for a traced query to reach the slow-query log.
  double slow_query_threshold_ms = 100.0;
  /// Keep 1 in N of the qualifying (slow) queries; 1 logs them all.
  int slow_query_sample_every = 1;

  /// Default per-query deadline in milliseconds; 0 = no deadline.
  /// ExecOptions::deadline_ms overrides it per execution.
  double default_deadline_ms = 0.0;
  /// Longest an execution may wait for an admission slot before failing
  /// with kOverloaded; 0 = wait indefinitely (the historical behavior).
  double admission_timeout_ms = 0.0;

  /// Per-query resource accounting (obs/resource_usage.h): thread-CPU
  /// metering through the pool's per-task CLOCK_THREAD_CPUTIME_ID deltas
  /// plus the engine effort counters, returned on ServiceResult::usage
  /// and aggregated into the statements table. Off leaves every usage
  /// field zero and skips the clock reads (bench/obs_overhead.cc gates
  /// the on-cost at < 2%).
  bool enable_resource_accounting = true;
  /// Statement shapes the statements table tracks (LRU-bounded;
  /// obs/statements.h). 0 disables the table entirely.
  size_t statements_capacity = 256;
  /// Flight recorder receiving query/mutation/lifecycle events
  /// (obs/flight_recorder.h). Defaults to the process-wide black box;
  /// tests pass a private recorder, nullptr disables recording.
  obs::FlightRecorder* flight_recorder = &obs::FlightRecorder::Global();
  /// Stall watchdog (obs/watchdog.h): when > 0, a background thread
  /// fires -- records a "stall" event with the admission snapshot and
  /// dumps the flight recorder to its crash path -- whenever no query
  /// completes for this long while executions are pending. 0 = off.
  double watchdog_stall_after_ms = 0.0;
  /// Watchdog probe cadence (bounds detection latency only).
  double watchdog_poll_interval_ms = 250.0;

  /// Durability (off when wal_path is empty): successful mutations are
  /// appended to the WAL at wal_path before being acknowledged;
  /// Checkpoint() snapshots to snapshot_path and truncates the log.
  /// Recover by building the Database with OpenDurableDatabase over the
  /// same paths before handing it to the service.
  std::string snapshot_path;
  std::string wal_path;
  /// Sync the WAL (fdatasync) on every acknowledged mutation. Turning it
  /// off trades the tail of acknowledged-but-unsynced mutations for
  /// append throughput; replay correctness is unaffected.
  bool sync_wal = true;
};

/// Per-execution options (deadline today; the natural place for priority
/// or tracing knobs later). Distinct from BindParams, which binds query
/// *parameters* -- these knobs never affect the answer set.
struct ExecOptions {
  /// Deadline for this execution in milliseconds. Negative = use
  /// ServiceOptions::default_deadline_ms; 0 = explicitly unbounded;
  /// positive = this budget, measured from the Execute call (queue time
  /// counts against it).
  double deadline_ms = -1.0;
  /// Trace this execution regardless of the sampler (the shell's `.trace
  /// on`). The span tree comes back on ServiceResult::trace. Tracing
  /// never affects the answer set.
  bool force_trace = false;
};

/// Per-execution parameter bindings for a prepared statement. Unset fields
/// keep the prepared template's values.
struct BindParams {
  std::optional<double> epsilon;   // range / all-pairs threshold
  std::optional<int> k;            // nearest-neighbor count
  std::optional<SeriesRef> series; // range / nearest query object
};

/// How one execution was served; EXPLAIN renders this.
struct QueryPlan {
  std::string strategy;  // "index" or "scan"
  std::string engine;    // "packed" (index) or "columnar" (scan)
  /// Scan-side filter actually used: "quantized" when the execution took
  /// the filter-and-refine path, "none" otherwise.
  std::string filter = "none";
  bool cache_hit = false;
  bool prepared = false;
  bool explain = false;  // the query carried the EXPLAIN prefix
  bool analyze = false;  // EXPLAIN ANALYZE: executed and traced
  /// A derived-artifact compile failed and the engine fell back: a failed
  /// packed-tree compile sends the shard's rows to the exact delta scan,
  /// a failed code compile sends a filtered query to the exact kernels.
  /// Answers identical; `engine`/`filter` report the path actually taken.
  bool degraded = false;
  /// Shards of the queried relation (the scatter-gather width); 0 when the
  /// relation does not exist.
  int shards = 0;
  /// Quantized filter path only (0 / 0 / 0.0 otherwise): records or pairs
  /// bound-scanned, survivors refined through the exact kernels, and the
  /// fraction of scanned entries the bounds pruned.
  int64_t filter_scanned = 0;
  int64_t candidates = 0;
  double pruning_ratio = 0.0;
  uint64_t relation_epoch = 0;
  /// Artifact generation of the queried relation: bumped by every
  /// recompaction publish (core/sharded_relation.h), never by mutations.
  /// Answers are bit-identical across generations; the generation names
  /// which compiled snapshot served the query.
  uint64_t generation = 0;
  /// Rows currently in the relation's delta layer -- appended since its
  /// packed snapshots were compiled, merged into answers by exact scans.
  int64_t delta_rows = 0;
  uint64_t fingerprint = 0;  // QueryFingerprint of the executed AST
  /// Per-shard cardinalities (ExecutionStats::ShardStats): estimated
  /// candidates always (EXPLAIN and EXPLAIN ANALYZE render the
  /// estimated-vs-actual columns from the same rows), actuals filled by
  /// the execution. Empty on cache hits replaying a pre-observability
  /// entry and on queries that never reached the engine.
  std::vector<ExecutionStats::ShardStats> per_shard;
};

struct ServiceResult {
  QueryResult result;
  QueryPlan plan;
  double elapsed_ms = 0.0;
  /// Span tree of this execution; non-null only when it was traced
  /// (EXPLAIN ANALYZE, ExecOptions::force_trace, or the sampler).
  /// RenderTraceTree(trace->spans()) prints it.
  std::shared_ptr<obs::Trace> trace;
  /// What this execution cost (obs/resource_usage.h). Engine effort
  /// counters are zero on cache hits -- the replay did no engine work --
  /// while result_bytes and cpu_ns always reflect this execution. All
  /// zero when ServiceOptions::enable_resource_accounting is off.
  obs::ResourceUsage usage;
};

struct ServiceStats {
  int64_t queries = 0;              // total executions, including hits
  int64_t prepared_executions = 0;  // served via ExecutePrepared
  int64_t cold_parses = 0;          // text parses (Prepare + one-shot)
  int64_t mutations = 0;            // Insert/BulkLoad/CreateRelation
  int64_t admission_waits = 0;      // executions that queued for a slot
  int64_t sessions_opened = 0;
  int64_t active_sessions = 0;
  /// Query-lifecycle terminations (each failed execution counts once).
  int64_t timeouts = 0;       // kTimeout: deadline hit, queued or running
  int64_t cancellations = 0;  // kCancelled: Session::Cancel observed
  int64_t overloaded = 0;     // kOverloaded: admission wait timed out
  /// Executions that completed degraded (QueryPlan::degraded; cache-hit
  /// replays of a degraded result are not re-counted).
  int64_t degraded_queries = 0;
  /// Executions that carried a trace (ANALYZE, force_trace, or sampled).
  int64_t traced_queries = 0;
  /// Lines appended to the slow-query log (0 when it is disabled).
  int64_t slow_query_log_lines = 0;
  /// Durability counters (all 0 when wal_path is unset).
  int64_t wal_appends = 0;   // mutation frames acknowledged to the log
  int64_t wal_failures = 0;  // appends/syncs that returned an error
  int64_t checkpoints = 0;   // successful Checkpoint() calls
  /// Delta-layer state and maintenance (all 0 when the delta layer is
  /// off or nothing has been mutated since the last recompaction).
  int64_t recompactions = 0;     // successful recompaction publishes
  int64_t delta_rows = 0;        // rows currently in delta layers
  int64_t delta_tombstones = 0;  // deletes not yet shed by recompaction
  ResultCache::Stats cache;
  /// Latency percentiles from the simq_query_latency_ms histogram
  /// (milliseconds); 0 when no samples yet.
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Network front-end counters, folded in by src/net/server.cc through
  /// the Note* hooks below (all 0 when no NetServer fronts this service).
  struct NetStats {
    int64_t connections_accepted = 0;
    int64_t connections_active = 0;
    int64_t connections_shed = 0;      // refused at accept (overload)
    int64_t connections_timed_out = 0; // closed by idle/stall timers
    int64_t requests_shed = 0;         // kOverloaded before reaching a slot
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
  };
  NetStats net;
};

/// A client's handle: a prepared-statement namespace plus entry points for
/// one-shot text queries. Sessions are cheap; open one per client/thread.
/// Each session is internally synchronized, so sharing one across threads
/// is also safe -- including Cancel() of a query another thread is running.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int64_t id() const { return id_; }

  /// Parses and validates `text` once; returns a statement id for
  /// ExecutePrepared. The compiled transformation chain and (for literal
  /// query series in normal-form mode) the precomputed normal form are
  /// reused by every execution.
  Result<int64_t> Prepare(const std::string& text);

  /// Executes a prepared statement with optional parameter bindings.
  Result<ServiceResult> ExecutePrepared(int64_t statement_id,
                                        const BindParams& params = {},
                                        const ExecOptions& options = {});

  /// One-shot: parse + execute (the cold path the bench compares against).
  Result<ServiceResult> Execute(const std::string& text,
                                const ExecOptions& options = {});

  /// Drops a prepared statement; subsequent executions return NotFound.
  Status Close(int64_t statement_id);

  /// Cancels every execution currently in flight on this session (each
  /// returns kCancelled at its next poll, within one block of work) and
  /// puts the session in the cancelled state: new executions fail
  /// immediately with kCancelled until ResetCancel(). Admission waiters
  /// are woken so a queued query never consumes a slot after cancel.
  void Cancel();
  /// Leaves the cancelled state; already-cancelled executions stay
  /// cancelled (the flag on their context is sticky by design).
  void ResetCancel();

  /// Cumulative ResourceUsage of every successful execution finished on
  /// this session -- the per-session (and, for the network server, whose
  /// connections own exactly one session each, per-connection) roll-up.
  obs::ResourceUsage cumulative_usage() const;

 private:
  friend class QueryService;

  struct PreparedStatement {
    std::string text;
    Query query;
    /// Normal form of a literal query series, computed once at Prepare and
    /// substituted (with query_prenormalized set) on execution -- the
    /// normalize+nothing-else part of the per-query setup cost.
    std::vector<double> normalized_literal;
  };

  Session(QueryService* service, int64_t id) : service_(service), id_(id) {}

  /// RAII pairing of BeginExecution/EndExecution (defined in the .cc).
  class ScopedExecution;

  /// Creates this execution's context -- deadline resolved from
  /// `options`, born cancelled if the session is -- and registers it so
  /// Cancel() can reach it. Every BeginExecution is paired with
  /// EndExecution (RAII in the call sites).
  std::shared_ptr<ExecutionContext> BeginExecution(
      const ExecOptions& options);
  void EndExecution(const ExecutionContext* ctx);

  /// Folds a finished execution's usage into the session roll-up.
  void NoteUsage(const Result<ServiceResult>& result);

  QueryService* service_;
  int64_t id_;
  mutable std::mutex mutex_;
  std::unordered_map<int64_t, PreparedStatement> statements_;
  int64_t next_statement_id_ = 1;
  bool cancel_requested_ = false;
  std::vector<std::shared_ptr<ExecutionContext>> inflight_;
  obs::ResourceUsage usage_;  // guarded by mutex_
};

class QueryService {
 public:
  /// Takes ownership of the database; all subsequent access goes through
  /// the service's locking discipline. With ServiceOptions::wal_path set,
  /// the WAL is opened (created) here; an open failure is deferred --
  /// every subsequent mutation fails with that status rather than
  /// silently running non-durable (queries are unaffected).
  explicit QueryService(Database db, ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  std::unique_ptr<Session> OpenSession();

  /// Data-plane writes under the exclusive lock, with eager cache
  /// invalidation. Insert/BulkLoad bump the routed shard epochs (and so
  /// the relation epoch); CreateRelation makes the relation visible at
  /// epoch 0 -- its first data mutation produces the first nonzero
  /// version. With durability on, the mutation is WAL-appended (and
  /// synced) under the same lock before it is acknowledged; a WAL failure
  /// surfaces as the returned status even though the in-memory state has
  /// advanced -- the caller must treat the service as needing a
  /// checkpoint or restart, not retry blindly.
  Status CreateRelation(const std::string& name);
  Result<int64_t> Insert(const std::string& relation,
                         const TimeSeries& series);
  Status BulkLoad(const std::string& relation,
                  const std::vector<TimeSeries>& series);
  /// Deletes one series by id: a tombstone in the data plane (the record
  /// stays stored and its name stays reserved; core/database.h), logged
  /// to the WAL like any other mutation. Queries stop returning the
  /// series immediately; the tombstone is shed by the next recompaction.
  Status Delete(const std::string& relation, int64_t id);

  /// Synchronously folds `relation`'s delta layer into a fresh artifact
  /// generation: build under the shared lock (readers keep running),
  /// publish under the exclusive lock (a brief swap). The service also
  /// runs this in the background once a relation's delta pressure
  /// crosses DeltaOptions::recompact_threshold -- at most one in-flight
  /// recompaction per relation; the destructor waits for them.
  Status Recompact(const std::string& relation);

  /// Ad-hoc execution of a parsed query (sessions call this too). The
  /// ExecOptions overload binds a deadline context onto the query when it
  /// does not already carry one.
  Result<ServiceResult> Execute(const Query& query);
  Result<ServiceResult> Execute(const Query& query,
                                const ExecOptions& options);
  /// Parse + Execute; equivalent to Session::Execute without a session.
  Result<ServiceResult> ExecuteText(const std::string& text,
                                    const ExecOptions& options = {});

  /// Durability checkpoint: atomically snapshots the database to
  /// ServiceOptions::snapshot_path (core/persistence.h) and truncates the
  /// WAL, all under the exclusive lock. Requires snapshot_path; the WAL
  /// is only truncated after the snapshot rename committed, so a crash
  /// anywhere in between still recovers every acknowledged mutation.
  Status Checkpoint();
  /// True when this service was configured with a WAL and it opened.
  bool durable() const { return wal_.is_open(); }

  /// Current epoch of a relation: the roll-up of its per-shard epochs
  /// (core/sharded_relation.h), read under the shared data lock. 0 for a
  /// relation that does not exist or has never been mutated; bumped by
  /// every mutation of any shard, whether it happened through this service
  /// or before the service took ownership of the database.
  uint64_t RelationEpoch(const std::string& relation) const;

  ServiceStats stats() const;

  /// The registry this service records into: the injected one
  /// (ServiceOptions::metrics_registry) or the service's own. Scrape it
  /// with RenderPrometheusText() after RefreshScrapeGauges(). Never
  /// null; stable for the service lifetime.
  obs::MetricRegistry* metrics_registry() const { return registry_; }

  /// Re-derives every gauge a scrape reads -- delta/generation state,
  /// result-cache mirrors, statements-table size -- without assembling a
  /// full ServiceStats. The HTTP exporter's refresh callback and the
  /// wire kMetrics handler call this so scrapes are never stale, whether
  /// or not anything called stats() in between.
  void RefreshScrapeGauges() const;

  /// The statements table (pg_stat_statements-style per-shape
  /// aggregates; obs/statements.h). Never null; a zero
  /// ServiceOptions::statements_capacity leaves it permanently empty.
  const obs::StatementsTable* statements() const { return &statements_; }
  obs::StatementsTable* statements() { return &statements_; }

  /// The flight recorder this service records into; may be null
  /// (recording disabled).
  obs::FlightRecorder* flight_recorder() const {
    return options_.flight_recorder;
  }

  /// Span tree of the most recent recompaction (build/publish phases),
  /// null until one has run. Recompactions are service-internal, so
  /// their traces surface here rather than on any ServiceResult.
  std::shared_ptr<obs::Trace> last_recompaction_trace() const;

  /// Network front-end hooks (called by net::NetServer): fold connection
  /// and byte counters into ServiceStats::net so the shell's `.stats` and
  /// the wire kStats frame report them alongside the query counters. Safe
  /// from any thread; no-ops never occur -- every call counts.
  void NoteConnectionOpened();
  void NoteConnectionClosed(bool timed_out);
  void NoteConnectionShed();
  void NoteRequestShed();
  void NoteNetBytes(int64_t bytes_in, int64_t bytes_out);

  /// The owned database, without any locking. Safe only while no other
  /// thread is using the service (setup, teardown, single-threaded tools).
  const Database& database_unlocked() const { return db_; }
  Database& mutable_database_unlocked() { return db_; }

 private:
  friend class Session;

  /// RAII admission slot: waits until the service is below its concurrency
  /// limit -- bounded by the admission timeout, the query's deadline, and
  /// cancellation -- and computes this query's parallelism budget. When
  /// the wait fails, ok() is false, status() carries the typed error
  /// (kOverloaded / kTimeout / kCancelled), and the destructor releases
  /// nothing: only admitted slots are ever counted, so none can leak.
  class AdmissionSlot;

  /// `parse_ms` is the cold-parse duration when the caller parsed text
  /// for this execution (recorded as the trace's "parse" span); 0 for
  /// prepared/ad-hoc executions.
  Result<ServiceResult> ExecuteInternal(const Query& query, bool prepared,
                                        double parse_ms = 0.0);
  /// Execute with options resolved into a context (deadline, forced
  /// trace) plus the parse duration for the trace's "parse" span.
  Result<ServiceResult> ExecuteBound(const Query& query,
                                     const ExecOptions& options,
                                     double parse_ms);
  /// ParseQuery plus the cold-parse counter (every text parse goes here).
  /// `parse_ms`, when non-null, receives the parse duration.
  Result<Query> ParseTracked(const std::string& text,
                             double* parse_ms = nullptr);
  /// True when the 1-in-N sampler elects the next execution for tracing.
  bool SampleTrace();
  /// The effective deadline for `options` in ms; 0 = none.
  double ResolveDeadlineMs(const ExecOptions& options) const;
  /// Bumps the termination counter matching a failed execution's status.
  void CountTermination(const Status& status);
  /// Durability prologue/epilogue for mutations (caller holds data_mutex_
  /// exclusively): WalGate() fails fast -- before the mutation applies --
  /// when a configured WAL is not open; FinishAppend() folds in the sync
  /// and maintains the wal_appends / wal_failures counters. Both are
  /// no-op Ok when durability is off.
  Status WalGate() const;
  Status FinishAppend(Status append_status);
  /// Relation epoch + shard count; caller holds data_mutex_ (any mode).
  uint64_t EpochLocked(const std::string& relation, int* shards) const;
  /// Relation generation + current delta rows; caller holds data_mutex_.
  uint64_t GenerationLocked(const std::string& relation,
                            int64_t* delta_rows) const;
  /// Spawns a background recompaction of `relation` when its delta
  /// pressure has crossed the threshold and none is already in flight.
  /// Called after mutations, outside the data lock.
  void MaybeScheduleRecompaction(const std::string& relation);
  /// Build (shared lock) + publish (exclusive lock) + metrics; the body
  /// of both Recompact() and the background path.
  Status RunRecompaction(const std::string& relation);
  /// Re-derives the delta gauges from the data plane; caller holds
  /// data_mutex_ (any mode -- the gauges are atomics).
  void RefreshDeltaGauges() const;
  void OnSessionClosed();
  /// Statements-table row + flight-recorder event for one finished
  /// execution (success and every typed failure alike). `canonical` is the
  /// execution's CanonicalQueryKey, `fingerprint` its KeyFingerprint.
  void RecordQueryOutcome(const std::string& canonical, uint64_t fingerprint,
                          const Status& status, bool cache_hit,
                          double elapsed_ms,
                          const obs::ResourceUsage& usage);
  /// Watchdog callback: snapshot admission state into a "stall" event
  /// and dump the flight recorder to its crash path.
  void OnStallDetected(double stalled_ms,
                       const obs::StallWatchdog::Probe& probe);

  Database db_;
  ServiceOptions options_;
  int max_concurrent_;

  /// Reader/writer lock over db_ (see file comment). Epochs live in the
  /// data plane itself (per-shard counters rolled up by Relation::epoch),
  /// so a query reads data and version under one shared-lock acquisition.
  mutable std::shared_mutex data_mutex_;

  /// WAL writer (invalid/closed when durability is off); guarded by
  /// data_mutex_ exclusive like the database it logs.
  WalWriter wal_;
  /// Why the WAL failed to open, when it did; mutations return this.
  Status wal_open_status_;

  ResultCache cache_;

  std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  int running_queries_ = 0;

  /// Registry plumbing: the service owns owned_registry_ unless one was
  /// injected; registry_ points at whichever is live. The Metrics struct
  /// caches the interned metric pointers at construction so no query
  /// path ever touches the registry's name map (obs/metrics.h).
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_ = nullptr;
  struct Metrics {
    obs::Counter* queries = nullptr;
    obs::Counter* prepared_executions = nullptr;
    obs::Counter* cold_parses = nullptr;
    obs::Counter* mutations = nullptr;
    obs::Counter* admission_waits = nullptr;
    obs::Counter* sessions_opened = nullptr;
    obs::Gauge* active_sessions = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* cancellations = nullptr;
    obs::Counter* overloaded = nullptr;
    obs::Counter* degraded_queries = nullptr;
    obs::Counter* traced_queries = nullptr;
    obs::Counter* wal_appends = nullptr;
    obs::Counter* wal_failures = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* recompactions = nullptr;
    obs::Histogram* recompaction_ms = nullptr;
    obs::Gauge* delta_rows = nullptr;
    obs::Gauge* delta_tombstones = nullptr;
    obs::Counter* slow_query_lines = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Counter* net_connections_accepted = nullptr;
    obs::Gauge* net_connections_active = nullptr;
    obs::Counter* net_connections_shed = nullptr;
    obs::Counter* net_connections_timed_out = nullptr;
    obs::Counter* net_requests_shed = nullptr;
    obs::Counter* net_bytes_in = nullptr;
    obs::Counter* net_bytes_out = nullptr;
    /// Cache mirror gauges, refreshed from ResultCache::stats() inside
    /// stats() so a registry scrape sees current cache state.
    obs::Gauge* cache_hits = nullptr;
    obs::Gauge* cache_misses = nullptr;
    obs::Gauge* cache_insertions = nullptr;
    obs::Gauge* cache_invalidated = nullptr;
    obs::Gauge* cache_evictions = nullptr;
    obs::Gauge* cache_bytes = nullptr;
    /// Statements-table size mirror, refreshed on every scrape.
    obs::Gauge* statements_tracked = nullptr;
    /// Stalls the watchdog detected (0 while the watchdog is off).
    obs::Counter* watchdog_stalls = nullptr;
  };
  Metrics metrics_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  std::atomic<int64_t> trace_tick_{0};  // 1-in-N trace sampler state

  /// Background recompaction bookkeeping: at most one in-flight
  /// recompaction per relation (recompacting_ holds their names); the
  /// destructor blocks until recompactions_inflight_ drains to zero so a
  /// detached worker never outlives the service it points into.
  std::mutex recompact_mutex_;
  std::condition_variable recompact_cv_;
  int recompactions_inflight_ = 0;
  std::unordered_set<std::string> recompacting_;

  mutable std::mutex stats_mutex_;  // guards next_session_id_ only
  int64_t next_session_id_ = 1;

  obs::StatementsTable statements_;

  /// Watchdog probe state: executions in flight (admitted or queued for
  /// admission) and a monotone finished count. Maintained by a RAII
  /// guard around ExecuteInternal so every exit path counts.
  std::atomic<int64_t> executions_pending_{0};
  std::atomic<int64_t> executions_finished_{0};
  std::unique_ptr<obs::StallWatchdog> watchdog_;

  mutable std::mutex recompaction_trace_mutex_;
  std::shared_ptr<obs::Trace> last_recompaction_trace_;
};

}  // namespace simq

#endif  // SIMQ_SERVICE_QUERY_SERVICE_H_
