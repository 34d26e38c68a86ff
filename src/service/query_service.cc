#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "core/parser.h"
#include "core/persistence.h"
#include "service/fingerprint.h"
#include "ts/transforms.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace simq {

namespace {

std::chrono::steady_clock::duration MillisToDuration(double millis) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(millis));
}

int64_t WallClockUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Flight-recorder event label for an execution outcome.
const char* StatusLabel(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kTimeout:
      return "timeout";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kOverloaded:
      return "overloaded";
    default:
      return "error";
  }
}

// Relation names flow into flight-recorder lines verbatim; cap the length
// and strip anything that could break the one-JSON-object-per-line
// guarantee (quotes, backslashes, control bytes).
std::string FlightSafe(const std::string& name) {
  std::string out = name.substr(0, 64);
  for (char& c : out) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u >= 0x7f || c == '"' || c == '\\') {
      c = '_';
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::~Session() { service_->OnSessionClosed(); }

Result<int64_t> Session::Prepare(const std::string& text) {
  Result<Query> parsed = service_->ParseTracked(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  PreparedStatement statement;
  statement.text = text;
  statement.query = std::move(parsed).value();
  // Normalize a literal query series once: every execution that keeps the
  // template's series skips ToNormalForm + re-validation. Substituting the
  // normal form with query_prenormalized set is answer-preserving by
  // definition of the PRENORMALIZED clause (the engine would compute the
  // same doubles itself).
  if (statement.query.kind != QueryKind::kAllPairs &&
      statement.query.mode == DistanceMode::kNormalForm &&
      !statement.query.query_prenormalized &&
      statement.query.query_series.is_literal() &&
      !statement.query.query_series.literal.empty()) {
    statement.normalized_literal =
        ToNormalForm(statement.query.query_series.literal).values;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t id = next_statement_id_++;
  statements_[id] = std::move(statement);
  return id;
}

std::shared_ptr<ExecutionContext> Session::BeginExecution(
    const ExecOptions& options) {
  auto ctx = std::make_shared<ExecutionContext>();
  const double deadline_ms = service_->ResolveDeadlineMs(options);
  if (deadline_ms > 0) {
    ctx->set_deadline_after(MillisToDuration(deadline_ms));
  }
  if (options.force_trace) {
    ctx->set_trace(std::make_shared<obs::Trace>());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (cancel_requested_) {
    ctx->Cancel();
  }
  inflight_.push_back(ctx);
  return ctx;
}

void Session::EndExecution(const ExecutionContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < inflight_.size(); ++i) {
    if (inflight_[i].get() == ctx) {
      inflight_[i] = std::move(inflight_.back());
      inflight_.pop_back();
      return;
    }
  }
}

void Session::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancel_requested_ = true;
    for (const std::shared_ptr<ExecutionContext>& ctx : inflight_) {
      ctx->Cancel();
    }
  }
  // Wake queued executions so a cancelled query never waits out the
  // admission timeout holding a client thread.
  service_->admission_cv_.notify_all();
}

void Session::ResetCancel() {
  std::lock_guard<std::mutex> lock(mutex_);
  cancel_requested_ = false;
}

// Pairs every BeginExecution with EndExecution, on every return path --
// including an exception escaping the engine.
class Session::ScopedExecution {
 public:
  ScopedExecution(Session* session, const ExecOptions& options)
      : session_(session), ctx_(session->BeginExecution(options)) {}
  ~ScopedExecution() { session_->EndExecution(ctx_.get()); }
  ScopedExecution(const ScopedExecution&) = delete;
  ScopedExecution& operator=(const ScopedExecution&) = delete;

  const std::shared_ptr<ExecutionContext>& ctx() const { return ctx_; }

 private:
  Session* session_;
  std::shared_ptr<ExecutionContext> ctx_;
};

Result<ServiceResult> Session::ExecutePrepared(int64_t statement_id,
                                               const BindParams& params,
                                               const ExecOptions& options) {
  Query query;
  std::vector<double> normalized_literal;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = statements_.find(statement_id);
    if (it == statements_.end()) {
      return Status::NotFound("no prepared statement with id " +
                              std::to_string(statement_id));
    }
    query = it->second.query;  // cheap: shares the compiled rule chain
    normalized_literal = it->second.normalized_literal;
  }
  if (params.epsilon.has_value()) {
    if (query.kind == QueryKind::kNearest) {
      return Status::InvalidArgument(
          "epsilon parameter is not bindable on a NEAREST statement");
    }
    query.epsilon = *params.epsilon;
  }
  if (params.k.has_value()) {
    if (query.kind != QueryKind::kNearest) {
      return Status::InvalidArgument(
          "k parameter is only bindable on NEAREST statements");
    }
    query.k = *params.k;
  }
  if (params.series.has_value()) {
    if (query.kind == QueryKind::kAllPairs) {
      return Status::InvalidArgument(
          "series parameter is not bindable on a PAIRS statement");
    }
    query.query_series = *params.series;
  } else if (!normalized_literal.empty()) {
    query.query_series.literal = std::move(normalized_literal);
    query.query_prenormalized = true;
  }
  ScopedExecution execution(this, options);
  query.exec = execution.ctx();
  Result<ServiceResult> result =
      service_->ExecuteInternal(query, /*prepared=*/true);
  NoteUsage(result);
  return result;
}

Result<ServiceResult> Session::Execute(const std::string& text,
                                       const ExecOptions& options) {
  double parse_ms = 0.0;
  Result<Query> parsed = service_->ParseTracked(text, &parse_ms);
  if (!parsed.ok()) {
    return parsed.status();
  }
  Query query = std::move(parsed).value();
  ScopedExecution execution(this, options);
  query.exec = execution.ctx();
  Result<ServiceResult> result =
      service_->ExecuteInternal(query, /*prepared=*/false, parse_ms);
  NoteUsage(result);
  return result;
}

void Session::NoteUsage(const Result<ServiceResult>& result) {
  if (!result.ok()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  usage_.Add(result.value().usage);
}

obs::ResourceUsage Session::cumulative_usage() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return usage_;
}

Status Session::Close(int64_t statement_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (statements_.erase(statement_id) == 0) {
    return Status::NotFound("no prepared statement with id " +
                            std::to_string(statement_id));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

// Waits until the service is below its concurrency limit, then divides
// the pool between the queries now running: with R running queries the
// newcomer gets floor(threads / R) threads (at least 1). The budget is
// computed at admission and kept for the query's lifetime -- a fixed
// contract per execution rather than a moving target.
//
// The wait is bounded by three exits, each yielding its typed error
// without ever incrementing the running count: the admission timeout
// (kOverloaded), the query's own deadline (kTimeout -- queue time counts
// against the budget), and cancellation (kCancelled; Session::Cancel
// notifies the condvar so the waiter wakes promptly).
class QueryService::AdmissionSlot {
 public:
  AdmissionSlot(QueryService* service, const ExecutionContext* exec)
      : service_(service) {
    using Clock = std::chrono::steady_clock;
    const double timeout_ms = service_->options_.admission_timeout_ms;
    const Clock::time_point overload_at =
        timeout_ms > 0 ? Clock::now() + MillisToDuration(timeout_ms)
                       : Clock::time_point::max();
    const Clock::time_point deadline_at =
        exec != nullptr && exec->has_deadline() ? exec->deadline()
                                                : Clock::time_point::max();
    const Clock::time_point wait_until = std::min(overload_at, deadline_at);

    std::unique_lock<std::mutex> lock(service_->admission_mutex_);
    waited_ = service_->running_queries_ >= service_->max_concurrent_;
    while (service_->running_queries_ >= service_->max_concurrent_) {
      if (exec != nullptr && exec->cancelled()) {
        status_ = Status::Cancelled("query cancelled while queued");
        return;
      }
      if (wait_until == Clock::time_point::max()) {
        service_->admission_cv_.wait(lock);
      } else if (service_->admission_cv_.wait_until(lock, wait_until) ==
                 std::cv_status::timeout) {
        if (Clock::now() >= deadline_at) {
          status_ = Status::Timeout(
              "query deadline exceeded while queued for admission");
        } else {
          status_ = Status::Overloaded(
              "admission wait exceeded " +
              std::to_string(static_cast<int64_t>(timeout_ms)) +
              " ms; service at max_concurrent_queries");
        }
        return;
      }
    }
    admitted_ = true;
    ++service_->running_queries_;
    budget_ = std::max(
        1, ThreadPool::Global().num_threads() / service_->running_queries_);
  }

  ~AdmissionSlot() {
    if (!admitted_) {
      return;  // a rejected wait holds no slot; nothing to release
    }
    {
      std::lock_guard<std::mutex> lock(service_->admission_mutex_);
      --service_->running_queries_;
    }
    service_->admission_cv_.notify_one();
  }

  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

  bool ok() const { return admitted_; }
  const Status& status() const { return status_; }
  int budget() const { return budget_; }
  bool waited() const { return waited_; }

 private:
  QueryService* service_;
  Status status_;
  int budget_ = 1;
  bool admitted_ = false;
  bool waited_ = false;
};

QueryService::QueryService(Database db, ServiceOptions options)
    : db_(std::move(db)),
      options_(options),
      max_concurrent_(options.max_concurrent_queries > 0
                          ? options.max_concurrent_queries
                          : ThreadPool::Global().num_threads()),
      cache_(options.result_cache_capacity, options.result_cache_max_bytes),
      owned_registry_(options.metrics_registry == nullptr
                          ? std::make_unique<obs::MetricRegistry>()
                          : nullptr),
      registry_(options.metrics_registry != nullptr ? options.metrics_registry
                                                    : owned_registry_.get()),
      statements_(options.statements_capacity) {
  // Intern every metric once; the query paths only ever touch these
  // cached pointers (sharded atomic writes, no registry lock).
  metrics_.queries = registry_->GetCounter("simq_queries_total");
  metrics_.prepared_executions =
      registry_->GetCounter("simq_prepared_executions_total");
  metrics_.cold_parses = registry_->GetCounter("simq_cold_parses_total");
  metrics_.mutations = registry_->GetCounter("simq_mutations_total");
  metrics_.admission_waits =
      registry_->GetCounter("simq_admission_waits_total");
  metrics_.sessions_opened =
      registry_->GetCounter("simq_sessions_opened_total");
  metrics_.active_sessions = registry_->GetGauge("simq_active_sessions");
  metrics_.timeouts = registry_->GetCounter("simq_timeouts_total");
  metrics_.cancellations = registry_->GetCounter("simq_cancellations_total");
  metrics_.overloaded = registry_->GetCounter("simq_overloaded_total");
  metrics_.degraded_queries =
      registry_->GetCounter("simq_degraded_queries_total");
  metrics_.traced_queries =
      registry_->GetCounter("simq_traced_queries_total");
  metrics_.wal_appends = registry_->GetCounter("simq_wal_appends_total");
  metrics_.wal_failures = registry_->GetCounter("simq_wal_failures_total");
  metrics_.checkpoints = registry_->GetCounter("simq_checkpoints_total");
  metrics_.recompactions = registry_->GetCounter("simq_recompactions_total");
  metrics_.recompaction_ms =
      registry_->GetHistogram("simq_recompaction_duration_ms");
  metrics_.delta_rows = registry_->GetGauge("simq_delta_rows");
  metrics_.delta_tombstones = registry_->GetGauge("simq_delta_tombstones");
  metrics_.slow_query_lines =
      registry_->GetCounter("simq_slow_query_log_lines_total");
  metrics_.latency = registry_->GetHistogram("simq_query_latency_ms");
  metrics_.net_connections_accepted =
      registry_->GetCounter("simq_net_connections_accepted_total");
  metrics_.net_connections_active =
      registry_->GetGauge("simq_net_connections_active");
  metrics_.net_connections_shed =
      registry_->GetCounter("simq_net_connections_shed_total");
  metrics_.net_connections_timed_out =
      registry_->GetCounter("simq_net_connections_timed_out_total");
  metrics_.net_requests_shed =
      registry_->GetCounter("simq_net_requests_shed_total");
  metrics_.net_bytes_in = registry_->GetCounter("simq_net_bytes_in_total");
  metrics_.net_bytes_out = registry_->GetCounter("simq_net_bytes_out_total");
  metrics_.cache_hits = registry_->GetGauge("simq_cache_hits");
  metrics_.cache_misses = registry_->GetGauge("simq_cache_misses");
  metrics_.cache_insertions = registry_->GetGauge("simq_cache_insertions");
  metrics_.cache_invalidated =
      registry_->GetGauge("simq_cache_invalidated_entries");
  metrics_.cache_evictions = registry_->GetGauge("simq_cache_evictions");
  metrics_.cache_bytes = registry_->GetGauge("simq_cache_bytes");
  metrics_.statements_tracked =
      registry_->GetGauge("simq_statements_tracked");
  metrics_.watchdog_stalls =
      registry_->GetCounter("simq_watchdog_stalls_total");
  if (!options_.slow_query_log_path.empty()) {
    obs::SlowQueryLogOptions slow;
    slow.path = options_.slow_query_log_path;
    slow.threshold_ms = options_.slow_query_threshold_ms;
    slow.sample_every = options_.slow_query_sample_every;
    slow_log_ = std::make_unique<obs::SlowQueryLog>(std::move(slow));
  }
  if (!options_.wal_path.empty()) {
    Result<WalWriter> wal = WalWriter::Open(options_.wal_path);
    if (wal.ok()) {
      wal_ = std::move(wal).value();
    } else {
      // Deferred failure: queries run, but every mutation returns this
      // status (WalGate) -- never silently non-durable.
      wal_open_status_ = wal.status();
    }
  }
  if (options_.watchdog_stall_after_ms > 0) {
    obs::StallWatchdog::Options wopts;
    wopts.poll_interval_ms = options_.watchdog_poll_interval_ms;
    wopts.stall_after_ms = options_.watchdog_stall_after_ms;
    watchdog_ = std::make_unique<obs::StallWatchdog>(
        wopts,
        [this] {
          obs::StallWatchdog::Probe probe;
          probe.completed =
              executions_finished_.load(std::memory_order_relaxed);
          probe.pending =
              executions_pending_.load(std::memory_order_relaxed);
          return probe;
        },
        [this](double stalled_ms, const obs::StallWatchdog::Probe& probe) {
          OnStallDetected(stalled_ms, probe);
        });
    watchdog_->Start();
  }
}

QueryService::~QueryService() {
  // The watchdog thread probes service state; retire it before anything
  // else unwinds.
  if (watchdog_ != nullptr) {
    watchdog_->Stop();
  }
  // Drain background recompactions. A worker's very last touch of this
  // object is its notify under recompact_mutex_; the wait below only
  // returns once it can reacquire that mutex, i.e. after the worker has
  // released it for good, so no detached thread outlives the service.
  std::unique_lock<std::mutex> lock(recompact_mutex_);
  recompact_cv_.wait(lock, [this] { return recompactions_inflight_ == 0; });
}

std::unique_ptr<Session> QueryService::OpenSession() {
  metrics_.sessions_opened->Add();
  metrics_.active_sessions->Add(1);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return std::unique_ptr<Session>(new Session(this, next_session_id_++));
}

void QueryService::OnSessionClosed() {
  metrics_.active_sessions->Add(-1);
}

void QueryService::NoteConnectionOpened() {
  metrics_.net_connections_accepted->Add();
  metrics_.net_connections_active->Add(1);
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->Recordf(
        "conn", "\"event\":\"open\",\"active\":%lld",
        static_cast<long long>(metrics_.net_connections_active->Value()));
  }
}

void QueryService::NoteConnectionClosed(bool timed_out) {
  metrics_.net_connections_active->Add(-1);
  if (timed_out) {
    metrics_.net_connections_timed_out->Add();
  }
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->Recordf(
        "conn", "\"event\":\"close\",\"timed_out\":%d,\"active\":%lld",
        timed_out ? 1 : 0,
        static_cast<long long>(metrics_.net_connections_active->Value()));
  }
}

void QueryService::NoteConnectionShed() {
  metrics_.net_connections_shed->Add();
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->Record("conn", "\"event\":\"shed\"");
  }
}

void QueryService::NoteRequestShed() { metrics_.net_requests_shed->Add(); }

void QueryService::NoteNetBytes(int64_t bytes_in, int64_t bytes_out) {
  metrics_.net_bytes_in->Add(bytes_in);
  metrics_.net_bytes_out->Add(bytes_out);
}

Status QueryService::WalGate() const {
  if (!options_.wal_path.empty() && !wal_.is_open()) {
    return wal_open_status_;
  }
  return Status::Ok();
}

Status QueryService::FinishAppend(Status append_status) {
  if (append_status.ok() && options_.sync_wal) {
    append_status = wal_.Sync();
  }
  if (append_status.ok()) {
    metrics_.wal_appends->Add();
  } else {
    metrics_.wal_failures->Add();
  }
  return append_status;
}

Status QueryService::CreateRelation(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(data_mutex_);
  Status status = WalGate();
  if (status.ok()) {
    status = db_.CreateRelation(name);
  }
  if (status.ok() && wal_.is_open()) {
    status = FinishAppend(wal_.AppendCreateRelation(name));
  }
  if (status.ok()) {
    lock.unlock();
    cache_.InvalidateRelation(name);
    metrics_.mutations->Add();
    if (options_.flight_recorder != nullptr) {
      options_.flight_recorder->Recordf(
          "mutation", "\"op\":\"create\",\"relation\":\"%s\"",
          FlightSafe(name).c_str());
    }
  }
  return status;
}

Result<int64_t> QueryService::Insert(const std::string& relation,
                                     const TimeSeries& series) {
  // The insert bumps the routed shard's epoch inside the data plane; the
  // relation epoch (the shard roll-up) therefore changes before the lock
  // drops, so no reader can pair the new data with the old version. The
  // WAL append happens under the same lock, so log order == apply order.
  std::unique_lock<std::shared_mutex> lock(data_mutex_);
  const Status gate = WalGate();
  if (!gate.ok()) {
    return gate;
  }
  Result<int64_t> result = db_.Insert(relation, series);
  if (result.ok() && wal_.is_open()) {
    const Status logged = FinishAppend(wal_.AppendInsert(relation, series));
    if (!logged.ok()) {
      return logged;
    }
  }
  if (result.ok()) {
    RefreshDeltaGauges();
    lock.unlock();
    cache_.InvalidateRelation(relation);
    metrics_.mutations->Add();
    if (options_.flight_recorder != nullptr) {
      options_.flight_recorder->Recordf(
          "mutation", "\"op\":\"insert\",\"relation\":\"%s\",\"id\":%lld",
          FlightSafe(relation).c_str(),
          static_cast<long long>(result.value()));
    }
    MaybeScheduleRecompaction(relation);
  }
  return result;
}

Status QueryService::Delete(const std::string& relation, int64_t id) {
  // Same discipline as Insert: the tombstone bumps the shard epoch under
  // the exclusive lock, the WAL append happens under the same lock (log
  // order == apply order), and the cache entries of the relation are
  // invalidated before the mutation is acknowledged.
  std::unique_lock<std::shared_mutex> lock(data_mutex_);
  Status status = WalGate();
  if (status.ok()) {
    status = db_.Delete(relation, id);
  }
  if (status.ok() && wal_.is_open()) {
    status = FinishAppend(wal_.AppendDelete(relation, id));
  }
  if (status.ok()) {
    RefreshDeltaGauges();
    lock.unlock();
    cache_.InvalidateRelation(relation);
    metrics_.mutations->Add();
    if (options_.flight_recorder != nullptr) {
      options_.flight_recorder->Recordf(
          "mutation", "\"op\":\"delete\",\"relation\":\"%s\",\"id\":%lld",
          FlightSafe(relation).c_str(), static_cast<long long>(id));
    }
    MaybeScheduleRecompaction(relation);
  }
  return status;
}

Status QueryService::BulkLoad(const std::string& relation,
                              const std::vector<TimeSeries>& series) {
  std::unique_lock<std::shared_mutex> lock(data_mutex_);
  Status status = WalGate();
  if (status.ok()) {
    status = db_.BulkLoad(relation, series);
  }
  if (status.ok() && wal_.is_open()) {
    status = FinishAppend(wal_.AppendBulkLoad(relation, series));
  }
  if (status.ok()) {
    RefreshDeltaGauges();
    lock.unlock();
    cache_.InvalidateRelation(relation);
    metrics_.mutations->Add();
    if (options_.flight_recorder != nullptr) {
      options_.flight_recorder->Recordf(
          "mutation", "\"op\":\"bulk_load\",\"relation\":\"%s\",\"rows\":%zu",
          FlightSafe(relation).c_str(), series.size());
    }
  }
  return status;
}

Status QueryService::Recompact(const std::string& relation) {
  return RunRecompaction(relation);
}

void QueryService::MaybeScheduleRecompaction(const std::string& relation) {
  const DeltaOptions& delta = db_.delta_options();
  if (delta.recompact_threshold <= 0) {
    return;
  }
  {
    std::shared_lock<std::shared_mutex> lock(data_mutex_);
    const Relation* rel = db_.GetRelation(relation);
    if (rel == nullptr ||
        rel->sharded().delta_pressure() < delta.recompact_threshold) {
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(recompact_mutex_);
    if (!recompacting_.insert(relation).second) {
      return;  // one in-flight recompaction per relation is enough
    }
    ++recompactions_inflight_;
  }
  // Detached on purpose: the worker's lifetime is bounded by the
  // destructor's drain (see ~QueryService), and a dedicated thread keeps
  // the long build off the query thread pool. A failed run (fault
  // injection, resource trouble) is dropped here -- the delta layer keeps
  // answering exactly; the next mutation past the threshold retries.
  std::thread([this, relation]() {
    (void)RunRecompaction(relation);
    std::lock_guard<std::mutex> lock(recompact_mutex_);
    recompacting_.erase(relation);
    --recompactions_inflight_;
    recompact_cv_.notify_all();
  }).detach();
}

Status QueryService::RunRecompaction(const std::string& relation) {
  Stopwatch watch;
  // Recompactions are service-internal, so their span tree surfaces via
  // last_recompaction_trace() instead of any ServiceResult: the two
  // phases -- long concurrent build, brief exclusive publish -- become
  // visible in RenderTraceTree.
  auto trace = std::make_shared<obs::Trace>();
  std::vector<RelationShard::Recompaction> built;
  uint64_t generation = 0;
  const int build_span = trace->StartSpan("recompact.build");
  {
    // Build under the shared lock: queries keep running, writers wait.
    // The shard stores are frozen, so the built artifacts cover exactly
    // the rows present now; rows appended before publish stay delta.
    std::shared_lock<std::shared_mutex> lock(data_mutex_);
    SIMQ_RETURN_IF_ERROR(db_.BuildRecompaction(relation, &built));
  }
  trace->EndSpan(build_span);
  const int publish_span = trace->StartSpan("recompact.publish");
  {
    std::unique_lock<std::shared_mutex> lock(data_mutex_);
    SIMQ_RETURN_IF_ERROR(db_.PublishRecompaction(relation, std::move(built)));
    RefreshDeltaGauges();
    // Counted under the publish lock, so whoever sees the new generation
    // (or the delta pressure it reset) also sees the count.
    metrics_.recompactions->Add();
    generation = GenerationLocked(relation, nullptr);
  }
  trace->EndSpan(publish_span);
  trace->EndSpan(obs::Trace::kRoot);
  {
    std::lock_guard<std::mutex> lock(recompaction_trace_mutex_);
    last_recompaction_trace_ = trace;
  }
  const double elapsed_ms = watch.ElapsedMillis();
  metrics_.recompaction_ms->Observe(elapsed_ms);
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->Recordf(
        "recompact",
        "\"relation\":\"%s\",\"generation\":%llu,\"ms\":%.3f",
        FlightSafe(relation).c_str(),
        static_cast<unsigned long long>(generation), elapsed_ms);
  }
  return Status::Ok();
}

std::shared_ptr<obs::Trace> QueryService::last_recompaction_trace() const {
  std::lock_guard<std::mutex> lock(recompaction_trace_mutex_);
  return last_recompaction_trace_;
}

void QueryService::RefreshDeltaGauges() const {
  int64_t rows = 0;
  int64_t tombstones = 0;
  for (const std::string& name : db_.RelationNames()) {
    const Relation* rel = db_.GetRelation(name);
    if (rel == nullptr) {
      continue;
    }
    rows += rel->sharded().delta_rows();
    tombstones += rel->sharded().pending_tombstones();
  }
  metrics_.delta_rows->Set(rows);
  metrics_.delta_tombstones->Set(tombstones);
}

Status QueryService::Checkpoint() {
  if (options_.snapshot_path.empty()) {
    return Status::InvalidArgument(
        "checkpointing requires ServiceOptions::snapshot_path");
  }
  std::unique_lock<std::shared_mutex> lock(data_mutex_);
  // Snapshot first, truncate second: a crash between the two leaves the
  // snapshot plus a WAL whose replay re-applies already-snapshotted
  // mutations' successors -- never a gap. (The WAL is only truncated
  // after the snapshot's rename has committed it.)
  Status status = SaveDatabase(db_, options_.snapshot_path);
  if (status.ok() && wal_.is_open()) {
    status = wal_.Truncate();
  }
  if (status.ok()) {
    lock.unlock();
    metrics_.checkpoints->Add();
    if (options_.flight_recorder != nullptr) {
      options_.flight_recorder->Record("checkpoint", "");
    }
  }
  return status;
}

uint64_t QueryService::EpochLocked(const std::string& relation,
                                   int* shards) const {
  const Relation* rel = db_.GetRelation(relation);
  if (shards != nullptr) {
    *shards = rel == nullptr ? 0 : rel->sharded().num_shards();
  }
  return rel == nullptr ? 0 : rel->epoch();
}

uint64_t QueryService::GenerationLocked(const std::string& relation,
                                        int64_t* delta_rows) const {
  const Relation* rel = db_.GetRelation(relation);
  if (rel == nullptr) {
    if (delta_rows != nullptr) {
      *delta_rows = 0;
    }
    return 0;
  }
  if (delta_rows != nullptr) {
    *delta_rows = rel->sharded().delta_rows();
  }
  return rel->sharded().generation();
}

uint64_t QueryService::RelationEpoch(const std::string& relation) const {
  std::shared_lock<std::shared_mutex> lock(data_mutex_);
  return EpochLocked(relation, nullptr);
}

Result<Query> QueryService::ParseTracked(const std::string& text,
                                         double* parse_ms) {
  Stopwatch watch;
  Result<Query> parsed = ParseQuery(text);
  if (parse_ms != nullptr) {
    *parse_ms = watch.ElapsedMillis();
  }
  metrics_.cold_parses->Add();
  return parsed;
}

bool QueryService::SampleTrace() {
  const int every = options_.trace_sample_every;
  if (every <= 0) {
    return false;
  }
  return trace_tick_.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

double QueryService::ResolveDeadlineMs(const ExecOptions& options) const {
  return options.deadline_ms < 0 ? options_.default_deadline_ms
                                 : options.deadline_ms;
}

void QueryService::CountTermination(const Status& status) {
  switch (status.code()) {
    case StatusCode::kTimeout:
      metrics_.timeouts->Add();
      break;
    case StatusCode::kCancelled:
      metrics_.cancellations->Add();
      break;
    case StatusCode::kOverloaded:
      metrics_.overloaded->Add();
      break;
    default:
      break;
  }
}

Result<ServiceResult> QueryService::Execute(const Query& query) {
  return ExecuteInternal(query, /*prepared=*/false);
}

Result<ServiceResult> QueryService::Execute(const Query& query,
                                            const ExecOptions& options) {
  return ExecuteBound(query, options, /*parse_ms=*/0.0);
}

Result<ServiceResult> QueryService::ExecuteBound(const Query& query,
                                                 const ExecOptions& options,
                                                 double parse_ms) {
  const double deadline_ms = ResolveDeadlineMs(options);
  if (query.exec != nullptr) {
    if (options.force_trace && query.exec->trace() == nullptr) {
      query.exec->set_trace(std::make_shared<obs::Trace>());
    }
    return ExecuteInternal(query, /*prepared=*/false, parse_ms);
  }
  if (deadline_ms <= 0 && !options.force_trace) {
    return ExecuteInternal(query, /*prepared=*/false, parse_ms);
  }
  auto ctx = std::make_shared<ExecutionContext>();
  if (deadline_ms > 0) {
    ctx->set_deadline_after(MillisToDuration(deadline_ms));
  }
  if (options.force_trace) {
    ctx->set_trace(std::make_shared<obs::Trace>());
  }
  Query bounded = query;
  bounded.exec = std::move(ctx);
  return ExecuteInternal(bounded, /*prepared=*/false, parse_ms);
}

Result<ServiceResult> QueryService::ExecuteText(const std::string& text,
                                                const ExecOptions& options) {
  double parse_ms = 0.0;
  Result<Query> parsed = ParseTracked(text, &parse_ms);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return ExecuteBound(parsed.value(), options, parse_ms);
}

Result<ServiceResult> QueryService::ExecuteInternal(const Query& query,
                                                    bool prepared,
                                                    double parse_ms) {
  Stopwatch watch;
  // Watchdog probe bookkeeping: this execution is pending (queued or
  // running) until any exit path below, where the destructor marks it
  // finished -- the monotone count the stall detector watches.
  struct PendingGuard {
    QueryService* service;
    explicit PendingGuard(QueryService* s) : service(s) {
      service->executions_pending_.fetch_add(1, std::memory_order_relaxed);
    }
    ~PendingGuard() {
      service->executions_pending_.fetch_sub(1, std::memory_order_relaxed);
      service->executions_finished_.fetch_add(1, std::memory_order_relaxed);
    }
  } pending_guard(this);
  // Tracing decision: an already-attached trace (force_trace) wins;
  // otherwise EXPLAIN ANALYZE and the 1-in-N sampler each attach one.
  // The trace rides the ExecutionContext, so a query without one gets a
  // context just to carry it. Tracing never changes the answer set.
  std::shared_ptr<obs::Trace> trace;
  if (query.exec != nullptr && query.exec->trace() != nullptr) {
    trace = query.exec->shared_trace();
  } else if (query.analyze || SampleTrace()) {
    trace = std::make_shared<obs::Trace>();
  }
  Query traced_copy;
  const Query* effective = &query;
  if (trace != nullptr) {
    if (query.exec == nullptr) {
      traced_copy = query;  // cheap: shares the compiled rule chain
      traced_copy.exec = std::make_shared<ExecutionContext>();
      effective = &traced_copy;
    }
    effective->exec->set_trace(trace);
    if (parse_ms > 0.0) {
      // The parse finished before the trace existed; record it at the
      // origin with its measured duration.
      trace->AddCompleted("parse", obs::Trace::kRoot, 0.0, parse_ms);
    }
    metrics_.traced_queries->Add();
  }
  const ExecutionContext* exec = effective->exec.get();
  // The canonical key is rendered once and shared: it is the statements
  // row's text, the slow-log entry's fingerprint and the stem of the
  // result-cache key, and its hash keys the statements row and names the
  // query in flight-recorder events -- so every outcome path below needs it.
  const std::string canonical = CanonicalQueryKey(*effective);
  const uint64_t fingerprint = KeyFingerprint(canonical);
  obs::ResourceUsage usage;
  // Fast-fail before admission: born cancelled (session in the cancelled
  // state) or a deadline already in the past.
  if (exec != nullptr) {
    const Status start = exec->Check();
    if (!start.ok()) {
      if (trace != nullptr) {
        effective->exec->set_trace(nullptr);
      }
      CountTermination(start);
      RecordQueryOutcome(canonical, fingerprint, start, false,
                         watch.ElapsedMillis(), usage);
      return start;
    }
  }
  const double admit_start_ms = trace != nullptr ? trace->NowMs() : 0.0;
  AdmissionSlot slot(this, exec);
  if (trace != nullptr) {
    trace->AddCompleted("admission", obs::Trace::kRoot, admit_start_ms,
                        trace->NowMs() - admit_start_ms);
  }
  if (!slot.ok()) {
    if (trace != nullptr) {
      effective->exec->set_trace(nullptr);
    }
    CountTermination(slot.status());
    RecordQueryOutcome(canonical, fingerprint, slot.status(), false,
                       watch.ElapsedMillis(), usage);
    return slot.status();
  }
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->Recordf(
        "query_admit", "\"fp\":\"%016llx\",\"budget\":%d,\"waited\":%d",
        static_cast<unsigned long long>(fingerprint), slot.budget(),
        slot.waited() ? 1 : 0);
  }
  ThreadPool::ScopedParallelismBudget budget(slot.budget());
  usage.peak_parallelism = slot.budget();
  // Live accounting cells: pool workers add their per-block CPU deltas
  // through the thread-pool sink; the calling thread's own delta is
  // measured end-to-end around the engine call below.
  std::shared_ptr<obs::QueryAccounting> accounting;
  if (options_.enable_resource_accounting) {
    accounting = std::make_shared<obs::QueryAccounting>();
    if (exec != nullptr) {
      exec->set_accounting(accounting);
    }
  }

  ServiceResult out;
  bool cache_hit = false;
  uint64_t epoch = 0;
  uint64_t generation = 0;
  int64_t delta_rows = 0;
  int shards = 0;
  const int execute_span =
      trace != nullptr ? trace->StartSpan("execute") : -1;
  if (trace != nullptr) {
    // The engine attaches its stage spans (per-shard index descents,
    // filter/refine, scan, merge) under the execute span.
    trace->SetEngineParent(execute_span);
  }
  {
    // Shared lock: the query -- including its cache probe/fill -- runs
    // against one data version; writers wait, other readers do not. The
    // epoch is the relation's per-shard roll-up, read under the same
    // acquisition as the data it names.
    std::shared_lock<std::shared_mutex> lock(data_mutex_);
    epoch = EpochLocked(effective->relation, &shards);
    generation = GenerationLocked(effective->relation, &delta_rows);
    // Cached entries replay their execution's plan metadata (filter,
    // pruning counts), and a query's effective filter configuration is
    // resolved against the engine-wide settings at execution time -- so
    // when the quantized engine would run, the key must name it AND its
    // bit width, or an entry cached before a set_filter_engine /
    // set_filter_options change would keep reporting the old plan. The
    // exact-engine case keeps the historical key rendering.
    const bool effectively_quantized =
        effective->filter == FilterMode::kFiltered ||
        (effective->filter == FilterMode::kDefault &&
         db_.filter_engine() == FilterEngine::kQuantized);
    // The generation joins the key because cached entries replay their
    // execution's plan metadata: answers are identical across
    // generations, but an entry cached before a recompaction would keep
    // reporting the old generation's delta_rows.
    std::string key;
    key.reserve(canonical.size() + 64);
    key += canonical;
    key += '@';
    key += std::to_string(epoch);
    key += "@g";
    key += std::to_string(generation);
    if (effectively_quantized) {
      key += "@fq";
      key += std::to_string(db_.filter_options().bits_per_dim);
    }
    if (!cache_.Get(key, &out.result)) {
      Result<QueryResult> executed = [&]() -> Result<QueryResult> {
        try {
          ThreadPool::ScopedCpuAccounting meter(
              accounting != nullptr ? &accounting->cpu_ns : nullptr,
              accounting != nullptr ? &accounting->pool_tasks : nullptr);
          const int64_t cpu_begin =
              accounting != nullptr ? ThreadPool::ThreadCpuNs() : 0;
          Result<QueryResult> r = db_.Execute(*effective);
          if (accounting != nullptr) {
            // The calling thread participates in its own fan-outs; its
            // delta covers those blocks, the sink covered the helpers'.
            accounting->cpu_ns.fetch_add(
                ThreadPool::ThreadCpuNs() - cpu_begin,
                std::memory_order_relaxed);
          }
          return r;
        } catch (const std::exception& e) {
          // An exception escaping the engine (e.g. a fault-injected pool
          // task) fails this query, not the service: the shared lock and
          // admission slot unwind normally, the session stays usable.
          return Status::Internal(std::string("query execution failed: ") +
                                  e.what());
        }
      }();
      if (!executed.ok()) {
        if (trace != nullptr) {
          effective->exec->set_trace(nullptr);
        }
        if (accounting != nullptr) {
          usage.cpu_ns = accounting->cpu_ns.load(std::memory_order_relaxed);
          usage.pool_tasks =
              accounting->pool_tasks.load(std::memory_order_relaxed);
          if (exec != nullptr) {
            exec->set_accounting(nullptr);
          }
        }
        CountTermination(executed.status());
        RecordQueryOutcome(canonical, fingerprint, executed.status(), false,
                           watch.ElapsedMillis(), usage);
        return executed.status();
      }
      out.result = std::move(executed).value();
      cache_.Put(key, effective->relation, out.result);
      if (out.result.stats.degraded) {
        metrics_.degraded_queries->Add();
      }
    } else {
      cache_hit = true;
    }
    out.plan.engine = out.result.stats.used_index ? "packed" : "columnar";
  }
  out.plan.strategy = out.result.stats.used_index ? "index" : "scan";
  out.plan.filter = out.result.stats.used_filter ? "quantized" : "none";
  if (out.result.stats.used_filter) {
    out.plan.filter_scanned = out.result.stats.filter_scanned;
    out.plan.candidates = out.result.stats.candidates;
    if (out.result.stats.filter_scanned > 0) {
      out.plan.pruning_ratio =
          1.0 - static_cast<double>(out.result.stats.candidates) /
                    static_cast<double>(out.result.stats.filter_scanned);
    }
  }
  out.plan.cache_hit = cache_hit;
  out.plan.prepared = prepared;
  out.plan.explain = effective->explain;
  out.plan.analyze = effective->analyze;
  out.plan.degraded = out.result.stats.degraded;
  out.plan.shards = shards;
  out.plan.relation_epoch = epoch;
  out.plan.generation = generation;
  out.plan.delta_rows = delta_rows;
  out.plan.fingerprint = fingerprint;
  out.plan.per_shard = out.result.stats.shard_stats;
  out.elapsed_ms = watch.ElapsedMillis();

  // Assemble this execution's ResourceUsage. Engine effort counters stay
  // zero on a cache hit -- the replayed stats describe the *original*
  // execution's work, not this one's -- while result_bytes and the CPU
  // cells always describe this execution.
  const ExecutionStats& est = out.result.stats;
  if (!cache_hit) {
    // Rows examined: the quantized filter's scan when it ran, else
    // whichever refinement counter the strategy populated (the index
    // nearest path counts exact_checks only; range paths count
    // candidates).
    usage.rows_scanned =
        est.filter_scanned > 0
            ? est.filter_scanned
            : std::max(est.candidates, est.exact_checks);
    usage.candidates = est.candidates;
    usage.exact_checks = est.exact_checks;
    usage.delta_rows_merged = delta_rows;
  }
  usage.result_bytes = ResultCache::ApproxResultBytes(out.result);
  if (accounting != nullptr) {
    usage.cpu_ns = accounting->cpu_ns.load(std::memory_order_relaxed);
    usage.pool_tasks =
        accounting->pool_tasks.load(std::memory_order_relaxed);
    if (exec != nullptr) {
      // Detach like the trace below: contexts can outlive this execution.
      exec->set_accounting(nullptr);
    }
  }
  out.usage = usage;

  if (trace != nullptr) {
    std::string note = out.plan.strategy + "/" + out.plan.engine;
    if (out.result.stats.used_filter) {
      note += "+quantized";
    }
    if (cache_hit) {
      note += " (cache hit)";
    }
    if (out.plan.degraded) {
      note += " (degraded)";
    }
    trace->SetNote(execute_span, note);
    trace->EndSpan(execute_span);
    const int64_t rows =
        static_cast<int64_t>(out.result.matches.size()) +
        static_cast<int64_t>(out.result.pairs.size());
    trace->SetRows(obs::Trace::kRoot, 0, 0, rows);
    trace->EndSpan(obs::Trace::kRoot);
    // Detach before returning: contexts can outlive this execution (the
    // ad-hoc Execute(query) path reuses caller-owned contexts), and the
    // trace's ownership moves to the result.
    effective->exec->set_trace(nullptr);
    out.trace = trace;
  }

  metrics_.queries->Add();
  if (prepared) {
    metrics_.prepared_executions->Add();
  }
  if (slot.waited()) {
    metrics_.admission_waits->Add();
  }
  metrics_.latency->Observe(out.elapsed_ms);
  RecordQueryOutcome(canonical, fingerprint, Status::Ok(), cache_hit,
                     out.elapsed_ms, usage);

  if (trace != nullptr && slow_log_ != nullptr &&
      slow_log_->ShouldLog(out.elapsed_ms)) {
    obs::SlowQueryEntry entry;
    entry.unix_ms = WallClockUnixMs();
    entry.fingerprint = canonical;
    entry.epoch = epoch;
    entry.relation = effective->relation;
    entry.elapsed_ms = out.elapsed_ms;
    entry.strategy = out.plan.strategy;
    entry.engine = out.plan.engine;
    entry.filtered = out.result.stats.used_filter;
    entry.cache_hit = cache_hit;
    entry.degraded = out.plan.degraded;
    entry.shards = shards;
    entry.spans = trace->spans();
    slow_log_->Append(entry);
    metrics_.slow_query_lines->Add();
  }
  return out;
}

void QueryService::RecordQueryOutcome(const std::string& canonical,
                                      uint64_t fingerprint,
                                      const Status& status, bool cache_hit,
                                      double elapsed_ms,
                                      const obs::ResourceUsage& usage) {
  if (statements_.enabled()) {
    statements_.Record(fingerprint, canonical, status, cache_hit, elapsed_ms,
                       usage);
  }
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->Recordf(
        "query",
        "\"fp\":\"%016llx\",\"status\":\"%s\",\"ms\":%.3f,"
        "\"cache_hit\":%d,%s",
        static_cast<unsigned long long>(fingerprint),
        StatusLabel(status.code()), elapsed_ms, cache_hit ? 1 : 0,
        obs::FormatResourceUsageJson(usage).c_str());
  }
}

void QueryService::OnStallDetected(double stalled_ms,
                                   const obs::StallWatchdog::Probe& probe) {
  metrics_.watchdog_stalls->Add();
  int running = 0;
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    running = running_queries_;
  }
  if (options_.flight_recorder != nullptr) {
    // Record the admission snapshot first so it is part of the dump that
    // lands on disk while the stall is still live.
    options_.flight_recorder->Recordf(
        "stall",
        "\"stalled_ms\":%.0f,\"pending\":%lld,\"completed\":%lld,"
        "\"running\":%d,\"max_concurrent\":%d",
        stalled_ms, static_cast<long long>(probe.pending),
        static_cast<long long>(probe.completed), running, max_concurrent_);
    (void)options_.flight_recorder->DumpToCrashPath();
  }
}

void QueryService::RefreshScrapeGauges() const {
  {
    std::shared_lock<std::shared_mutex> lock(data_mutex_);
    RefreshDeltaGauges();
  }
  // Mirror the cache's own counters into registry gauges so a registry
  // scrape (Prometheus text, kMetrics frame) sees them without a
  // ResultCache dependency.
  const ResultCache::Stats cache = cache_.stats();
  metrics_.cache_hits->Set(cache.hits);
  metrics_.cache_misses->Set(cache.misses);
  metrics_.cache_insertions->Set(cache.insertions);
  metrics_.cache_invalidated->Set(cache.invalidated_entries);
  metrics_.cache_evictions->Set(cache.evictions);
  metrics_.cache_bytes->Set(cache.bytes);
  metrics_.statements_tracked->Set(static_cast<int64_t>(statements_.size()));
}

ServiceStats QueryService::stats() const {
  ServiceStats out;
  out.queries = metrics_.queries->Value();
  out.prepared_executions = metrics_.prepared_executions->Value();
  out.cold_parses = metrics_.cold_parses->Value();
  out.mutations = metrics_.mutations->Value();
  out.admission_waits = metrics_.admission_waits->Value();
  out.sessions_opened = metrics_.sessions_opened->Value();
  out.active_sessions = metrics_.active_sessions->Value();
  out.timeouts = metrics_.timeouts->Value();
  out.cancellations = metrics_.cancellations->Value();
  out.overloaded = metrics_.overloaded->Value();
  out.degraded_queries = metrics_.degraded_queries->Value();
  out.traced_queries = metrics_.traced_queries->Value();
  out.slow_query_log_lines = metrics_.slow_query_lines->Value();
  out.wal_appends = metrics_.wal_appends->Value();
  out.wal_failures = metrics_.wal_failures->Value();
  out.checkpoints = metrics_.checkpoints->Value();
  out.recompactions = metrics_.recompactions->Value();
  // One refresh covers the delta gauges and the cache/statements mirrors
  // (the same hook every scrape surface calls).
  RefreshScrapeGauges();
  out.delta_rows = metrics_.delta_rows->Value();
  out.delta_tombstones = metrics_.delta_tombstones->Value();
  out.net.connections_accepted = metrics_.net_connections_accepted->Value();
  out.net.connections_active = metrics_.net_connections_active->Value();
  out.net.connections_shed = metrics_.net_connections_shed->Value();
  out.net.connections_timed_out =
      metrics_.net_connections_timed_out->Value();
  out.net.requests_shed = metrics_.net_requests_shed->Value();
  out.net.bytes_in = metrics_.net_bytes_in->Value();
  out.net.bytes_out = metrics_.net_bytes_out->Value();
  out.cache = cache_.stats();
  const obs::Histogram::Snapshot latency = metrics_.latency->snapshot();
  if (latency.count > 0) {
    out.latency_p50_ms = latency.Percentile(50.0);
    out.latency_p95_ms = latency.Percentile(95.0);
    out.latency_p99_ms = latency.Percentile(99.0);
  }
  return out;
}

}  // namespace simq
