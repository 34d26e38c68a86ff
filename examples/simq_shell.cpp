// simq_shell: an interactive shell over the concurrent query service.
//
// Lines are either dot-commands (data management, prepared statements,
// service stats, telemetry) or query text in the language of
// core/parser.h, with the EXPLAIN prefix rendering the plan (strategy,
// traversal engine, cache status, relation epoch) instead of the answer
// rows and EXPLAIN ANALYZE additionally printing the execution's span
// tree with actual per-stage wall times. `.trace on|N` forces/samples
// tracing for ordinary queries, `.metrics` dumps the service's metric
// registry in Prometheus text exposition. See examples/README.md for a
// quickstart transcript.

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/persistence.h"
#include "core/sharded_relation.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_usage.h"
#include "obs/statements.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "workload/generators.h"

namespace simq {
namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  .gen <relation> <count> <length> [seed]  create + bulk-load random"
      " walks\n"
      "  .stock <relation>                        bulk-load the 1067x128"
      " stock workload\n"
      "  .load <path> | .save <path> [version]    snapshot restore / save\n"
      "  .relations                               list relations and"
      " epochs\n"
      "  .prepare <name> <query text>             prepare a statement\n"
      "  .exec <name> [eps=<v>] [k=<n>] [of=#<s>] execute a prepared"
      " statement\n"
      "  .stats                                   service counters +"
      " latency percentiles\n"
      "  .metrics                                 metric registry in"
      " Prometheus text format\n"
      "  .top [n]                                 statements table, top n"
      " by total time (0=all)\n"
      "  .usage                                   this session's cumulative"
      " resource usage\n"
      "  .flight                                  dump the flight recorder"
      " as JSONL\n"
      "  .trace on|off|N                          trace every query /"
      " none / 1-in-N\n"
      "  .help | .quit\n"
      "anything else is parsed as a query; prefix with EXPLAIN to see the"
      " plan, or\n"
      "EXPLAIN ANALYZE to run it and print the span tree with actual"
      " timings.\n"
      "query language reference (grammar + worked examples):"
      " docs/QUERY_LANGUAGE.md\n");
}

void PrintPlan(const ServiceResult& result) {
  std::printf(
      "plan: strategy=%s engine=%s filter=%s shards=%d cache=%s epoch=%llu "
      "generation=%llu delta_rows=%lld prepared=%s fingerprint=%016llx\n",
      result.plan.strategy.c_str(), result.plan.engine.c_str(),
      result.plan.filter.c_str(), result.plan.shards,
      result.plan.cache_hit ? "hit" : "miss",
      static_cast<unsigned long long>(result.plan.relation_epoch),
      static_cast<unsigned long long>(result.plan.generation),
      static_cast<long long>(result.plan.delta_rows),
      result.plan.prepared ? "yes" : "no",
      static_cast<unsigned long long>(result.plan.fingerprint));
  std::printf(
      "stats: node_accesses=%lld candidates=%lld exact_checks=%lld "
      "(%.3f ms)\n",
      static_cast<long long>(result.result.stats.node_accesses),
      static_cast<long long>(result.result.stats.candidates),
      static_cast<long long>(result.result.stats.exact_checks),
      result.elapsed_ms);
  if (result.plan.filter != "none") {
    std::printf("filter: scanned=%lld survivors=%lld pruned=%.1f%%\n",
                static_cast<long long>(result.plan.filter_scanned),
                static_cast<long long>(result.plan.candidates),
                100.0 * result.plan.pruning_ratio);
  }
  // Per-shard cardinalities: the estimated column is planner-side, the
  // actual columns come from the execution -- the same rows back both
  // EXPLAIN and EXPLAIN ANALYZE, so the columns always line up. Empty on
  // cache hits replaying a pre-observability entry.
  if (!result.plan.per_shard.empty()) {
    std::printf("  %5s %10s %12s %12s %12s\n", "shard", "rows",
                "est_cand", "candidates", "exact");
    for (const ExecutionStats::ShardStats& shard : result.plan.per_shard) {
      std::printf("  %5d %10lld %12lld %12lld %12lld\n", shard.shard,
                  static_cast<long long>(shard.rows),
                  static_cast<long long>(shard.estimated_candidates),
                  static_cast<long long>(shard.candidates),
                  static_cast<long long>(shard.exact_checks));
    }
  }
  // EXPLAIN ANALYZE: the span tree with actual per-stage wall times.
  if (result.trace != nullptr) {
    std::fputs(obs::RenderTraceTree(result.trace->spans()).c_str(), stdout);
  }
}

void PrintResult(const ServiceResult& result, bool explain) {
  if (explain) {
    PrintPlan(result);
    return;
  }
  const QueryResult& answer = result.result;
  if (!answer.pairs.empty() || answer.matches.empty()) {
    std::printf("%zu pairs, %zu matches", answer.pairs.size(),
                answer.matches.size());
  } else {
    std::printf("%zu matches", answer.matches.size());
  }
  std::printf(" in %.3f ms%s\n", result.elapsed_ms,
              result.plan.cache_hit ? " (cached)" : "");
  const size_t show = std::min<size_t>(answer.matches.size(), 10);
  for (size_t i = 0; i < show; ++i) {
    std::printf("  %6lld  %-16s  %.6f\n",
                static_cast<long long>(answer.matches[i].id),
                answer.matches[i].name.c_str(), answer.matches[i].distance);
  }
  if (answer.matches.size() > show) {
    std::printf("  ... %zu more\n", answer.matches.size() - show);
  }
  const size_t show_pairs = std::min<size_t>(answer.pairs.size(), 10);
  for (size_t i = 0; i < show_pairs; ++i) {
    std::printf("  (%lld, %lld)  %.6f\n",
                static_cast<long long>(answer.pairs[i].first),
                static_cast<long long>(answer.pairs[i].second),
                answer.pairs[i].distance);
  }
  if (answer.pairs.size() > show_pairs) {
    std::printf("  ... %zu more\n", answer.pairs.size() - show_pairs);
  }
  // `.trace on|N` elected this execution: show where the time went.
  if (result.trace != nullptr) {
    std::fputs(obs::RenderTraceTree(result.trace->spans()).c_str(), stdout);
  }
}

void PrintStats(const ServiceStats& stats) {
  std::printf(
      "queries=%lld (prepared=%lld, parses=%lld)  mutations=%lld  "
      "admission_waits=%lld\n",
      static_cast<long long>(stats.queries),
      static_cast<long long>(stats.prepared_executions),
      static_cast<long long>(stats.cold_parses),
      static_cast<long long>(stats.mutations),
      static_cast<long long>(stats.admission_waits));
  const int64_t lookups = stats.cache.hits + stats.cache.misses;
  std::printf(
      "cache: hits=%lld misses=%lld hit_rate=%.1f%% entries_invalidated="
      "%lld cache_bytes=%lld\n",
      static_cast<long long>(stats.cache.hits),
      static_cast<long long>(stats.cache.misses),
      lookups > 0 ? 100.0 * static_cast<double>(stats.cache.hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      static_cast<long long>(stats.cache.invalidated_entries),
      static_cast<long long>(stats.cache.bytes));
  std::printf(
      "lifecycle: timeouts=%lld cancellations=%lld overloaded=%lld "
      "degraded=%lld\n",
      static_cast<long long>(stats.timeouts),
      static_cast<long long>(stats.cancellations),
      static_cast<long long>(stats.overloaded),
      static_cast<long long>(stats.degraded_queries));
  if (stats.wal_appends > 0 || stats.wal_failures > 0 ||
      stats.checkpoints > 0) {
    std::printf("wal: appends=%lld failures=%lld checkpoints=%lld\n",
                static_cast<long long>(stats.wal_appends),
                static_cast<long long>(stats.wal_failures),
                static_cast<long long>(stats.checkpoints));
  }
  std::printf("latency: p50=%.3f ms  p95=%.3f ms  p99=%.3f ms\n",
              stats.latency_p50_ms, stats.latency_p95_ms,
              stats.latency_p99_ms);
  std::printf("sessions: open=%lld total=%lld\n",
              static_cast<long long>(stats.active_sessions),
              static_cast<long long>(stats.sessions_opened));
  const ServiceStats::NetStats& net = stats.net;
  if (net.connections_accepted > 0 || net.connections_shed > 0 ||
      net.requests_shed > 0) {
    std::printf(
        "net: accepted=%lld active=%lld shed=%lld timed_out=%lld "
        "requests_shed=%lld bytes_in=%lld bytes_out=%lld\n",
        static_cast<long long>(net.connections_accepted),
        static_cast<long long>(net.connections_active),
        static_cast<long long>(net.connections_shed),
        static_cast<long long>(net.connections_timed_out),
        static_cast<long long>(net.requests_shed),
        static_cast<long long>(net.bytes_in),
        static_cast<long long>(net.bytes_out));
  }
}

// A `key=value`-style token of the .exec command; returns true on match.
bool ConsumeOption(const std::string& token, const std::string& key,
                   std::string* value) {
  if (token.rfind(key, 0) != 0) {
    return false;
  }
  *value = token.substr(key.size());
  return true;
}

// Strict numeric parsing for user input: the whole token must convert.
// std::stod/stoi throw on garbage ("eps=abc") and would unwind the REPL;
// the shell must print a usage error and keep the session alive instead.
bool ParseDoubleArg(const std::string& text, double* out) {
  try {
    size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size()) {
      return false;
    }
    *out = value;
    return true;
  } catch (...) {
    return false;
  }
}

bool ParseIntArg(const std::string& text, int* out) {
  try {
    size_t consumed = 0;
    const int value = std::stoi(text, &consumed);
    if (consumed != text.size()) {
      return false;
    }
    *out = value;
    return true;
  } catch (...) {
    return false;
  }
}

class Shell {
 public:
  // SIMQ_SHARDS=<n> shards every relation's data plane n ways
  // (core/sharded_relation.h); EXPLAIN then reports the scatter width.
  Shell()
      : service_(std::make_unique<QueryService>(Database(
            FeatureConfig(), RTree::Options(), ShardingOptions::FromEnv()))),
        session_(service_->OpenSession()) {}

  // Returns false when the shell should exit.
  bool HandleLine(const std::string& line) {
    std::istringstream in(line);
    std::string head;
    if (!(in >> head)) {
      return true;  // blank line
    }
    if (head == ".quit" || head == ".exit") {
      return false;
    }
    if (head == ".help") {
      PrintHelp();
    } else if (head == ".gen") {
      CmdGenerate(in);
    } else if (head == ".stock") {
      CmdStock(in);
    } else if (head == ".load") {
      CmdLoad(in);
    } else if (head == ".save") {
      CmdSave(in);
    } else if (head == ".relations") {
      CmdRelations();
    } else if (head == ".prepare") {
      CmdPrepare(in, line);
    } else if (head == ".exec") {
      CmdExec(in);
    } else if (head == ".stats") {
      PrintStats(service_->stats());
    } else if (head == ".metrics") {
      CmdMetrics();
    } else if (head == ".top") {
      CmdTop(in);
    } else if (head == ".usage") {
      CmdUsage();
    } else if (head == ".flight") {
      CmdFlight();
    } else if (head == ".trace") {
      CmdTrace(in);
    } else if (!head.empty() && head[0] == '.') {
      std::printf("unknown command '%s' (try .help)\n", head.c_str());
    } else {
      CmdQuery(line);
    }
    return true;
  }

 private:
  void CmdGenerate(std::istringstream& in) {
    std::string relation;
    int count = 0;
    int length = 0;
    uint64_t seed = 42;
    if (!(in >> relation >> count >> length)) {
      std::printf("usage: .gen <relation> <count> <length> [seed]\n");
      return;
    }
    in >> seed;
    Status status = service_->CreateRelation(relation);
    if (status.ok()) {
      status = service_->BulkLoad(
          relation, workload::RandomWalkSeries(count, length, seed));
    }
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    std::printf("loaded %d random walks of length %d into '%s'\n", count,
                length, relation.c_str());
  }

  // Full registry scrape, in the same text exposition the HTTP endpoint
  // serves; RefreshScrapeGauges first so the mirrored delta/cache/
  // statements gauges reflect this scrape's moment.
  void CmdMetrics() {
    service_->RefreshScrapeGauges();
    std::fputs(service_->metrics_registry()->RenderPrometheusText().c_str(),
               stdout);
  }

  // `.top [n]`: the statements table (pg_stat_statements-style), top n
  // rows by total time (default 10, 0 = all). The same Top() snapshot
  // backs the kStatements wire frame and the HTTP /statements endpoint.
  void CmdTop(std::istringstream& in) {
    int n = 10;
    std::string arg;
    if (in >> arg && (!ParseIntArg(arg, &n) || n < 0)) {
      std::printf("usage: .top [n]  (0 shows all)\n");
      return;
    }
    const std::vector<obs::StatementStats> rows =
        service_->statements()->Top(static_cast<size_t>(n));
    if (rows.empty()) {
      std::printf("no statements recorded yet\n");
      return;
    }
    std::printf("  %-16s %6s %4s %5s %10s %8s %8s %9s  %s\n", "fingerprint",
                "calls", "fail", "hits", "total_ms", "mean_ms", "p95_ms",
                "cpu_ms", "text");
    for (const obs::StatementStats& row : rows) {
      const double mean_ms =
          row.calls > 0 ? row.total_ms / static_cast<double>(row.calls) : 0.0;
      const double p95_ms =
          row.latency.count > 0 ? row.latency.Percentile(95.0) : 0.0;
      const int64_t failures =
          row.errors + row.timeouts + row.cancellations + row.sheds;
      std::printf(
          "  %016llx %6lld %4lld %5lld %10.3f %8.3f %8.3f %9.3f  %s\n",
          static_cast<unsigned long long>(row.fingerprint),
          static_cast<long long>(row.calls),
          static_cast<long long>(failures),
          static_cast<long long>(row.cache_hits), row.total_ms, mean_ms,
          p95_ms, static_cast<double>(row.total.cpu_ns) / 1e6,
          row.text.c_str());
    }
  }

  // `.usage`: this session's cumulative ResourceUsage roll-up.
  void CmdUsage() {
    const obs::ResourceUsage usage = session_->cumulative_usage();
    std::printf("{%s}\n", obs::FormatResourceUsageJson(usage).c_str());
  }

  // `.flight`: the flight recorder's current contents as JSONL -- the
  // same bytes HTTP /flightrecorder serves and the crash path writes.
  void CmdFlight() {
    std::fputs(service_->flight_recorder()->DumpJsonl().c_str(), stdout);
  }

  // `.trace on` traces every subsequent query, `.trace N` one in N,
  // `.trace off` none. Shell-side election: elected queries run with
  // ExecOptions::force_trace, so this is independent of the service's own
  // sampler and never changes the answer set.
  void CmdTrace(std::istringstream& in) {
    std::string mode;
    if (!(in >> mode)) {
      std::printf("usage: .trace on|off|N  (N traces 1 in N queries)\n");
      return;
    }
    if (mode == "on") {
      trace_every_ = 1;
    } else if (mode == "off") {
      trace_every_ = 0;
    } else {
      int every = 0;
      if (!ParseIntArg(mode, &every) || every < 1) {
        std::printf("usage: .trace on|off|N  (N traces 1 in N queries)\n");
        return;
      }
      trace_every_ = every;
    }
    trace_seq_ = 0;
    if (trace_every_ == 0) {
      std::printf("tracing off\n");
    } else if (trace_every_ == 1) {
      std::printf("tracing every query\n");
    } else {
      std::printf("tracing 1 in %d queries\n", trace_every_);
    }
  }

  // The ExecOptions for the next query under the `.trace` setting.
  ExecOptions NextExecOptions() {
    ExecOptions options;
    if (trace_every_ > 0) {
      options.force_trace = (trace_seq_++ % trace_every_) == 0;
    }
    return options;
  }

  void CmdStock(std::istringstream& in) {
    std::string relation;
    if (!(in >> relation)) {
      std::printf("usage: .stock <relation>\n");
      return;
    }
    Status status = service_->CreateRelation(relation);
    if (status.ok()) {
      status = service_->BulkLoad(
          relation, workload::StockMarket(workload::StockMarketOptions()));
    }
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    std::printf("loaded the stock workload into '%s'\n", relation.c_str());
  }

  void CmdLoad(std::istringstream& in) {
    std::string path;
    if (!(in >> path)) {
      std::printf("usage: .load <path>\n");
      return;
    }
    Result<Database> loaded = LoadDatabase(path);
    if (!loaded.ok()) {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
      return;
    }
    // Replace the whole service: prepared statements refer to the old
    // data and are dropped with the old session.
    session_.reset();
    statements_.clear();
    service_ = std::make_unique<QueryService>(std::move(loaded).value());
    session_ = service_->OpenSession();
    std::printf("loaded '%s'\n", path.c_str());
    CmdRelations();
  }

  void CmdSave(std::istringstream& in) {
    std::string path;
    int version = 3;
    if (!(in >> path)) {
      std::printf("usage: .save <path> [version 1..3]\n");
      return;
    }
    std::string version_arg;
    if (in >> version_arg && !ParseIntArg(version_arg, &version)) {
      std::printf("version '%s' is not an integer\n", version_arg.c_str());
      return;
    }
    // An unwritable path or unsupported version comes back as a Status
    // (kIoError / kInvalidArgument); the session stays alive either way,
    // and a failed save never leaves a partial file (core/persistence.h
    // writes a temp file and renames only after fsync).
    const Status status =
        SaveDatabase(service_->database_unlocked(), path, version);
    std::printf("%s\n", status.ok() ? "saved" : status.ToString().c_str());
  }

  void CmdRelations() {
    for (const std::string& name :
         service_->database_unlocked().RelationNames()) {
      const Relation* relation =
          service_->database_unlocked().GetRelation(name);
      std::printf("  %-16s %lld series x %d  (epoch %llu)\n", name.c_str(),
                  static_cast<long long>(relation->size()),
                  relation->series_length(),
                  static_cast<unsigned long long>(
                      service_->RelationEpoch(name)));
    }
  }

  void CmdPrepare(std::istringstream& in, const std::string& line) {
    std::string name;
    if (!(in >> name)) {
      std::printf("usage: .prepare <name> <query text>\n");
      return;
    }
    // Everything after the statement name is the query text; tellg points
    // just past the token the stream consumed.
    const std::streampos text_start = in.tellg();
    if (text_start < 0) {
      std::printf("usage: .prepare <name> <query text>\n");
      return;
    }
    const std::string text = line.substr(static_cast<size_t>(text_start));
    const Result<int64_t> statement = session_->Prepare(text);
    if (!statement.ok()) {
      std::printf("error: %s\n", statement.status().ToString().c_str());
      return;
    }
    statements_[name] = statement.value();
    std::printf("prepared '%s' as statement %lld\n", name.c_str(),
                static_cast<long long>(statement.value()));
  }

  void CmdExec(std::istringstream& in) {
    std::string name;
    if (!(in >> name)) {
      std::printf("usage: .exec <name> [eps=<v>] [k=<n>] [of=#<series>]\n");
      return;
    }
    const auto it = statements_.find(name);
    if (it == statements_.end()) {
      std::printf("no prepared statement named '%s'\n", name.c_str());
      return;
    }
    BindParams params;
    std::string token;
    while (in >> token) {
      std::string value;
      if (ConsumeOption(token, "eps=", &value)) {
        double eps = 0.0;
        if (!ParseDoubleArg(value, &eps)) {
          std::printf("eps '%s' is not a number\n", value.c_str());
          return;
        }
        params.epsilon = eps;
      } else if (ConsumeOption(token, "k=", &value)) {
        int k = 0;
        if (!ParseIntArg(value, &k)) {
          std::printf("k '%s' is not an integer\n", value.c_str());
          return;
        }
        params.k = k;
      } else if (ConsumeOption(token, "of=#", &value)) {
        params.series.emplace();
        params.series->name = value;
      } else {
        std::printf("unknown option '%s'\n", token.c_str());
        return;
      }
    }
    const Result<ServiceResult> result =
        session_->ExecutePrepared(it->second, params, NextExecOptions());
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    PrintResult(result.value(), /*explain=*/false);
  }

  void CmdQuery(const std::string& text) {
    const Result<ServiceResult> result =
        session_->Execute(text, NextExecOptions());
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    PrintResult(result.value(), result.value().plan.explain);
  }

  std::unique_ptr<QueryService> service_;
  std::unique_ptr<Session> session_;
  std::map<std::string, int64_t> statements_;
  int trace_every_ = 0;    // 0 = off, 1 = every query, N = 1 in N
  int64_t trace_seq_ = 0;  // shell-side election counter for `.trace N`
};

int Main() {
  std::printf("simq shell -- .help for commands, .quit to exit\n");
  Shell shell;
  std::string line;
  while (true) {
    std::printf("simq> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    // Last-resort guard: no input line may kill the REPL. Commands report
    // failures as Status already; this catches anything that still
    // escapes (e.g. an injected fault surfacing as an exception).
    try {
      if (!shell.HandleLine(line)) {
        break;
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace simq

int main() { return simq::Main(); }
