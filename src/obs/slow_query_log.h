/// Structured slow-query log: one JSONL line per traced query that
/// crossed the latency threshold, carrying enough context (fingerprint,
/// epoch, plan choice, span summary) to reconstruct where the time went
/// without re-running the query.
///
/// The service owns one SlowQueryLog when ServiceOptions::slow_query_log_
/// path is set; after each traced execution it calls ShouldLog(elapsed)
/// -- the threshold -- and appends a FormatSlowQueryJson line. Appends
/// take a mutex and write+flush one line; the slow path is by definition
/// not the hot path.
///
/// The JSON subset used here is deliberately tiny (string/number/bool
/// scalars, one flat object, one array of flat span objects, no nesting
/// beyond that) so ParseSlowQueryJson can round-trip it for tests and
/// offline tooling without a JSON dependency. Strings are escaped per
/// RFC 8259 (backslash, quote, and control characters as \uXXXX) by
/// AppendJsonString, which the statements table's JSON shares.

#ifndef SIMQ_OBS_SLOW_QUERY_LOG_H_
#define SIMQ_OBS_SLOW_QUERY_LOG_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace simq {
namespace obs {

/// What one slow-query line records. `spans` is the trace snapshot at
/// completion; everything else is the query's service-level summary.
struct SlowQueryEntry {
  int64_t unix_ms = 0;          // wall-clock completion time
  std::string fingerprint;      // canonical query text (cache key text)
  uint64_t epoch = 0;           // snapshot epoch the query ran against
  std::string relation;
  double elapsed_ms = 0.0;
  std::string strategy;         // plan strategy (scan/index/...)
  std::string engine;           // engine choice (scalar/packed/...)
  bool filtered = false;        // quantized filter path ran
  bool cache_hit = false;
  bool degraded = false;        // engine degradation fallback fired
  int shards = 0;
  std::vector<TraceSpan> spans;
};

/// Appends `value` to `out` as a quoted JSON string: quote, backslash,
/// \n, \t and \r escaped by name, every other byte below 0x20 as
/// \u00XX, every other byte as is.
void AppendJsonString(const std::string& value, std::string* out);

/// Serializes `entry` as a single JSON object (no trailing newline).
std::string FormatSlowQueryJson(const SlowQueryEntry& entry);

/// Parses a line produced by FormatSlowQueryJson. Returns false on any
/// syntax error or missing required field; unknown keys are skipped so
/// the schema can grow.
bool ParseSlowQueryJson(const std::string& line, SlowQueryEntry* out);

/// Where the log goes and its threshold (ServiceOptions mirrors this).
struct SlowQueryLogOptions {
  std::string path;            // empty = disabled
  double threshold_ms = 100.0; // log only queries at least this slow
};

/// Append-only JSONL writer. Thread-safe; one line per Append.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(SlowQueryLogOptions options);
  ~SlowQueryLog();

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// True when the log is open and `elapsed_ms` clears the threshold.
  bool ShouldLog(double elapsed_ms) const;

  /// Writes one line and flushes. No-op if the file failed to open.
  void Append(const SlowQueryEntry& entry);

  bool ok() const { return file_ != nullptr; }
  int64_t lines_written() const;

 private:
  const SlowQueryLogOptions options_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  int64_t written_ = 0;
};

}  // namespace obs
}  // namespace simq

#endif  // SIMQ_OBS_SLOW_QUERY_LOG_H_
