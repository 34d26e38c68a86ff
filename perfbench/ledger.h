/// The benchmark's own arithmetic, kept out of the harness so that
/// ledger_test.cc can pin it down:
///
///  * exact percentiles over every raw sample (nearest rank), with the
///    sample count -- no histogram buckets, which would blur a 5% change;
///  * span self time: a span's duration minus the part of its interval
///    that its children cover, overlapping children counted once;
///  * the remainder rule behind net.self_us: what is left of a wire
///    request once its inline children and its in-process replays are
///    taken out, so the per-layer ledger adds up by construction;
///  * the answer comparators: ids and IEEE-754 distance bits in order for
///    wire answers, series names and distance bits for the churn check.

#ifndef SIMQ_PERFBENCH_LEDGER_H_
#define SIMQ_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <vector>

#include "core/query.h"

namespace perfbench {

/// Nearest-rank percentile of `samples` (need not be sorted): the
/// ceil(p/100 * n)-th smallest value, so the result is always one of the
/// samples. Requires a non-empty sample and 0 < p <= 100.
double Percentile(std::vector<double> samples, double p);

/// Median, p99 and mean of a sample, with its size. All zero when empty.
struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

/// One traced interval. Times are microseconds from the run's origin.
/// `replay` marks in-process replays of a wire request: they ran after the
/// request completed, so they lie outside its interval and are taken out
/// of it by duration (the remainder rule), not by coverage.
struct Span {
  int64_t request = 0;  // wire request or write the span belongs to
  int id = 0;
  int parent = -1;      // -1 for a root
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  bool replay = false;

  double duration_us() const { return end_us - start_us; }
};

/// Self time of `span`: its duration minus the length of the union of its
/// non-replay children's intervals, each clipped to the span. `spans` may
/// hold any spans; only those whose parent is span.id count.
double SelfTimeUs(const Span& span, const std::vector<Span>& spans);

/// The remainder rule: SelfTimeUs(root) minus the summed durations of the
/// root's replay children. For a wire request whose inline children are
/// the client codec calls and whose replays are the server codec, parse
/// and service calls, this is net.self_us.
double RemainderUs(const Span& root, const std::vector<Span>& spans);

/// Wire answer check: same length, and at every position the same id and
/// the same distance bit pattern.
bool SameAnswers(const std::vector<simq::Match>& got,
                 const std::vector<simq::Match>& want);

/// Churn check, where ids differ between the live relation and a fresh
/// bulk load: both sides ordered by (distance, name), then the same name
/// and the same distance bit pattern at every position.
bool SameAnswersByName(std::vector<simq::Match> got,
                       std::vector<simq::Match> want);

}  // namespace perfbench

#endif  // SIMQ_PERFBENCH_LEDGER_H_
