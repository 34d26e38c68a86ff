/// Subsequence matching: the ST-index of Faloutsos, Ranganathan &
/// Manolopoulos [FRM94], the second indexing substrate [RM97] builds on
/// ("We show how to use the indexing method in [AFS93] ..."; [FRM94] extends
/// [AFS93] from whole-sequence to subsequence matching).
///
/// Problem: given a collection of long sequences, find every (sequence,
/// offset) whose length-w window is within epsilon of a length-w query.
///
/// Method: slide a window of length w over each stored sequence; each
/// position maps to the first k DFT coefficients of the window -- a point in
/// a low-dimensional feature space. Consecutive positions form a *trail*;
/// trails are cut into sub-trails, each covered by an MBR stored in an
/// R*-tree. A range query inflates the query's feature point by epsilon and
/// retrieves intersecting MBRs; every window offset inside a retrieved
/// sub-trail is then verified against the raw data (early-abandoning
/// Euclidean distance). Feature distances lower-bound window distances
/// (Parseval prefix), so there are no false dismissals.
///
/// Window features are computed incrementally: the unitary DFT of the next
/// window follows from the previous one in O(k) (the sliding-window update),
/// so indexing a sequence of length m costs O(m * k), not O(m * w).
///
/// Trail packing follows [FRM94]'s I-adaptive idea: greedily extend the
/// current MBR while the marginal cost estimate of covering one more point
/// stays below the cost of opening a fresh MBR (kAdaptive), or simply cut
/// every `max_trail_length` points (kFixed).
///
/// Trails are inserted into an R*-tree one series at a time (AddSeries);
/// RangeSearch traverses a packed snapshot of it, recompiled on the first
/// search after an AddSeries. Options::rtree.max_entries must not exceed
/// PackedRTree::kMaxFanout (checked at construction).
///
/// Thread-safety: RangeSearch/ScanSearch and all const accessors are
/// snapshot-safe (concurrent callers share the immutable packed snapshot,
/// and each search counts its own node accesses). AddSeries mutates the
/// trail table and the R*-tree and requires exclusive access, exactly
/// like relation mutations (see util/artifact_cache.h).

#ifndef SIMQ_SUBSEQ_SUBSEQUENCE_INDEX_H_
#define SIMQ_SUBSEQ_SUBSEQUENCE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "ts/dft.h"
#include "ts/time_series.h"
#include "util/artifact_cache.h"
#include "util/status.h"

namespace simq {

enum class TrailPacking { kFixed, kAdaptive };

class SubsequenceIndex {
 public:
  struct Options {
    int window = 64;            // w: subsequence length being matched
    int num_coefficients = 3;   // k: DFT coefficients kept (incl. f = 0)
    TrailPacking packing = TrailPacking::kAdaptive;
    int max_trail_length = 64;  // hard cap on points per sub-trail MBR
    RTree::Options rtree;
  };

  struct SubsequenceMatch {
    int64_t series_id = 0;
    int offset = 0;  // start of the matching window
    double distance = 0.0;
  };

  struct SearchStats {
    int64_t node_accesses = 0;
    int64_t trails_retrieved = 0;
    int64_t windows_checked = 0;
  };

  explicit SubsequenceIndex(Options options);

  // Registers a sequence (id = number of previously added sequences).
  // Requires series.length() >= window.
  Result<int64_t> AddSeries(const TimeSeries& series);

  // All windows within `epsilon` of `query` (query.size() == window),
  // via the ST-index. Results sorted by distance.
  std::vector<SubsequenceMatch> RangeSearch(const std::vector<double>& query,
                                            double epsilon,
                                            SearchStats* stats = nullptr) const;

  // Baseline: scan every window of every sequence with early abandoning.
  std::vector<SubsequenceMatch> ScanSearch(const std::vector<double>& query,
                                           double epsilon,
                                           SearchStats* stats = nullptr) const;

  int64_t num_series() const { return static_cast<int64_t>(series_.size()); }
  int64_t num_windows() const { return num_windows_; }
  int64_t num_trails() const { return static_cast<int64_t>(trails_.size()); }
  const RTree& rtree() const { return *tree_; }
  // Packed snapshot of rtree(); RangeSearch traverses this. AddSeries
  // marks it stale, the next query recompiles it (thread-safe against
  // concurrent queries).
  const PackedRTree& packed_rtree() const;
  const Options& options() const { return options_; }

  // Feature layout: Re(X0), then (Re, Im) of X1..X{k-1}. X0 of a real
  // window is real, so its imaginary part is not stored.
  int feature_dims() const { return 2 * options_.num_coefficients - 1; }

  // First k unitary DFT coefficients of one window, laid out as above.
  // Exposed for tests and for building query points.
  std::vector<double> WindowFeatures(const double* window_data) const;

 private:
  struct Trail {
    int64_t series_id = 0;
    int start = 0;  // first window offset covered
    int count = 0;  // number of consecutive windows covered
  };

  double MbrCost(const Rect& rect) const;

  Options options_;
  std::vector<std::vector<double>> series_;
  std::vector<Trail> trails_;
  std::unique_ptr<RTree> tree_;
  // No failpoint: the subsequence index has no degraded path.
  ArtifactCache<PackedRTree> packed_{nullptr};
  int64_t num_windows_ = 0;
};

}  // namespace simq

#endif  // SIMQ_SUBSEQ_SUBSEQUENCE_INDEX_H_
