// The one cache of a lazily compiled, immutable artifact over an owner's
// rows: a relation shard's packed R-tree and its quantized codes, and the
// subsequence index's packed tree. One rebuild protocol serves them all:
//
//   * Get(compile, rows) returns the artifact, first compiling it with
//     `compile()` (a callable returning std::unique_ptr<T>) when there is
//     none -- never built, invalidated by a bulk load, or installed empty
//     by a fold. The compile covers the owner's first `rows` rows; rows at
//     or past the coverage are the artifact's delta, which readers scan
//     exactly. Only a compile can fail: the named failpoint stands in for
//     any real compile failure, and the view is then empty (no artifact,
//     nothing covered), so the caller scans every row exactly. A compiled
//     artifact is reused without evaluating the failpoint.
//   * Peek() is Get without the compile: the artifact only if it exists.
//     A plan estimate or a fold looks through it, so neither can pay for
//     (or fail) a build.
//   * Install(artifact, rows) swaps in an artifact compiled elsewhere at
//     its coverage (a recompaction publish); Invalidate() drops the
//     artifact (a bulk load), and the next Get compiles.
//
// Thread-safety: Get and Peek run under the owner's shared lock and are
// safe against each other; the internal mutex serializes the compile.
// Install and Invalidate, and the mutation they reflect, need the owner's
// exclusive lock, so no reader still holds the artifact they drop. A
// view stays valid for as long as its reader holds the shared lock.

#ifndef SIMQ_UTIL_ARTIFACT_CACHE_H_
#define SIMQ_UTIL_ARTIFACT_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "util/failpoint.h"

namespace simq {

template <typename T>
class ArtifactCache {
 public:
  // An artifact and the owner rows it covers, read under one lock. A null
  // artifact covers nothing.
  struct View {
    const T* artifact = nullptr;
    int64_t covered = 0;
  };

  // `failpoint` names the fault a compile evaluates; null never fails (an
  // owner with no degraded path).
  explicit ArtifactCache(const char* failpoint) : failpoint_(failpoint) {}

  template <typename CompileFn>
  View Get(CompileFn&& compile, int64_t rows) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (artifact_ == nullptr) {
      if (failpoint_ != nullptr && SIMQ_FAILPOINT_FIRED(failpoint_)) {
        return View{};
      }
      artifact_ = compile();
      covered_ = rows;
    }
    return ViewLocked();
  }

  View Peek() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ViewLocked();
  }

  void Install(std::unique_ptr<T> artifact, int64_t rows) {
    std::lock_guard<std::mutex> lock(mutex_);
    artifact_ = std::move(artifact);
    covered_ = rows;
  }

  void Invalidate() { Install(nullptr, 0); }

 private:
  View ViewLocked() const {
    return artifact_ != nullptr ? View{artifact_.get(), covered_} : View{};
  }

  const char* const failpoint_;
  mutable std::mutex mutex_;
  mutable std::unique_ptr<T> artifact_;
  mutable int64_t covered_ = 0;
};

}  // namespace simq

#endif  // SIMQ_UTIL_ARTIFACT_CACHE_H_
