#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("Percentile needs samples and 0 < p <= 100");
  }
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Summary Summarize(const std::vector<double>& samples) {
  Summary out;
  if (samples.empty()) {
    return out;
  }
  out.n = static_cast<int64_t>(samples.size());
  out.p50 = Percentile(samples, 50.0);
  out.p99 = Percentile(samples, 99.0);
  double sum = 0.0;
  for (double value : samples) {
    sum += value;
  }
  out.mean = sum / static_cast<double>(samples.size());
  return out;
}

double SelfTimeUs(const Span& span, const std::vector<Span>& spans) {
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : spans) {
    if (child.parent != span.id || child.replay) {
      continue;
    }
    const double lo = std::max(child.start_us, span.start_us);
    const double hi = std::min(child.end_us, span.end_us);
    if (hi > lo) {
      covered.emplace_back(lo, hi);
    }
  }
  std::sort(covered.begin(), covered.end());
  double union_us = 0.0;
  double run_lo = 0.0;
  double run_hi = 0.0;
  bool open = false;
  for (const auto& interval : covered) {
    if (open && interval.first <= run_hi) {
      run_hi = std::max(run_hi, interval.second);
      continue;
    }
    if (open) {
      union_us += run_hi - run_lo;
    }
    run_lo = interval.first;
    run_hi = interval.second;
    open = true;
  }
  if (open) {
    union_us += run_hi - run_lo;
  }
  return span.duration_us() - union_us;
}

double RemainderUs(const Span& root, const std::vector<Span>& spans) {
  double replayed_us = 0.0;
  for (const Span& child : spans) {
    if (child.parent == root.id && child.replay) {
      replayed_us += child.duration_us();
    }
  }
  return SelfTimeUs(root, spans) - replayed_us;
}

bool SameAnswers(const std::vector<simq::Match>& got,
                 const std::vector<simq::Match>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id ||
        Bits(got[i].distance) != Bits(want[i].distance)) {
      return false;
    }
  }
  return true;
}

bool SameAnswersByName(std::vector<simq::Match> got,
                       std::vector<simq::Match> want) {
  if (got.size() != want.size()) {
    return false;
  }
  const auto by_distance_then_name = [](const simq::Match& a,
                                        const simq::Match& b) {
    if (a.distance != b.distance) {
      return a.distance < b.distance;
    }
    return a.name < b.name;
  };
  std::sort(got.begin(), got.end(), by_distance_then_name);
  std::sort(want.begin(), want.end(), by_distance_then_name);
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].name != want[i].name ||
        Bits(got[i].distance) != Bits(want[i].distance)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
