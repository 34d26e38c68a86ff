#include "obs/statements.h"

#include <algorithm>

#include "obs/slow_query_log.h"

namespace simq {
namespace obs {

void StatementsTable::Record(uint64_t fingerprint, const std::string& text,
                             const Status& status, bool cache_hit,
                             double elapsed_ms,
                             const ResourceUsage& usage) {
  if (capacity_ == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().fingerprint);
      lru_.pop_back();
      ++evictions_;
    }
    StatementStats fresh;
    fresh.fingerprint = fingerprint;
    fresh.text = text.size() > kStatementTextCap
                     ? text.substr(0, kStatementTextCap)
                     : text;
    lru_.push_front(std::move(fresh));
    it = index_.emplace(fingerprint, lru_.begin()).first;
  } else if (it->second != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second = lru_.begin();
  }
  StatementStats& row = *it->second;
  ++row.calls;
  if (!status.ok()) {
    switch (status.code()) {
      case StatusCode::kTimeout: ++row.timeouts; break;
      case StatusCode::kCancelled: ++row.cancellations; break;
      case StatusCode::kOverloaded: ++row.sheds; break;
      default: ++row.errors;
    }
  }
  if (cache_hit) {
    ++row.cache_hits;
  }
  row.total_ms += elapsed_ms;
  row.max_ms = std::max(row.max_ms, elapsed_ms);
  row.latency.Observe(elapsed_ms);
  row.total.Add(usage);
  row.max.MaxWith(usage);
}

std::vector<StatementStats> StatementsTable::Top(size_t n) const {
  std::vector<StatementStats> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.assign(lru_.begin(), lru_.end());
  }
  std::sort(out.begin(), out.end(),
            [](const StatementStats& a, const StatementStats& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              if (a.calls != b.calls) return a.calls > b.calls;
              return a.fingerprint < b.fingerprint;
            });
  if (n > 0 && out.size() > n) {
    out.resize(n);
  }
  return out;
}

size_t StatementsTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

int64_t StatementsTable::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

void StatementsTable::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

std::string RenderStatementsJson(const std::vector<StatementStats>& rows) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < rows.size(); ++i) {
    const StatementStats& row = rows[i];
    if (i > 0) {
      out += ",";
    }
    std::snprintf(buf, sizeof(buf), "{\"fingerprint\":\"%016llx\",",
                  static_cast<unsigned long long>(row.fingerprint));
    out += buf;
    out += "\"text\":";
    AppendJsonString(row.text, &out);
    out += ",";
    std::snprintf(
        buf, sizeof(buf), "\"calls\":%lld,\"errors\":%lld,",
        static_cast<long long>(row.calls), static_cast<long long>(row.errors));
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"timeouts\":%lld,\"cancelled\":%lld,",
                  static_cast<long long>(row.timeouts),
                  static_cast<long long>(row.cancellations));
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"sheds\":%lld,\"cache_hits\":%lld,",
                  static_cast<long long>(row.sheds),
                  static_cast<long long>(row.cache_hits));
    out += buf;
    out += "\"total_ms\":" + FormatMetricValue(row.total_ms) + ",";
    out += "\"mean_ms\":" +
           FormatMetricValue(row.calls > 0
                                 ? row.total_ms /
                                       static_cast<double>(row.calls)
                                 : 0.0) +
           ",";
    out += "\"max_ms\":" + FormatMetricValue(row.max_ms) + ",";
    out += "\"p50_ms\":" + FormatMetricValue(row.latency.Percentile(50)) +
           ",";
    out += "\"p95_ms\":" + FormatMetricValue(row.latency.Percentile(95)) +
           ",";
    out += "\"p99_ms\":" + FormatMetricValue(row.latency.Percentile(99)) +
           ",";
    out += "\"total\":{" + FormatResourceUsageJson(row.total) + "},";
    out += "\"max\":{" + FormatResourceUsageJson(row.max) + "}}";
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace simq
