#include "obs/slow_query_log.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace simq {
namespace obs {

void AppendJsonString(const std::string& value, std::string* out) {
  out->push_back('"');
  for (char c : value) {
    const unsigned char uc = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (uc < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", uc);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    *out += "0";
    return;
  }
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::fabs(value) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    *out += buf;
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  *out += buf;
}

void AppendField(const char* key, const std::string& value, bool* first,
                 std::string* out) {
  if (!*first) {
    out->push_back(',');
  }
  *first = false;
  out->push_back('"');
  *out += key;
  *out += "\":";
  AppendJsonString(value, out);
}

void AppendField(const char* key, double value, bool* first,
                 std::string* out) {
  if (!*first) {
    out->push_back(',');
  }
  *first = false;
  out->push_back('"');
  *out += key;
  *out += "\":";
  AppendNumber(value, out);
}

void AppendField(const char* key, bool value, bool* first,
                 std::string* out) {
  if (!*first) {
    out->push_back(',');
  }
  *first = false;
  out->push_back('"');
  *out += key;
  *out += "\":";
  *out += value ? "true" : "false";
}

// -------------------------------------------------------------------------
// Minimal JSON reader for the subset FormatSlowQueryJson emits: one flat
// object whose values are strings, numbers, bools, or one array of flat
// objects. Poisoned-cursor style like net/wire.h.
// -------------------------------------------------------------------------

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  bool ok() const { return ok_; }
  void Poison() { ok_ = false; }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      ok_ = false;
      return '\0';
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      ok_ = false;
      return;
    }
    ++pos_;
  }

  bool TryConsume(char c) {
    if (ok_ && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string ReadString() {
    std::string out;
    Expect('"');
    while (ok_) {
      if (pos_ >= text_.size()) {
        ok_ = false;
        break;
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        ok_ = false;
        break;
      }
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            ok_ = false;
            break;
          }
          unsigned value = 0;
          for (int i = 0; i < 4 && ok_; ++i) {
            const char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              ok_ = false;
            }
          }
          // The writer only emits \u00XX control escapes; anything in
          // the Latin-1 range round-trips, the rest is replaced.
          out.push_back(value < 0x100 ? static_cast<char>(value) : '?');
          break;
        }
        default:
          ok_ = false;
      }
    }
    return out;
  }

  double ReadNumber() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      ok_ = false;
      return 0.0;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      ok_ = false;
      return 0.0;
    }
    return value;
  }

  bool ReadBool() {
    SkipSpace();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    ok_ = false;
    return false;
  }

  /// Skips any scalar value (string / number / bool / null) -- how
  /// unknown keys stay forward-compatible.
  void SkipScalar() {
    const char c = Peek();
    if (c == '"') {
      ReadString();
    } else if (c == 't' || c == 'f') {
      ReadBool();
    } else if (c == 'n') {
      if (text_.compare(pos_, 4, "null") == 0) {
        pos_ += 4;
      } else {
        ok_ = false;
      }
    } else {
      ReadNumber();
    }
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

bool ParseSpan(JsonCursor* cur, TraceSpan* span) {
  cur->Expect('{');
  if (cur->TryConsume('}')) {
    return cur->ok();
  }
  while (cur->ok()) {
    const std::string key = cur->ReadString();
    cur->Expect(':');
    if (!cur->ok()) {
      return false;
    }
    if (key == "name") {
      span->name = cur->ReadString();
    } else if (key == "parent") {
      span->parent = static_cast<int>(cur->ReadNumber());
    } else if (key == "shard") {
      span->shard = static_cast<int>(cur->ReadNumber());
    } else if (key == "start_ms") {
      span->start_ms = cur->ReadNumber();
    } else if (key == "elapsed_ms") {
      span->elapsed_ms = cur->ReadNumber();
    } else if (key == "scanned") {
      span->rows_scanned = static_cast<int64_t>(cur->ReadNumber());
    } else if (key == "pruned") {
      span->rows_pruned = static_cast<int64_t>(cur->ReadNumber());
    } else if (key == "rows") {
      span->rows_returned = static_cast<int64_t>(cur->ReadNumber());
    } else if (key == "note") {
      span->note = cur->ReadString();
    } else {
      cur->SkipScalar();
    }
    if (cur->TryConsume('}')) {
      return cur->ok();
    }
    cur->Expect(',');
  }
  return false;
}

}  // namespace

std::string FormatSlowQueryJson(const SlowQueryEntry& entry) {
  std::string out;
  out.reserve(256 + entry.spans.size() * 96);
  out.push_back('{');
  bool first = true;
  AppendField("ts_ms", static_cast<double>(entry.unix_ms), &first, &out);
  AppendField("fingerprint", entry.fingerprint, &first, &out);
  AppendField("epoch", static_cast<double>(entry.epoch), &first, &out);
  AppendField("relation", entry.relation, &first, &out);
  AppendField("elapsed_ms", entry.elapsed_ms, &first, &out);
  AppendField("strategy", entry.strategy, &first, &out);
  AppendField("engine", entry.engine, &first, &out);
  AppendField("filtered", entry.filtered, &first, &out);
  AppendField("cache_hit", entry.cache_hit, &first, &out);
  AppendField("degraded", entry.degraded, &first, &out);
  AppendField("shards", static_cast<double>(entry.shards), &first, &out);
  out += ",\"spans\":[";
  for (size_t i = 0; i < entry.spans.size(); ++i) {
    const TraceSpan& span = entry.spans[i];
    if (i > 0) {
      out.push_back(',');
    }
    out.push_back('{');
    bool sfirst = true;
    AppendField("name", span.name, &sfirst, &out);
    AppendField("parent", static_cast<double>(span.parent), &sfirst, &out);
    if (span.shard >= 0) {
      AppendField("shard", static_cast<double>(span.shard), &sfirst, &out);
    }
    AppendField("start_ms", span.start_ms, &sfirst, &out);
    AppendField("elapsed_ms", span.elapsed_ms, &sfirst, &out);
    if (span.rows_scanned > 0) {
      AppendField("scanned", static_cast<double>(span.rows_scanned),
                  &sfirst, &out);
    }
    if (span.rows_pruned > 0) {
      AppendField("pruned", static_cast<double>(span.rows_pruned),
                  &sfirst, &out);
    }
    if (span.rows_returned > 0) {
      AppendField("rows", static_cast<double>(span.rows_returned),
                  &sfirst, &out);
    }
    if (!span.note.empty()) {
      AppendField("note", span.note, &sfirst, &out);
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

bool ParseSlowQueryJson(const std::string& line, SlowQueryEntry* out) {
  SlowQueryEntry entry;
  bool saw_fingerprint = false;
  bool saw_elapsed = false;
  JsonCursor cur(line);
  cur.Expect('{');
  if (!cur.ok()) {
    return false;
  }
  if (!cur.TryConsume('}')) {
    while (cur.ok()) {
      const std::string key = cur.ReadString();
      cur.Expect(':');
      if (!cur.ok()) {
        return false;
      }
      if (key == "ts_ms") {
        entry.unix_ms = static_cast<int64_t>(cur.ReadNumber());
      } else if (key == "fingerprint") {
        entry.fingerprint = cur.ReadString();
        saw_fingerprint = true;
      } else if (key == "epoch") {
        entry.epoch = static_cast<uint64_t>(cur.ReadNumber());
      } else if (key == "relation") {
        entry.relation = cur.ReadString();
      } else if (key == "elapsed_ms") {
        entry.elapsed_ms = cur.ReadNumber();
        saw_elapsed = true;
      } else if (key == "strategy") {
        entry.strategy = cur.ReadString();
      } else if (key == "engine") {
        entry.engine = cur.ReadString();
      } else if (key == "filtered") {
        entry.filtered = cur.ReadBool();
      } else if (key == "cache_hit") {
        entry.cache_hit = cur.ReadBool();
      } else if (key == "degraded") {
        entry.degraded = cur.ReadBool();
      } else if (key == "shards") {
        entry.shards = static_cast<int>(cur.ReadNumber());
      } else if (key == "spans") {
        cur.Expect('[');
        if (!cur.TryConsume(']')) {
          while (cur.ok()) {
            TraceSpan span;
            if (!ParseSpan(&cur, &span)) {
              return false;
            }
            entry.spans.push_back(std::move(span));
            if (cur.TryConsume(']')) {
              break;
            }
            cur.Expect(',');
          }
        }
      } else {
        cur.SkipScalar();
      }
      if (cur.TryConsume('}')) {
        break;
      }
      cur.Expect(',');
    }
  }
  if (!cur.ok() || !cur.AtEnd() || !saw_fingerprint || !saw_elapsed) {
    return false;
  }
  *out = std::move(entry);
  return true;
}

SlowQueryLog::SlowQueryLog(SlowQueryLogOptions options)
    : options_(std::move(options)) {
  if (!options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "a");
  }
}

SlowQueryLog::~SlowQueryLog() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

bool SlowQueryLog::ShouldLog(double elapsed_ms) const {
  return file_ != nullptr && elapsed_ms >= options_.threshold_ms;
}

void SlowQueryLog::Append(const SlowQueryEntry& entry) {
  if (file_ == nullptr) {
    return;
  }
  const std::string line = FormatSlowQueryJson(entry);
  std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
  ++written_;
}

int64_t SlowQueryLog::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_;
}

}  // namespace obs
}  // namespace simq
