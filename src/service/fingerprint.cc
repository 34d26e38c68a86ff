#include "service/fingerprint.h"

#include <charconv>
#include <cstring>

namespace simq {
namespace {

// Appends `value` in base `base` (lower-case digits, no leading zeros, a
// '-' for negatives): the bytes `ostream <<` writes for it.
template <typename Int>
void AppendInt(std::string* out, Int value, int base = 10) {
  char buf[24];
  const std::to_chars_result end =
      std::to_chars(buf, buf + sizeof(buf), value, base);
  out->append(buf, end.ptr);
}

// Exact bit-pattern rendering: equal doubles (including signed zeros and
// NaN payloads) produce equal text, distinct doubles distinct text.
void AppendBits(std::string* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  AppendInt(out, bits, 16);
}

void AppendSeries(std::string* out, const SeriesRef& series) {
  if (series.id.has_value()) {
    *out += 'i';
    AppendInt(out, *series.id);
  } else if (series.name.has_value()) {
    *out += 'n';
    AppendInt(out, series.name->size());
    *out += ':';
    *out += *series.name;
  } else {
    *out += 'l';
    for (const double value : series.literal) {
      *out += ',';
      AppendBits(out, value);
    }
  }
}

void AppendRange(std::string* out, const char* tag,
                 const std::optional<std::pair<double, double>>& range) {
  if (!range.has_value()) {
    return;
  }
  *out += '|';
  *out += tag;
  *out += '=';
  AppendBits(out, range->first);
  *out += ':';
  AppendBits(out, range->second);
}

}  // namespace

std::string CanonicalQueryKey(const Query& query) {
  std::string out;
  // One allocation: at most 17 bytes per literal value (a comma and 16 hex
  // digits) plus the names and a few short clauses.
  const std::optional<std::string>& name = query.query_series.name;
  out.reserve(96 + query.relation.size() + (name ? name->size() : 0) +
              17 * query.query_series.literal.size());
  switch (query.kind) {
    case QueryKind::kRange:
      out += 'R';
      break;
    case QueryKind::kAllPairs:
      out += 'P';
      break;
    case QueryKind::kNearest:
      out += 'N';
      break;
  }
  // Length-prefix the relation name so it can never run into the clauses.
  out += '|';
  AppendInt(&out, query.relation.size());
  out += ':';
  out += query.relation;

  if (query.kind == QueryKind::kNearest) {
    out += "|k=";
    AppendInt(&out, query.k);
  } else {
    out += "|e=";
    AppendBits(&out, query.epsilon);
  }
  if (query.kind != QueryKind::kAllPairs) {
    out += "|q=";
    AppendSeries(&out, query.query_series);
  }
  if (query.transform != nullptr) {
    out += "|t=";
    out += query.transform->name();
  }
  if (query.transform_right != nullptr) {
    out += "|tr=";
    out += query.transform_right->name();
  }
  out += "|m=";
  out += query.mode == DistanceMode::kNormalForm ? 'N' : 'R';
  out += "|s=";
  AppendInt(&out, static_cast<int>(query.strategy));
  // Filter mode is answer-preserving, but cached entries replay their
  // execution stats (candidate counts, pruning ratio), so plans stay
  // truthful only if modes cache separately. Default mode keeps the
  // pre-filter key rendering.
  if (query.filter != FilterMode::kDefault) {
    out += "|f=";
    AppendInt(&out, static_cast<int>(query.filter));
  }
  if (query.query_prenormalized) {
    out += "|pn";
  }
  if (query.pattern.kind == Pattern::Kind::kConstant) {
    out += "|pc=";
    AppendInt(&out, query.pattern.constant_id.value_or(-1));
  }
  AppendRange(&out, "mean", query.pattern.mean_range);
  AppendRange(&out, "std", query.pattern.std_range);
  return out;
}

uint64_t KeyFingerprint(std::string_view canonical_key) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : canonical_key) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

uint64_t QueryFingerprint(const Query& query) {
  return KeyFingerprint(CanonicalQueryKey(query));
}

}  // namespace simq
