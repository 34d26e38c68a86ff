/// Canonical query fingerprints: the result-cache key and the prepared-
/// statement identity of the query service.
///
/// CanonicalQueryKey renders a parsed Query into a canonical string that is
/// equal iff the two queries denote the same answer set over the same
/// relation contents (modulo execution strategy, which is included because
/// it changes the reported ExecutionStats, and they are part of the cached
/// QueryResult). Properties:
///
///  * Purely syntactic inputs that cannot change the result are excluded:
///    the EXPLAIN flag, keyword case, clause order, whitespace -- all
///    already normalized away by the parser/AST.
///  * Floating-point parameters (epsilon, literals, statistic ranges) are
///    rendered as exact IEEE-754 bit patterns in lower-case hex, never
///    decimal round-trips, so distinct doubles never collide and equal
///    doubles always agree.
///  * Transformations are rendered via TransformationRule::name(), the
///    canonical textual form of the rule chain.
///
/// The key is written straight into one string; a literal series costs at
/// most 17 bytes per value. The service renders it once per execution and
/// shares it: KeyFingerprint of it names the statements-table row and the
/// flight-recorder events, the statements table and the slow-query log show
/// it as the query's text, and the result cache keys on it with
/// "@<relation epoch>@g<generation>" (plus "@fq<bits>" when the quantized
/// filter runs) appended, pinning every entry to the data version and plan
/// it was computed against (see service/query_service.h).

#ifndef SIMQ_SERVICE_FINGERPRINT_H_
#define SIMQ_SERVICE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/query.h"

namespace simq {

/// The canonical rendering described above.
std::string CanonicalQueryKey(const Query& query);

/// FNV-1a 64-bit hash of a CanonicalQueryKey -- a compact identity for
/// logs, the statements table and the shell's EXPLAIN output. The cache
/// itself keys on the full string (hashes may collide; answers must not).
uint64_t KeyFingerprint(std::string_view canonical_key);

/// KeyFingerprint(CanonicalQueryKey(query)).
uint64_t QueryFingerprint(const Query& query);

}  // namespace simq

#endif  // SIMQ_SERVICE_FINGERPRINT_H_
