#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>

#include "core/transformation.h"
#include "ts/transforms.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace simq {
namespace bench {

std::unique_ptr<Database> BuildDatabase(const std::vector<TimeSeries>& series,
                                        FeatureConfig config) {
  auto db = std::make_unique<Database>(config);
  SIMQ_CHECK(db->CreateRelation("r").ok());
  const Status status = db->BulkLoad("r", series);
  SIMQ_CHECK(status.ok()) << status.ToString();
  return db;
}

double MedianMillis(const std::function<void()>& fn, int repetitions) {
  SIMQ_CHECK_GT(repetitions, 0);
  fn();  // warm-up
  std::vector<double> samples(static_cast<size_t>(repetitions));
  for (int rep = 0; rep < repetitions; ++rep) {
    Stopwatch watch;
    fn();
    samples[static_cast<size_t>(rep)] = watch.ElapsedMillis();
  }
  return Summarize(std::move(samples)).median;
}

std::shared_ptr<const TransformationRule> IdentityViaTransformPath() {
  return std::shared_ptr<const TransformationRule>(
      MakeMovingAverageRule(1).release());
}

double CalibrateRangeEpsilon(const Database& db, const std::string& relation,
                             int64_t probe_id,
                             const TransformationRule* rule,
                             int target_answers) {
  const Relation* rel = db.GetRelation(relation);
  SIMQ_CHECK(rel != nullptr);
  const Record& probe = rel->record(probe_id);

  std::vector<double> query_values = ToNormalForm(probe.raw).values;
  if (rule != nullptr) {
    // Distance semantics: D(T(x), q). Calibrate against q = T(probe) so the
    // probe itself is at distance 0 and answer sizes are well-defined.
    query_values = rule->Apply(query_values);
  }

  std::vector<double> distances;
  distances.reserve(static_cast<size_t>(rel->size()));
  for (const Record& record : rel->records()) {
    std::vector<double> transformed = ToNormalForm(record.raw).values;
    if (rule != nullptr) {
      transformed = rule->Apply(transformed);
    }
    distances.push_back(EuclideanDistance(transformed, query_values));
  }
  std::sort(distances.begin(), distances.end());
  const size_t index = std::min(
      distances.size(), static_cast<size_t>(std::max(1, target_answers)));
  return distances[index - 1] * (1.0 + 1e-9) + 1e-12;
}

void PrintHeader(const std::string& experiment_id, const std::string& claim) {
  std::printf("\n=== %s ===\n", experiment_id.c_str());
  std::printf("%s\n\n", claim.c_str());
}

}  // namespace bench
}  // namespace simq
