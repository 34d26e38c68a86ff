// Differential mutation fuzz for the delta layer (core/sharded_relation.h).
//
// A SUBJECT database runs a randomized schedule of interleaved ops --
// insert, bulk-load, delete, range, kNN, self-join, recompact, checkpoint:
// mutations land in the exactly-scanned delta, compiled artifacts stay
// put, recompaction folds the delta into fresh generations.
//
// Every query is also answered by an ORACLE: a fresh Database bulk-loaded
// from the subject's live rows in ascending id order. The oracle shares
// nothing with the subject's mutation history -- no delta scans, no
// tombstone filters, no recompacted generations -- so it is the plain
// "build from the live rows" semantics the delta layer must reproduce.
// Its ids are dense over the live rows only, so answers compare by name:
// range and kNN matches in order by (name, distance bits) (both sides
// order by (distance, id), and the oracle keeps the subject's id order),
// and self-join pairs as sorted sets of (name, name, distance bits),
// since pair emission order may differ between a fresh tree and a
// snapshot+delta walk.
//
// On the subject alone: double-deletes must fail, generations must be
// monotone, and a checkpoint (SIMQDB4 save + load) must restore a
// database that answers identically id for id: the copy shares the
// subject's ids, so its matches compare in order by (id, name, distance
// bits) and its pairs as sorted sets of (id, id, distance bits).
//
// The schedule space crosses shard counts 1/2/4 with the filtered and
// exact scan paths. Every failure message carries the (config, seed, op
// index) triple needed to replay it.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/persistence.h"
#include "ts/time_series.h"
#include "workload/generators.h"

namespace simq {
namespace {

struct FuzzConfig {
  int shards = 1;
  bool filtered = true;
};

std::string ConfigTag(const FuzzConfig& config, uint64_t seed, int op) {
  return "shards=" + std::to_string(config.shards) +
         " filter=" + (config.filtered ? "filtered" : "exact") +
         " seed=" + std::to_string(seed) + " op=" + std::to_string(op);
}

Database MakeDb(const FuzzConfig& config) {
  ShardingOptions sharding;
  sharding.num_shards = config.shards;
  return Database(FeatureConfig(), RTree::Options(), sharding);
}

// A fresh database holding `relation` loaded from `subject`'s live rows of
// it, in ascending id order, under the same configuration.
Database LiveRowsOracle(const Database& subject, const FuzzConfig& config,
                        const std::string& relation) {
  Database oracle = MakeDb(config);
  EXPECT_TRUE(oracle.CreateRelation(relation).ok());
  const Relation* rel = subject.GetRelation(relation);
  std::vector<TimeSeries> live;
  for (const Record& record : rel->records()) {
    if (rel->sharded().alive(record.id)) {
      TimeSeries series;
      series.id = record.name;
      series.values = record.raw;
      live.push_back(std::move(series));
    }
  }
  EXPECT_TRUE(oracle.BulkLoad(relation, live).ok());
  return oracle;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

using NamedPair = std::tuple<std::string, std::string, uint64_t>;

std::vector<NamedPair> NamedPairs(const Database& db,
                                  const std::string& relation,
                                  const QueryResult& result) {
  const Relation* rel = db.GetRelation(relation);
  std::vector<NamedPair> pairs;
  for (const PairMatch& pair : result.pairs) {
    pairs.emplace_back(rel->record(pair.first).name,
                       rel->record(pair.second).name, Bits(pair.distance));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// Bitwise answer comparison by name: distances must be the very same
// doubles -- both sides refine through the identical exact kernels over
// the same series, so even the rounding is shared.
void ExpectSameAnswers(const Database& subject_db,
                       const QueryResult& subject, const Database& oracle_db,
                       const QueryResult& oracle, const std::string& relation,
                       const std::string& tag) {
  ASSERT_EQ(subject.matches.size(), oracle.matches.size()) << tag;
  for (size_t i = 0; i < subject.matches.size(); ++i) {
    EXPECT_EQ(subject.matches[i].name, oracle.matches[i].name) << tag;
    EXPECT_EQ(Bits(subject.matches[i].distance),
              Bits(oracle.matches[i].distance))
        << tag;
  }
  EXPECT_EQ(NamedPairs(subject_db, relation, subject),
            NamedPairs(oracle_db, relation, oracle))
      << tag;
}

using IdPair = std::tuple<int64_t, int64_t, uint64_t>;

std::vector<IdPair> IdPairs(const QueryResult& result) {
  std::vector<IdPair> pairs;
  for (const PairMatch& pair : result.pairs) {
    pairs.emplace_back(pair.first, pair.second, Bits(pair.distance));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// Bitwise answer comparison by id, for two databases that share ids (the
// subject and its save + load copy).
void ExpectSameIdAnswers(const QueryResult& subject,
                         const QueryResult& loaded, const std::string& tag) {
  ASSERT_EQ(subject.matches.size(), loaded.matches.size()) << tag;
  for (size_t i = 0; i < subject.matches.size(); ++i) {
    EXPECT_EQ(subject.matches[i].id, loaded.matches[i].id) << tag;
    EXPECT_EQ(subject.matches[i].name, loaded.matches[i].name) << tag;
    EXPECT_EQ(Bits(subject.matches[i].distance),
              Bits(loaded.matches[i].distance))
        << tag;
  }
  EXPECT_EQ(IdPairs(subject), IdPairs(loaded)) << tag;
}

class DeltaFuzz {
 public:
  DeltaFuzz(const FuzzConfig& config, uint64_t seed)
      : config_(config),
        seed_(seed),
        rng_(seed),
        subject_(MakeDb(config)) {}

  void Run(int ops) {
    // Seed the subject so queries have substance from op 0.
    ASSERT_TRUE(subject_.CreateRelation("r").ok());
    Apply([this](Database* db) {
      return db->BulkLoad("r", workload::RandomWalkSeries(12, 24, seed_));
    });
    names_ = 12;  // RandomWalkSeries names them walk0..walk11
    alive_.assign(12, 1);
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      op_ = op;
      const int dice = std::uniform_int_distribution<int>(0, 99)(rng_);
      if (dice < 30) {
        Insert();
      } else if (dice < 45) {
        Delete();
      } else if (dice < 50) {
        BulkLoad();
      } else if (dice < 65) {
        Range();
      } else if (dice < 80) {
        Nearest();
      } else if (dice < 90) {
        Join();
      } else if (dice < 95) {
        Recompact();
      } else {
        Checkpoint();
      }
      CheckGenerationMonotone();
    }
  }

 private:
  std::string Tag() const { return ConfigTag(config_, seed_, op_); }

  // Applies one mutation to the subject, which must accept it.
  template <typename Fn>
  void Apply(const Fn& fn) {
    const Status s = fn(&subject_);
    ASSERT_TRUE(s.ok()) << Tag() << " " << s.ToString();
  }

  TimeSeries FreshSeries() {
    TimeSeries series =
        workload::RandomWalkSeries(1, 24, seed_ * 1000003 + names_)[0];
    series.id = "s" + std::to_string(names_++);
    alive_.push_back(1);
    return series;
  }

  void Insert() {
    const TimeSeries series = FreshSeries();
    Apply([&](Database* db) { return db->Insert("r", series).status(); });
  }

  void BulkLoad() {
    // BulkLoad targets empty relations only, so the op loads a fresh
    // sibling relation: the bulk path still interleaves with everything
    // else, and the sibling rides through checkpoints.
    const std::string rel = "b" + std::to_string(bulk_relations_++);
    const int count = std::uniform_int_distribution<int>(3, 8)(rng_);
    const std::vector<TimeSeries> batch =
        workload::RandomWalkSeries(count, 24, seed_ * 7919 + op_);
    Apply([&](Database* db) {
      const Status created = db->CreateRelation(rel);
      if (!created.ok()) {
        return created;
      }
      return db->BulkLoad(rel, batch);
    });
    Compare(rel, "RANGE " + rel + " WITHIN 5.0 OF #walk0 VIA INDEX");
  }

  void Delete() {
    const int64_t id = PickLive();
    if (id < 0) {
      return;
    }
    alive_[static_cast<size_t>(id)] = 0;
    Apply([&](Database* db) { return db->Delete("r", id); });
    // Double-deletes must fail.
    EXPECT_EQ(subject_.Delete("r", id).code(), StatusCode::kNotFound)
        << Tag();
  }

  int64_t PickLive() {
    std::vector<int64_t> live;
    for (size_t i = 0; i < alive_.size(); ++i) {
      if (alive_[i] != 0) {
        live.push_back(static_cast<int64_t>(i));
      }
    }
    if (live.size() <= 4) {
      return -1;  // keep a few rows so queries stay meaningful
    }
    return live[std::uniform_int_distribution<size_t>(0, live.size() - 1)(
        rng_)];
  }

  std::string LiveName() {
    const int64_t id = PickLive();
    if (id < 0) {
      return "";
    }
    return id < 12 ? "walk" + std::to_string(id)
                   : "s" + std::to_string(id);
  }

  std::string Mode() const {
    return config_.filtered ? " MODE FILTERED" : " MODE EXACT";
  }

  // Runs `text` (a query over `relation`) on the subject and on a fresh
  // oracle built from the subject's live rows.
  void Compare(const std::string& relation, const std::string& text) {
    const Database oracle = LiveRowsOracle(subject_, config_, relation);
    const Result<QueryResult> subject = subject_.ExecuteText(text);
    const Result<QueryResult> expected = oracle.ExecuteText(text);
    ASSERT_EQ(subject.ok(), expected.ok())
        << Tag() << " '" << text << "' subject=" << subject.status().ToString()
        << " oracle=" << expected.status().ToString();
    if (!subject.ok()) {
      return;
    }
    ExpectSameAnswers(subject_, subject.value(), oracle, expected.value(),
                      relation, Tag() + " '" + text + "'");
  }

  void Range() {
    const std::string name = LiveName();
    if (name.empty()) {
      return;
    }
    const char* eps[] = {"0", "0.4", "2.0", "1e6"};
    const std::string e =
        eps[std::uniform_int_distribution<int>(0, 3)(rng_)];
    Compare("r", "RANGE r WITHIN " + e + " OF #" + name + " VIA INDEX");
    Compare("r",
            "RANGE r WITHIN " + e + " OF #" + name + " VIA SCAN" + Mode());
  }

  void Nearest() {
    const std::string name = LiveName();
    if (name.empty()) {
      return;
    }
    const char* ks[] = {"1", "3", "8", "100"};
    const std::string k = ks[std::uniform_int_distribution<int>(0, 3)(rng_)];
    Compare("r", "NEAREST " + k + " r TO #" + name + " VIA INDEX");
    Compare("r", "NEAREST " + k + " r TO #" + name + " VIA SCAN" + Mode());
  }

  void Join() {
    const char* eps[] = {"0.2", "1.0"};
    const std::string e =
        eps[std::uniform_int_distribution<int>(0, 1)(rng_)];
    Compare("r", "PAIRS r WITHIN " + e);
  }

  void Recompact() {
    // Recompaction is the delta layer's maintenance; the oracle is built
    // fresh per query and has nothing to fold.
    ASSERT_TRUE(subject_.Recompact("r").ok()) << Tag();
    Range();
  }

  void Checkpoint() {
    const std::string path =
        ::testing::TempDir() + "/delta_fuzz_" + std::to_string(seed_) +
        ".simqdb";
    ASSERT_TRUE(SaveDatabase(subject_, path).ok()) << Tag();
    Result<Database> loaded = LoadDatabase(path);
    ASSERT_TRUE(loaded.ok()) << Tag() << " " << loaded.status().ToString();
    const std::string name = LiveName();
    if (name.empty()) {
      return;
    }
    for (const std::string& text : {"RANGE r WITHIN 2.0 OF #" + name,
                                    std::string("PAIRS r WITHIN 1.0")}) {
      const Result<QueryResult> a = subject_.ExecuteText(text);
      const Result<QueryResult> b = loaded.value().ExecuteText(text);
      ASSERT_TRUE(a.ok() && b.ok()) << Tag() << " '" << text << "'";
      ExpectSameIdAnswers(a.value(), b.value(),
                          Tag() + " checkpoint '" + text + "'");
    }
  }

  void CheckGenerationMonotone() {
    const Relation* rel = subject_.GetRelation("r");
    ASSERT_NE(rel, nullptr) << Tag();
    const uint64_t generation = rel->sharded().generation();
    EXPECT_GE(generation, last_generation_) << Tag();
    last_generation_ = generation;
  }

  FuzzConfig config_;
  uint64_t seed_;
  int op_ = 0;
  std::mt19937_64 rng_;
  Database subject_;
  int64_t names_ = 0;
  int64_t bulk_relations_ = 0;
  std::vector<uint8_t> alive_;
  uint64_t last_generation_ = 0;
};

TEST(DeltaFuzzTest, SubjectMatchesLiveRowsOracleAcrossSchedules) {
  std::vector<FuzzConfig> configs;
  for (const int shards : {1, 2, 4}) {
    for (const bool filtered : {true, false}) {
      configs.push_back(FuzzConfig{shards, filtered});
    }
  }
  // 6 configs x 10 seeds = 60 schedules of 36 interleaved ops each.
  constexpr int kSeedsPerConfig = 10;
  constexpr int kOpsPerSchedule = 36;
  for (const FuzzConfig& config : configs) {
    for (uint64_t seed = 1; seed <= kSeedsPerConfig; ++seed) {
      DeltaFuzz fuzz(config, seed);
      fuzz.Run(kOpsPerSchedule);
      if (::testing::Test::HasFailure()) {
        // The failing assertions above carry the full (config, seed, op)
        // triple; print the replay header once more where it is hard to
        // miss and stop instead of drowning it in repeats.
        std::fprintf(stderr, "delta fuzz FAILED at %s\n",
                     ConfigTag(config, seed, -1).c_str());
        return;
      }
    }
  }
}

// Deletes alone (no recompaction) must flow through every driver: the
// packed snapshot still holds the dead entries, so this pins the
// read-side tombstone filters rather than recompaction's shedding.
TEST(DeltaFuzzTest, TombstonesFilterOnEveryPathWithoutRecompaction) {
  for (const int shards : {1, 3}) {
    FuzzConfig config;
    config.shards = shards;
    Database subject = MakeDb(config);
    ASSERT_TRUE(subject.CreateRelation("r").ok());
    const std::vector<TimeSeries> series =
        workload::RandomWalkSeries(16, 24, 77);
    ASSERT_TRUE(subject.BulkLoad("r", series).ok());
    // Compile the snapshot before deleting, so the dead rows stay in it.
    ASSERT_TRUE(subject.ExecuteText("RANGE r WITHIN 0 OF #walk1").ok());
    for (const int64_t id : {0, 5, 9, 15}) {
      ASSERT_TRUE(subject.Delete("r", id).ok());
    }
    const Database oracle = LiveRowsOracle(subject, config, "r");
    for (const char* text : {
             "RANGE r WITHIN 3.0 OF #walk2 VIA INDEX",
             "RANGE r WITHIN 3.0 OF #walk2 VIA SCAN MODE FILTERED",
             "RANGE r WITHIN 3.0 OF #walk2 VIA SCAN MODE EXACT",
             "NEAREST 5 r TO #walk2 VIA INDEX",
             "NEAREST 5 r TO #walk2 VIA SCAN MODE FILTERED",
             "PAIRS r WITHIN 1.5",
         }) {
      const Result<QueryResult> a = subject.ExecuteText(text);
      const Result<QueryResult> b = oracle.ExecuteText(text);
      ASSERT_TRUE(a.ok() && b.ok()) << text;
      ExpectSameAnswers(subject, a.value(), oracle, b.value(), "r", text);
      for (const Match& match : a.value().matches) {
        EXPECT_NE(match.id, 0) << text;
        EXPECT_NE(match.id, 5) << text;
      }
    }
    // A deleted series can no longer anchor a query...
    EXPECT_FALSE(subject.ExecuteText("NEAREST 3 r TO #walk0").ok());
    // ...and its name stays reserved.
    TimeSeries reuse = series[0];
    EXPECT_FALSE(subject.Insert("r", reuse).ok());
  }
}

}  // namespace
}  // namespace simq
