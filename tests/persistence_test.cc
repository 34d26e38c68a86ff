#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/persistence.h"
#include "workload/generators.h"

namespace simq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Ids a whole-space traversal of the relation's packed tree returns, in
// ascending order -- the structural check of its one index: every live id
// exactly once.
std::vector<int64_t> IndexedIds(const Relation& relation) {
  std::vector<int64_t> ids;
  relation.packed_index().SearchGeneric(
      [](const auto&) { return true; },
      [](const auto&, int64_t) { return true; },
      [&](int64_t id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int64_t> LiveIds(const Relation& relation) {
  std::vector<int64_t> ids;
  for (int64_t id = 0; id < relation.size(); ++id) {
    if (relation.sharded().alive(id)) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::set<int64_t> MatchIds(const QueryResult& result) {
  std::set<int64_t> ids;
  for (const Match& match : result.matches) {
    ids.insert(match.id);
  }
  return ids;
}

TEST(PersistenceTest, RoundTripPreservesQueryAnswers) {
  FeatureConfig config;
  config.num_coefficients = 3;
  Database db(config);
  ASSERT_TRUE(db.CreateRelation("stocks").ok());
  ASSERT_TRUE(
      db.BulkLoad("stocks", workload::RandomWalkSeries(150, 64, 5)).ok());
  ASSERT_TRUE(db.CreateRelation("bonds").ok());
  ASSERT_TRUE(
      db.BulkLoad("bonds", workload::RandomWalkSeries(40, 32, 6)).ok());

  const std::string path = TempPath("roundtrip.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());

  Result<Database> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database& restored = loaded.value();

  EXPECT_EQ(restored.config().num_coefficients, 3);
  EXPECT_EQ(restored.RelationNames(), db.RelationNames());
  EXPECT_EQ(restored.GetRelation("stocks")->size(), 150);
  EXPECT_EQ(restored.GetRelation("bonds")->size(), 40);
  EXPECT_EQ(IndexedIds(*restored.GetRelation("stocks")),
            LiveIds(*restored.GetRelation("stocks")));
  EXPECT_EQ(LiveIds(*restored.GetRelation("stocks")).size(), 150u);

  for (const char* text :
       {"RANGE stocks WITHIN 3.0 OF #walk7 USING mavg(20)",
        "NEAREST 5 stocks TO #walk7 USING reverse",
        "RANGE bonds WITHIN 5.0 OF #walk3"}) {
    const Result<QueryResult> before = db.ExecuteText(text);
    const Result<QueryResult> after = restored.ExecuteText(text);
    ASSERT_TRUE(before.ok()) << text;
    ASSERT_TRUE(after.ok()) << text;
    EXPECT_EQ(MatchIds(before.value()), MatchIds(after.value())) << text;
  }
}

TEST(PersistenceTest, RoundTripPreservesRawValuesExactly) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(20, 48, 9)).ok());
  const std::string path = TempPath("exact.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  Result<Database> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  const Relation* before = db.GetRelation("r");
  const Relation* after = loaded.value().GetRelation("r");
  for (int64_t id = 0; id < before->size(); ++id) {
    EXPECT_EQ(before->record(id).name, after->record(id).name);
    EXPECT_EQ(before->record(id).raw, after->record(id).raw);  // bit-exact
  }
}

TEST(PersistenceTest, EmptyDatabaseRoundTrips) {
  Database db;
  const std::string path = TempPath("empty.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  Result<Database> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().RelationNames().empty());
}

TEST(PersistenceTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadDatabase(TempPath("does_not_exist.simqdb")).status().code(),
            StatusCode::kNotFound);
}

TEST(PersistenceTest, RejectsForeignFile) {
  const std::string path = TempPath("foreign.bin");
  std::ofstream out(path, std::ios::binary);
  out << "definitely not a snapshot, but long enough to read";
  out.close();
  EXPECT_EQ(LoadDatabase(path).status().code(), StatusCode::kCorruption);
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(PersistenceTest, DefaultFormatIsV4WithPreservedIds) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(25, 32, 11)).ok());
  const std::string path = TempPath("v4_default.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  EXPECT_EQ(ReadAllBytes(path).substr(0, 8), "SIMQDB4\n");

  Result<Database> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Relation* restored = loaded.value().GetRelation("r");
  ASSERT_NE(restored, nullptr);
  for (int64_t id = 0; id < restored->size(); ++id) {
    EXPECT_EQ(restored->record(id).id, db.GetRelation("r")->record(id).id);
    EXPECT_EQ(restored->record(id).name, db.GetRelation("r")->record(id).name);
  }
}

TEST(PersistenceTest, VersionRoundTrip) {
  // The same database through both on-disk versions must restore to
  // identical contents: v1 snapshots from older builds stay readable, and
  // v2 adds ids + stats without changing what is restored.
  FeatureConfig config;
  config.num_coefficients = 2;
  Database db(config);
  ASSERT_TRUE(db.CreateRelation("stocks").ok());
  ASSERT_TRUE(
      db.BulkLoad("stocks", workload::RandomWalkSeries(60, 64, 21)).ok());

  const std::string v1_path = TempPath("roundtrip_v1.simqdb");
  const std::string v2_path = TempPath("roundtrip_v2.simqdb");
  ASSERT_TRUE(SaveDatabase(db, v1_path, /*format_version=*/1).ok());
  ASSERT_TRUE(SaveDatabase(db, v2_path, /*format_version=*/2).ok());
  EXPECT_EQ(ReadAllBytes(v1_path).substr(0, 8), "SIMQDB1\n");

  Result<Database> from_v1 = LoadDatabase(v1_path);
  Result<Database> from_v2 = LoadDatabase(v2_path);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  const Relation* r1 = from_v1.value().GetRelation("stocks");
  const Relation* r2 = from_v2.value().GetRelation("stocks");
  ASSERT_EQ(r1->size(), r2->size());
  for (int64_t id = 0; id < r1->size(); ++id) {
    EXPECT_EQ(r1->record(id).raw, r2->record(id).raw);  // bit-exact
    EXPECT_EQ(r1->record(id).name, r2->record(id).name);
  }

  const char* text = "RANGE stocks WITHIN 4.0 OF #walk5";
  const Result<QueryResult> a = from_v1.value().ExecuteText(text);
  const Result<QueryResult> b = from_v2.value().ExecuteText(text);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(MatchIds(a.value()), MatchIds(b.value()));
}

TEST(PersistenceTest, TombstonesRoundTripInV4) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(20, 32, 13)).ok());
  ASSERT_TRUE(db.Delete("r", 3).ok());
  ASSERT_TRUE(db.Delete("r", 17).ok());

  const std::string path = TempPath("v4_tombstones.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  Result<Database> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Deleted series stay deleted across the round trip: answers are
  // bit-identical to the pre-save database and never contain them.
  const char* text = "RANGE r WITHIN 100.0 OF #walk0";
  const Result<QueryResult> before = db.ExecuteText(text);
  const Result<QueryResult> after = loaded.value().ExecuteText(text);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(MatchIds(before.value()), MatchIds(after.value()));
  EXPECT_EQ(MatchIds(after.value()).count(3), 0u);
  EXPECT_EQ(MatchIds(after.value()).count(17), 0u);
  // Their names stay reserved after the round trip, exactly as live.
  EXPECT_EQ(loaded.value().Delete("r", 3).code(), StatusCode::kNotFound);

  // A v3 save drops tombstones by design: the deleted records reload
  // alive (documented legacy-format behavior).
  const std::string v3_path = TempPath("v3_tombstones.simqdb");
  ASSERT_TRUE(SaveDatabase(db, v3_path, /*format_version=*/3).ok());
  Result<Database> legacy = LoadDatabase(v3_path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  const Result<QueryResult> revived = legacy.value().ExecuteText(text);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(revived.value().matches.size(),
            before.value().matches.size() + 2);
}

TEST(PersistenceTest, RejectsUnsupportedSaveVersion) {
  Database db;
  EXPECT_EQ(SaveDatabase(db, TempPath("v5.simqdb"), 5).code(),
            StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, V3RejectsFlippedSectionByte) {
  // A v3 snapshot carries a CRC32 per section; any flipped payload byte
  // must surface as kCorruption, not as a wrong-but-loadable database.
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(10, 16, 3)).ok());
  const std::string path = TempPath("v3_crc_base.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  std::string bytes = ReadAllBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  const std::string bad_path = TempPath("v3_crc_flip.simqdb");
  std::ofstream out(bad_path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_EQ(LoadDatabase(bad_path).status().code(), StatusCode::kCorruption);
}

TEST(PersistenceTest, V2RejectsCorruptIdsAndStats) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(10, 16, 3)).ok());
  const std::string path = TempPath("v2_corrupt_base.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path, /*format_version=*/2).ok());
  const std::string bytes = ReadAllBytes(path);

  // Fixed offsets for relation "r" (name length 1), per the layout in
  // persistence.h: header 8+4+4+1, relation count 8, name 4+1, series
  // length 4, record count 8 -> stats at 42, first record id at 74.
  const size_t stats_offset = 42;
  const size_t first_id_offset = stats_offset + 4 * sizeof(double);

  {
    std::string corrupt = bytes;
    corrupt[first_id_offset] = 5;  // first record claims id 5, not 0
    const std::string bad_path = TempPath("v2_bad_ids.simqdb");
    std::ofstream out(bad_path, std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    const Result<Database> loaded = LoadDatabase(bad_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("record ids"),
              std::string::npos);
  }
  {
    std::string corrupt = bytes;
    corrupt[stats_offset + 3] =
        static_cast<char>(corrupt[stats_offset + 3] + 1);  // mangle mean_min
    const std::string bad_path = TempPath("v2_bad_stats.simqdb");
    std::ofstream out(bad_path, std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    const Result<Database> loaded = LoadDatabase(bad_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("stats"), std::string::npos);
  }
}

TEST(PersistenceTest, RejectsTruncatedSnapshot) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(10, 16, 3)).ok());
  const std::string path = TempPath("full.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());

  // Copy a truncated prefix.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string cut_path = TempPath("truncated.simqdb");
  std::ofstream cut(cut_path, std::ios::binary);
  cut.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  cut.close();

  EXPECT_FALSE(LoadDatabase(cut_path).ok());
}

// Quantized codes are derived data: they are not serialized, and a
// restored database must lazily rebuild them on the first filtered query
// -- with answers bit-identical both to a fresh build of the same series
// and to the restored database's own exact execution.
TEST(PersistenceTest, FilteredQueriesBitIdenticalAfterSimqdb2RoundTrip) {
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(80, 48, 9);
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", series).ok());

  const std::string path = TempPath("filtered.simqdb");
  ASSERT_TRUE(SaveDatabase(db, path, /*format_version=*/2).ok());
  Result<Database> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database& restored = loaded.value();

  Database fresh;
  ASSERT_TRUE(fresh.CreateRelation("r").ok());
  ASSERT_TRUE(fresh.BulkLoad("r", series).ok());

  for (const char* text :
       {"RANGE r WITHIN 2.0 OF #walk5 VIA SCAN MODE FILTERED",
        "NEAREST 9 r TO #walk11 VIA SCAN MODE FILTERED",
        "PAIRS r WITHIN 1.5 VIA SCAN MODE FILTERED"}) {
    const Result<QueryResult> via_restored = restored.ExecuteText(text);
    const Result<QueryResult> via_fresh = fresh.ExecuteText(text);
    ASSERT_TRUE(via_restored.ok()) << text;
    ASSERT_TRUE(via_fresh.ok()) << text;
    // Codes rebuilt after Load: the filter path actually ran.
    EXPECT_TRUE(via_restored.value().stats.used_filter) << text;
    ASSERT_EQ(via_restored.value().matches.size(),
              via_fresh.value().matches.size())
        << text;
    for (size_t i = 0; i < via_fresh.value().matches.size(); ++i) {
      EXPECT_EQ(via_restored.value().matches[i].id,
                via_fresh.value().matches[i].id)
          << text;
      EXPECT_EQ(via_restored.value().matches[i].distance,
                via_fresh.value().matches[i].distance)
          << text;
    }
    ASSERT_EQ(via_restored.value().pairs.size(),
              via_fresh.value().pairs.size())
        << text;
    for (size_t i = 0; i < via_fresh.value().pairs.size(); ++i) {
      EXPECT_EQ(via_restored.value().pairs[i].first,
                via_fresh.value().pairs[i].first)
          << text;
      EXPECT_EQ(via_restored.value().pairs[i].second,
                via_fresh.value().pairs[i].second)
          << text;
      EXPECT_EQ(via_restored.value().pairs[i].distance,
                via_fresh.value().pairs[i].distance)
          << text;
    }
    // And the restored database's filtered answers match its own exact
    // execution of the same query.
    const std::string exact_text =
        std::string(text).substr(0, std::string(text).rfind(" MODE")) +
        " MODE EXACT";
    const Result<QueryResult> exact = restored.ExecuteText(exact_text);
    ASSERT_TRUE(exact.ok()) << exact_text;
    EXPECT_EQ(exact.value().matches.size(),
              via_restored.value().matches.size());
    EXPECT_EQ(exact.value().pairs.size(), via_restored.value().pairs.size());
  }
}

}  // namespace
}  // namespace simq
