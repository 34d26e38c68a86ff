// Write-ahead log (core/wal.h): append/replay round trips, torn-tail
// truncation, corruption detection, and the snapshot+WAL recovery
// composition.

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/persistence.h"
#include "core/wal.h"
#include "util/failpoint.h"
#include "workload/generators.h"

namespace simq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Global().Reset(); }
  void TearDown() override { Failpoints::Global().Reset(); }
};

TEST_F(WalTest, ReplayOfMissingFileIsEmptyOk) {
  Database db;
  WalReplayStats stats;
  ASSERT_TRUE(
      ReplayWal(TempPath("no_such.wal"), &db, &stats).ok());
  EXPECT_EQ(stats.frames_applied, 0u);
  EXPECT_FALSE(stats.torn_tail);
}

TEST_F(WalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("roundtrip.wal");
  std::remove(path.c_str());
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(8, 24, 3);
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendCreateRelation("r").ok());
    ASSERT_TRUE(wal.AppendBulkLoad("r", {series.begin(), series.end() - 2})
                    .ok());
    ASSERT_TRUE(wal.AppendInsert("r", series[series.size() - 2]).ok());
    ASSERT_TRUE(wal.AppendInsert("r", series.back()).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }

  Database replayed;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &replayed, &stats).ok());
  EXPECT_EQ(stats.frames_applied, 4u);
  EXPECT_FALSE(stats.torn_tail);

  Database direct;
  ASSERT_TRUE(direct.CreateRelation("r").ok());
  ASSERT_TRUE(direct.BulkLoad("r", series).ok());

  const Relation* a = replayed.GetRelation("r");
  const Relation* b = direct.GetRelation("r");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), b->size());
  for (int64_t id = 0; id < a->size(); ++id) {
    EXPECT_EQ(a->record(id).name, b->record(id).name);
    EXPECT_EQ(a->record(id).raw, b->record(id).raw);  // bit-exact
  }
}

TEST_F(WalTest, DeleteFramesReplayAsTombstones) {
  const std::string path = TempPath("deletes.wal");
  std::remove(path.c_str());
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(6, 24, 7);
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendCreateRelation("r").ok());
    ASSERT_TRUE(wal.AppendBulkLoad("r", series).ok());
    ASSERT_TRUE(wal.AppendDelete("r", 2).ok());
    ASSERT_TRUE(wal.AppendDelete("r", 5).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }

  Database replayed;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &replayed, &stats).ok());
  EXPECT_EQ(stats.frames_applied, 4u);

  Database direct;
  ASSERT_TRUE(direct.CreateRelation("r").ok());
  ASSERT_TRUE(direct.BulkLoad("r", series).ok());
  ASSERT_TRUE(direct.Delete("r", 2).ok());
  ASSERT_TRUE(direct.Delete("r", 5).ok());

  const char* text = "RANGE r WITHIN 100.0 OF #walk0";
  const Result<QueryResult> a = replayed.ExecuteText(text);
  const Result<QueryResult> b = direct.ExecuteText(text);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().matches.size(), b.value().matches.size());
  for (size_t i = 0; i < a.value().matches.size(); ++i) {
    EXPECT_EQ(a.value().matches[i].id, b.value().matches[i].id);
    EXPECT_NE(a.value().matches[i].id, 2);
    EXPECT_NE(a.value().matches[i].id, 5);
  }
  // Deleting an already-deleted id fails to apply -- and a WAL carrying
  // such a frame is corrupt (log does not match its snapshot).
  Database again;
  ASSERT_TRUE(again.CreateRelation("r").ok());
  ASSERT_TRUE(again.BulkLoad("r", series).ok());
  ASSERT_TRUE(again.Delete("r", 2).ok());
  EXPECT_EQ(again.Delete("r", 2).code(), StatusCode::kNotFound);
}

TEST_F(WalTest, TornTailIsTruncatedAndReplayContinuesAfterIt) {
  const std::string path = TempPath("torn.wal");
  std::remove(path.c_str());
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(4, 16, 5);
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendCreateRelation("r").ok());
    ASSERT_TRUE(wal.AppendInsert("r", series[0]).ok());
    ASSERT_TRUE(wal.AppendInsert("r", series[1]).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  const std::string intact = ReadAllBytes(path);

  // Chop the last frame mid-way: a torn append. Replay must apply the
  // valid prefix, truncate the garbage, and report it.
  WriteAllBytes(path, intact.substr(0, intact.size() - 7));
  Database db;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &db, &stats).ok());
  EXPECT_EQ(stats.frames_applied, 2u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_GT(stats.truncated_bytes, 0u);
  ASSERT_NE(db.GetRelation("r"), nullptr);
  EXPECT_EQ(db.GetRelation("r")->size(), 1);

  // The file now ends at the last valid frame: appends land cleanly and a
  // second replay sees a whole log.
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendInsert("r", series[2]).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  Database db2;
  WalReplayStats stats2;
  ASSERT_TRUE(ReplayWal(path, &db2, &stats2).ok());
  EXPECT_EQ(stats2.frames_applied, 3u);
  EXPECT_FALSE(stats2.torn_tail);
  EXPECT_EQ(db2.GetRelation("r")->size(), 2);
}

TEST_F(WalTest, ValidCrcButUnappliableFrameIsCorruption) {
  const std::string path = TempPath("unappliable.wal");
  std::remove(path.c_str());
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    WalWriter wal = std::move(writer).value();
    // Insert into a relation the log never created: the frame is
    // well-formed (CRC passes) but cannot apply.
    ASSERT_TRUE(
        wal.AppendInsert("ghost", workload::RandomWalkSeries(1, 16, 1)[0])
            .ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  Database db;
  WalReplayStats stats;
  EXPECT_EQ(ReplayWal(path, &db, &stats).code(), StatusCode::kCorruption);
}

TEST_F(WalTest, LoggedNonFiniteInsertStopsReplayAsCorruption) {
  // Insert rejects a NaN series, so a log holding one does not match any
  // database it could have come from: recovery stops with Corruption
  // instead of loading a row the index geometry cannot hold.
  const std::string path = TempPath("nan_insert.wal");
  std::remove(path.c_str());
  std::vector<TimeSeries> series = workload::RandomWalkSeries(3, 16, 9);
  series[2].values[7] = std::numeric_limits<double>::quiet_NaN();
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendCreateRelation("r").ok());
    ASSERT_TRUE(wal.AppendBulkLoad("r", {series[0], series[1]}).ok());
    ASSERT_TRUE(wal.AppendInsert("r", series[2]).ok());
  }
  Database db;
  WalReplayStats stats;
  const Status replayed = ReplayWal(path, &db, &stats);
  EXPECT_EQ(replayed.code(), StatusCode::kCorruption) << replayed.ToString();
  EXPECT_NE(replayed.message().find("non-finite value at position 7"),
            std::string::npos)
      << replayed.message();
}

TEST_F(WalTest, LoggedOverflowingInsertStopsReplayAsCorruption) {
  // Every value is finite but the mean overflows, which Insert rejects
  // too: replay stops with Corruption naming the fault.
  const std::string path = TempPath("overflow_insert.wal");
  std::remove(path.c_str());
  std::vector<TimeSeries> series = workload::RandomWalkSeries(3, 16, 9);
  for (int i = 0; i < 16; ++i) {
    series[2].values[static_cast<size_t>(i)] = 1.7e308 - i * 1e300;
  }
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendCreateRelation("r").ok());
    ASSERT_TRUE(wal.AppendBulkLoad("r", {series[0], series[1]}).ok());
    ASSERT_TRUE(wal.AppendInsert("r", series[2]).ok());
  }
  Database db;
  WalReplayStats stats;
  const Status replayed = ReplayWal(path, &db, &stats);
  EXPECT_EQ(replayed.code(), StatusCode::kCorruption) << replayed.ToString();
  EXPECT_NE(replayed.message().find("non-finite mean or standard deviation"),
            std::string::npos)
      << replayed.message();
}

TEST_F(WalTest, RejectsForeignFile) {
  const std::string path = TempPath("foreign.wal");
  WriteAllBytes(path, "this is not a WAL, much longer than the magic");
  EXPECT_EQ(WalWriter::Open(path).status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, TruncateEmptiesTheLog) {
  const std::string path = TempPath("truncate.wal");
  std::remove(path.c_str());
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendCreateRelation("r").ok());
    ASSERT_TRUE(wal.Truncate().ok());
    ASSERT_TRUE(wal.AppendCreateRelation("s").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  Database db;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &db, &stats).ok());
  EXPECT_EQ(stats.frames_applied, 1u);
  EXPECT_EQ(db.GetRelation("r"), nullptr);
  EXPECT_NE(db.GetRelation("s"), nullptr);
}

TEST_F(WalTest, AppendFailpointSurfacesAsIoError) {
  const std::string path = TempPath("inj_append.wal");
  std::remove(path.c_str());
  Result<WalWriter> writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  WalWriter wal = std::move(writer).value();
  Failpoints::Trigger t;
  t.kind = Failpoints::TriggerKind::kAlways;
  Failpoints::Global().Configure("wal.append", t);
  EXPECT_EQ(wal.AppendCreateRelation("r").code(), StatusCode::kIoError);
  Failpoints::Global().Reset();
}

TEST_F(WalTest, InjectedTornAppendIsInvisibleAfterReplay) {
  const std::string path = TempPath("inj_torn.wal");
  std::remove(path.c_str());
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(2, 16, 8);
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendCreateRelation("r").ok());
    ASSERT_TRUE(wal.AppendInsert("r", series[0]).ok());
    // The torn-append failpoint writes half a frame then errors -- the
    // same bytes a crash mid-write leaves behind.
    Failpoints::Trigger t;
    t.kind = Failpoints::TriggerKind::kAlways;
    Failpoints::Global().Configure("wal.append.torn", t);
    EXPECT_EQ(wal.AppendInsert("r", series[1]).code(), StatusCode::kIoError);
    Failpoints::Global().Reset();
  }
  Database db;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &db, &stats).ok());
  EXPECT_EQ(stats.frames_applied, 2u);  // the acknowledged prefix
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(db.GetRelation("r")->size(), 1);
}

TEST_F(WalTest, OpenDurableDatabaseComposesSnapshotAndWal) {
  const std::string snapshot = TempPath("durable.simqdb");
  const std::string wal_path = TempPath("durable.wal");
  std::remove(snapshot.c_str());
  std::remove(wal_path.c_str());
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(20, 32, 4);

  // Checkpointed prefix in the snapshot, two more mutations in the WAL.
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(
      db.BulkLoad("r", {series.begin(), series.end() - 2}).ok());
  ASSERT_TRUE(SaveDatabase(db, snapshot).ok());
  {
    Result<WalWriter> writer = WalWriter::Open(wal_path);
    ASSERT_TRUE(writer.ok());
    WalWriter wal = std::move(writer).value();
    ASSERT_TRUE(wal.AppendInsert("r", series[series.size() - 2]).ok());
    ASSERT_TRUE(wal.AppendInsert("r", series.back()).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  ASSERT_TRUE(db.Insert("r", series[series.size() - 2]).ok());
  ASSERT_TRUE(db.Insert("r", series.back()).ok());

  WalReplayStats stats;
  Result<Database> recovered =
      OpenDurableDatabase(FeatureConfig(), snapshot, wal_path, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(stats.frames_applied, 2u);
  const Relation* a = recovered.value().GetRelation("r");
  const Relation* b = db.GetRelation("r");
  ASSERT_EQ(a->size(), b->size());
  for (int64_t id = 0; id < a->size(); ++id) {
    EXPECT_EQ(a->record(id).raw, b->record(id).raw);
  }

  // And the recovered database answers queries identically.
  const char* text = "NEAREST 5 r TO #walk3";
  const Result<QueryResult> qa = recovered.value().ExecuteText(text);
  const Result<QueryResult> qb = db.ExecuteText(text);
  ASSERT_TRUE(qa.ok() && qb.ok());
  ASSERT_EQ(qa.value().matches.size(), qb.value().matches.size());
  for (size_t i = 0; i < qa.value().matches.size(); ++i) {
    EXPECT_EQ(qa.value().matches[i].id, qb.value().matches[i].id);
    EXPECT_EQ(qa.value().matches[i].distance, qb.value().matches[i].distance);
  }
}

}  // namespace
}  // namespace simq
