// MVCC generation stress: N reader threads against a concurrent writer
// and a recompactor hammering the same relation through the query
// service. The contract under test (DESIGN.md "Delta layer & MVCC
// generations"): readers never wait on a rebuild -- recompaction builds
// its fresh generation under the shared lock, and only the pointer-swap
// publish takes the exclusive lock -- and writers never wait on readers
// beyond that same brief publish.
//
// Enforcement is deadline-bounded rather than timing-averaged: every
// reader query carries an ExecOptions deadline far above a normal
// execution but far below the cost of a from-scratch rebuild of the
// relation, so a reader that ever blocks behind a recompaction build
// surfaces as a kTimeout failure, deterministically. The test also
// requires genuine overlap (several recompactions must complete while
// readers are in flight) and ends with a quiesced identity check
// (index answers == full-scan answers, generation advanced).
//
// Runs under the SIMQ_SANITIZE=thread CI job: any torn publish --
// readers observing a half-swapped tree/snapshot/codes trio -- is a
// data race TSan reports directly.

#include "service/query_service.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "workload/generators.h"

namespace simq {
namespace {

std::set<std::string> MatchNames(const QueryResult& result) {
  std::set<std::string> names;
  for (const Match& match : result.matches) {
    names.insert(match.name);
  }
  return names;
}

TEST(MvccStressTest, ReadersNeverBlockOnRecompaction) {
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 40;
  constexpr int kInserts = 120;
  constexpr int kSeriesLength = 32;
  // Generous against sanitizer slowdown, but a reader serialized behind
  // a full recompaction cycle of this relation (plus the writer's queue)
  // trips it reliably.
  constexpr double kDeadlineMs = 4000.0;

  ShardingOptions sharding;
  sharding.num_shards = 2;
  Database db(FeatureConfig(), RTree::Options(), sharding);
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(
      db.BulkLoad("r", workload::RandomWalkSeries(400, kSeriesLength, 17))
          .ok());
  // Recompaction in this test is driven explicitly by the recompactor
  // thread; disable the service's own threshold trigger so the schedule
  // is the test's, not the service's.
  DeltaOptions delta;
  delta.recompact_threshold = 0;
  db.set_delta_options(delta);

  ServiceOptions options;
  options.result_cache_capacity = 64;
  QueryService service(std::move(db), options);

  const uint64_t generation_before = [&] {
    const Result<ServiceResult> probe =
        service.ExecuteText("RANGE r WITHIN 2.0 OF #walk0");
    EXPECT_TRUE(probe.ok());
    return probe.ok() ? probe.value().plan.generation : 0;
  }();

  std::atomic<bool> readers_done{false};
  std::atomic<int> failures{0};
  std::atomic<int> timeouts{0};
  std::atomic<int> recompactions{0};

  const std::vector<std::string> texts = {
      "RANGE r WITHIN 3.0 OF #walk1",
      "NEAREST 5 r TO #walk3",
      "RANGE r WITHIN 3.0 OF #walk4 VIA SCAN",
      "RANGE r WITHIN 4.0 OF #walk5 VIA SCAN MODE FILTERED",
  };

  auto reader = [&](int reader_id) {
    ExecOptions bounded;
    bounded.deadline_ms = kDeadlineMs;
    // Run the quota, then keep querying until a few recompactions have
    // completed underneath us -- the overlap the test exists to create.
    // Bounded so a stuck recompactor fails the overlap assertion below
    // instead of hanging the test.
    for (int i = 0;
         i < kQueriesPerReader || (recompactions.load() < 3 && i < 4000);
         ++i) {
      const size_t which = static_cast<size_t>(
          (i + reader_id) % static_cast<int>(texts.size()));
      const Result<ServiceResult> executed =
          service.ExecuteText(texts[which], bounded);
      if (!executed.ok()) {
        ++failures;
        if (executed.status().code() == StatusCode::kTimeout) {
          ++timeouts;  // a reader waited on a rebuild: the MVCC bug
        }
      }
    }
  };

  auto writer = [&] {
    const std::vector<TimeSeries> series =
        workload::RandomWalkSeries(kInserts, kSeriesLength, 4242);
    for (int i = 0; i < kInserts; ++i) {
      TimeSeries fresh = series[static_cast<size_t>(i)];
      fresh.id = "w" + std::to_string(i);
      if (!service.Insert("r", fresh).ok()) {
        ++failures;
      }
      // Interleave tombstones over the writer's own rows so recompaction
      // always has something to shed.
      if (i % 8 == 7) {
        const Result<ServiceResult> lookup = service.ExecuteText(
            "NEAREST 1 r TO #w" + std::to_string(i));
        if (lookup.ok() && !lookup.value().result.matches.empty()) {
          if (!service.Delete("r", lookup.value().result.matches[0].id)
                   .ok()) {
            ++failures;
          }
        }
      }
    }
  };

  // The recompactor loops for as long as any reader is in flight, so
  // rebuilds provably overlap reads.
  auto recompactor = [&] {
    while (!readers_done.load(std::memory_order_acquire)) {
      if (service.Recompact("r").ok()) {
        recompactions.fetch_add(1);
      } else {
        ++failures;
      }
    }
  };

  std::vector<std::thread> reader_threads;
  for (int r = 0; r < kReaders; ++r) {
    reader_threads.emplace_back(reader, r);
  }
  std::thread writer_thread(writer);
  std::thread recompactor_thread(recompactor);
  for (std::thread& thread : reader_threads) {
    thread.join();
  }
  readers_done.store(true, std::memory_order_release);
  writer_thread.join();
  recompactor_thread.join();

  EXPECT_EQ(timeouts.load(), 0)
      << "a reader hit its deadline while recompactions ran";
  EXPECT_EQ(failures.load(), 0);
  // Overlap must be real: a recompactor that only ran after the readers
  // drained would vacuously pass the deadline check.
  EXPECT_GE(recompactions.load(), 3);

  // Quiesced identity: one more fold, then the published generation must
  // answer exactly like a cold full scan, and generations advanced
  // monotonically past the starting point.
  ASSERT_TRUE(service.Recompact("r").ok());
  const Result<ServiceResult> via_index =
      service.ExecuteText("RANGE r WITHIN 3.0 OF #walk1");
  const Result<ServiceResult> via_fullscan =
      service.ExecuteText("RANGE r WITHIN 3.0 OF #walk1 VIA FULLSCAN");
  ASSERT_TRUE(via_index.ok() && via_fullscan.ok());
  EXPECT_EQ(MatchNames(via_index.value().result),
            MatchNames(via_fullscan.value().result));
  EXPECT_GT(via_index.value().plan.generation, generation_before);
  EXPECT_EQ(via_index.value().plan.delta_rows, 0);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.recompactions, recompactions.load());
  EXPECT_EQ(stats.delta_rows, 0);
}

TEST(MvccStressTest, BackgroundRecompactorKeepsDeltaBounded) {
  // The service's own trigger: a small threshold plus a steady insert
  // stream must schedule background recompactions without any explicit
  // Recompact call, and draining the service (its destructor joins the
  // in-flight folds) leaves a consistent database behind.
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(db.BulkLoad("r", workload::RandomWalkSeries(64, 24, 5)).ok());
  DeltaOptions delta;
  delta.recompact_threshold = 16;
  db.set_delta_options(delta);

  std::set<std::string> expect_names;
  {
    QueryService service(std::move(db), ServiceOptions());
    const std::vector<TimeSeries> series =
        workload::RandomWalkSeries(96, 24, 99);
    for (int i = 0; i < 96; ++i) {
      TimeSeries fresh = series[static_cast<size_t>(i)];
      fresh.id = "bg" + std::to_string(i);
      ASSERT_TRUE(service.Insert("r", fresh).ok());
      if (i % 16 == 0) {
        const Result<ServiceResult> probe =
            service.ExecuteText("RANGE r WITHIN 3.0 OF #walk1");
        ASSERT_TRUE(probe.ok());
      }
    }
    // Let scheduled folds drain through the destructor below; capture the
    // ground truth first.
    const Result<ServiceResult> final_answer =
        service.ExecuteText("RANGE r WITHIN 3.0 OF #walk1 VIA FULLSCAN");
    ASSERT_TRUE(final_answer.ok());
    expect_names = MatchNames(final_answer.value().result);
    // The folds the threshold crossings scheduled run detached and may
    // still be building; wait for the first to publish (bounded, so a
    // fold that was never scheduled still fails below).
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.stats().recompactions < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const ServiceStats stats = service.stats();
    EXPECT_GE(stats.recompactions, 1)
        << "threshold crossings never scheduled a background fold";

    const Result<ServiceResult> after =
        service.ExecuteText("RANGE r WITHIN 3.0 OF #walk1");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(MatchNames(after.value().result), expect_names);
  }
}

}  // namespace
}  // namespace simq
