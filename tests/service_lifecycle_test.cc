// Query-lifecycle hardening in the service layer: deadlines, session
// cancellation, admission timeouts (overload shedding), slot hygiene,
// graceful degradation, the byte-bounded result cache, and the
// service-driven durability loop (WAL + checkpoint + recovery).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/wal.h"
#include "service/query_service.h"
#include "service/result_cache.h"
#include "util/failpoint.h"
#include "workload/generators.h"

namespace simq {
namespace {

// Pin the global pool width before anything instantiates it: the
// cancellation/admission races need real worker threads (and the
// pool.task boundary) even on a single-core CI machine.
const bool kPoolWidthPinned = [] {
  ::setenv("SIMQ_THREADS", "4", 1);
  return true;
}();

Database MakeDatabase(int count, int length = 64, uint64_t seed = 7) {
  Database db;
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(
      db.BulkLoad("r", workload::RandomWalkSeries(count, length, seed)).ok());
  return db;
}

// A query that burns hundreds of milliseconds of exact-kernel work while
// producing almost no matches: every pair's distance is computed, almost
// none are within epsilon.
const char* kSlowQuery = "PAIRS r WITHIN 0.001 VIA SCAN MODE EXACT";

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ServiceLifecycleTest, ExpiredDeadlineFailsBeforeAdmission) {
  QueryService service(MakeDatabase(50, 32));
  ExecOptions options;
  options.deadline_ms = 1e-6;  // expired by the time the check runs
  const Result<ServiceResult> result =
      service.ExecuteText("RANGE r WITHIN 1.0 OF #walk0", options);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(service.stats().timeouts, 1);
  // Nothing leaked: the next unbounded execution runs normally.
  EXPECT_TRUE(service.ExecuteText("RANGE r WITHIN 1.0 OF #walk0").ok());
}

TEST(ServiceLifecycleTest, RunningQueryTimesOutAtAPollBoundary) {
  QueryService service(MakeDatabase(20000, 16));
  ExecOptions options;
  options.deadline_ms = 10.0;
  const auto start = std::chrono::steady_clock::now();
  const Result<ServiceResult> result =
      service.ExecuteText(kSlowQuery, options);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
  // "Within one poll interval": generous CI bound, but far below the
  // multi-second full execution.
  EXPECT_LT(elapsed_ms, 2000.0);
  EXPECT_EQ(service.stats().timeouts, 1);
}

TEST(ServiceLifecycleTest, DefaultDeadlineAppliesAndExecOptionsOverride) {
  ServiceOptions options;
  options.default_deadline_ms = 10.0;
  QueryService service(MakeDatabase(20000, 16), options);
  // Inherits the service default: times out.
  EXPECT_EQ(service.ExecuteText(kSlowQuery).status().code(),
            StatusCode::kTimeout);
  // deadline_ms = 0 explicitly lifts it: the query completes.
  ExecOptions unbounded;
  unbounded.deadline_ms = 0.0;
  EXPECT_TRUE(service.ExecuteText(kSlowQuery, unbounded).ok());
}

TEST(ServiceLifecycleTest, CancelStopsARunningQueryAndStickinessResets) {
  QueryService service(MakeDatabase(20000, 16));
  auto session = service.OpenSession();

  std::atomic<bool> started{false};
  Result<ServiceResult> slow = Status::Internal("not run");
  std::thread worker([&] {
    started.store(true);
    slow = session->Execute(kSlowQuery);
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  session->Cancel();
  worker.join();
  EXPECT_EQ(slow.status().code(), StatusCode::kCancelled)
      << slow.status().ToString();

  // The session stays cancelled until reset; cancellation of finished
  // executions is sticky but the session itself recovers.
  EXPECT_EQ(session->Execute("RANGE r WITHIN 1.0 OF #walk0").status().code(),
            StatusCode::kCancelled);
  session->ResetCancel();
  EXPECT_TRUE(session->Execute("RANGE r WITHIN 1.0 OF #walk0").ok());
  EXPECT_GE(service.stats().cancellations, 2);
}

TEST(ServiceLifecycleTest, AdmissionTimeoutShedsLoadWithoutLeakingSlots) {
  ServiceOptions options;
  options.max_concurrent_queries = 1;
  options.admission_timeout_ms = 25.0;
  QueryService service(MakeDatabase(20000, 16), options);

  std::atomic<bool> started{false};
  Result<ServiceResult> slow = Status::Internal("not run");
  std::thread worker([&] {
    started.store(true);
    ExecOptions bounded;
    bounded.deadline_ms = 1500.0;  // self-bounding, holds the slot a while
    slow = service.ExecuteText(kSlowQuery, bounded);
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  // Admission is immediate when the slot is free, so shortly after the
  // worker's Execute call it holds the only slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Unbounded-deadline query: the admission wait itself times out.
  const Result<ServiceResult> shed =
      service.ExecuteText("RANGE r WITHIN 1.0 OF #walk0");
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded)
      << shed.status().ToString();

  // A queued query whose deadline is shorter than the admission timeout
  // reports kTimeout, not kOverloaded.
  ExecOptions tight;
  tight.deadline_ms = 5.0;
  const Result<ServiceResult> expired =
      service.ExecuteText("RANGE r WITHIN 1.0 OF #walk0", tight);
  EXPECT_EQ(expired.status().code(), StatusCode::kTimeout)
      << expired.status().ToString();

  worker.join();
  // The worker's own termination is a deadline timeout or, on a fast
  // machine, a completed run -- either way its slot was returned.
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.overloaded, 1);
  EXPECT_GE(stats.timeouts, 1);
  // No leaked slot: with the service idle again, queries admit instantly.
  EXPECT_TRUE(service.ExecuteText("RANGE r WITHIN 1.0 OF #walk0").ok());
}

TEST(ServiceLifecycleTest, CancelWakesAQueuedWaiter) {
  ServiceOptions options;
  options.max_concurrent_queries = 1;
  QueryService service(MakeDatabase(20000, 16), options);

  std::atomic<bool> holder_started{false};
  Result<ServiceResult> holder_result = Status::Internal("not run");
  std::thread holder([&] {
    holder_started.store(true);
    ExecOptions bounded;
    bounded.deadline_ms = 1500.0;
    holder_result = service.ExecuteText(kSlowQuery, bounded);
  });
  while (!holder_started.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto session = service.OpenSession();
  std::atomic<bool> waiter_started{false};
  Result<ServiceResult> waiter_result = Status::Internal("not run");
  std::thread waiter([&] {
    waiter_started.store(true);
    // No admission timeout configured: without cancellation this would
    // wait for the full duration of the holder's query.
    waiter_result = session->Execute("RANGE r WITHIN 1.0 OF #walk0");
  });
  while (!waiter_started.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto cancel_at = std::chrono::steady_clock::now();
  session->Cancel();
  waiter.join();
  const double wake_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cancel_at)
          .count();
  EXPECT_EQ(waiter_result.status().code(), StatusCode::kCancelled)
      << waiter_result.status().ToString();
  EXPECT_LT(wake_ms, 1000.0);  // woken by Cancel, not by the slot freeing
  holder.join();
}

TEST(ServiceLifecycleTest, EngineExceptionIsContainedAsInternal) {
  QueryService service(MakeDatabase(200, 32));
  Failpoints::Global().Reset();
  Failpoints::Trigger t;
  t.kind = Failpoints::TriggerKind::kAlways;
  Failpoints::Global().Configure("pool.task", t);
  const Result<ServiceResult> poisoned = service.ExecuteText(kSlowQuery);
  Failpoints::Global().Reset();
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
      << poisoned.status().ToString();
  // The service (and its pool) survive the poisoned query.
  EXPECT_TRUE(service.ExecuteText("RANGE r WITHIN 1.0 OF #walk0").ok());
}

TEST(ServiceLifecycleTest, CompileFailureSurfacesAsDegradedPlan) {
  // Cache off: a degraded answer is (correctly) cacheable, and a replay
  // would report the cached degraded plan instead of a fresh healthy run.
  ServiceOptions cache_off;
  cache_off.result_cache_capacity = 0;
  QueryService service(MakeDatabase(60, 32), cache_off);
  Failpoints::Global().Reset();
  const std::string text = "RANGE r WITHIN 2.0 OF #walk3";

  // The bulk load left the packed tree uncompiled, so the first index
  // query compiles it: make that compile fail.
  Failpoints::Trigger t;
  t.kind = Failpoints::TriggerKind::kAlways;
  Failpoints::Global().Configure("packed.compile", t);
  const Result<ServiceResult> degraded = service.ExecuteText(text);
  Failpoints::Global().Reset();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.value().plan.degraded);
  EXPECT_TRUE(degraded.value().result.stats.used_index);
  EXPECT_EQ(degraded.value().plan.engine, "packed");
  EXPECT_GE(service.stats().degraded_queries, 1);

  // Identical answers; only the pruning was lost.
  const Result<ServiceResult> healthy = service.ExecuteText(text);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.value().plan.degraded);
  EXPECT_EQ(healthy.value().plan.engine, "packed");
  ASSERT_EQ(degraded.value().result.matches.size(),
            healthy.value().result.matches.size());
  for (size_t i = 0; i < healthy.value().result.matches.size(); ++i) {
    EXPECT_EQ(degraded.value().result.matches[i].id,
              healthy.value().result.matches[i].id);
    EXPECT_EQ(degraded.value().result.matches[i].distance,
              healthy.value().result.matches[i].distance);
  }
}

TEST(ServiceLifecycleTest, ServiceDurabilityRoundTripAndCheckpoint) {
  const std::string snapshot_path = TempPath("svc_durable.simqdb");
  const std::string wal_path = TempPath("svc_durable.wal");
  std::remove(snapshot_path.c_str());
  std::remove(wal_path.c_str());
  const std::vector<TimeSeries> series = workload::RandomWalkSeries(10, 32, 6);

  ServiceOptions options;
  options.snapshot_path = snapshot_path;
  options.wal_path = wal_path;
  {
    QueryService service(Database(), options);
    ASSERT_TRUE(service.durable());
    ASSERT_TRUE(service.CreateRelation("r").ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(service.Insert("r", series[static_cast<size_t>(i)]).ok());
    }
    ASSERT_TRUE(service.Checkpoint().ok());
    for (int i = 6; i < 10; ++i) {
      ASSERT_TRUE(service.Insert("r", series[static_cast<size_t>(i)]).ok());
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.wal_appends, 11);  // 1 create + 10 inserts
    EXPECT_EQ(stats.wal_failures, 0);
    EXPECT_EQ(stats.checkpoints, 1);
  }

  // The checkpoint truncated the log: only the post-checkpoint tail
  // replays on top of the snapshot.
  WalReplayStats replay;
  Result<Database> recovered =
      OpenDurableDatabase(FeatureConfig(), snapshot_path, wal_path, &replay);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(replay.frames_applied, 4u);

  Database oracle;
  ASSERT_TRUE(oracle.CreateRelation("r").ok());
  ASSERT_TRUE(oracle.BulkLoad("r", series).ok());
  const Relation* a = recovered.value().GetRelation("r");
  const Relation* b = oracle.GetRelation("r");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), b->size());
  for (int64_t id = 0; id < a->size(); ++id) {
    EXPECT_EQ(a->record(id).name, b->record(id).name);
    EXPECT_EQ(a->record(id).raw, b->record(id).raw);
  }
  const Result<QueryResult> qa =
      recovered.value().ExecuteText("NEAREST 3 r TO #walk1");
  const Result<QueryResult> qb = oracle.ExecuteText("NEAREST 3 r TO #walk1");
  ASSERT_TRUE(qa.ok() && qb.ok());
  ASSERT_EQ(qa.value().matches.size(), qb.value().matches.size());
  for (size_t i = 0; i < qa.value().matches.size(); ++i) {
    EXPECT_EQ(qa.value().matches[i].id, qb.value().matches[i].id);
    EXPECT_EQ(qa.value().matches[i].distance, qb.value().matches[i].distance);
  }
}

TEST(ServiceLifecycleTest, WalAppendFailureSurfacesOnTheMutation) {
  const std::string wal_path = TempPath("svc_walfail.wal");
  std::remove(wal_path.c_str());
  ServiceOptions options;
  options.wal_path = wal_path;
  QueryService service(Database(), options);
  Failpoints::Global().Reset();
  ASSERT_TRUE(service.CreateRelation("r").ok());

  Failpoints::Trigger t;
  t.kind = Failpoints::TriggerKind::kAlways;
  Failpoints::Global().Configure("wal.append", t);
  const Result<int64_t> inserted =
      service.Insert("r", workload::RandomWalkSeries(1, 16, 2)[0]);
  Failpoints::Global().Reset();
  EXPECT_EQ(inserted.status().code(), StatusCode::kIoError);
  EXPECT_GE(service.stats().wal_failures, 1);
}

TEST(ServiceLifecycleTest, NetConnectionCountersFoldIntoStats) {
  // The Note* hooks are the contract net::NetServer maintains (one call
  // per event, under stats_mutex_); the end-to-end path is covered over a
  // real socket in net_protocol_test.cc.
  QueryService service(MakeDatabase(10, 16));
  EXPECT_EQ(service.stats().net.connections_accepted, 0);
  service.NoteConnectionOpened();
  service.NoteConnectionOpened();
  service.NoteConnectionClosed(/*timed_out=*/false);
  service.NoteConnectionClosed(/*timed_out=*/true);
  service.NoteConnectionShed();
  service.NoteRequestShed();
  service.NoteNetBytes(100, 40);
  service.NoteNetBytes(20, 5);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.net.connections_accepted, 2);
  EXPECT_EQ(stats.net.connections_active, 0);
  EXPECT_EQ(stats.net.connections_shed, 1);
  EXPECT_EQ(stats.net.connections_timed_out, 1);
  EXPECT_EQ(stats.net.requests_shed, 1);
  EXPECT_EQ(stats.net.bytes_in, 120);
  EXPECT_EQ(stats.net.bytes_out, 45);
}

TEST(ResultCacheByteBudgetTest, EvictsPastTheByteBudget) {
  QueryResult big;
  for (int i = 0; i < 1000; ++i) {
    big.matches.push_back(Match{i, "m" + std::to_string(i), 0.5});
  }
  const size_t entry_bytes = ResultCache::ApproxResultBytes(big);
  ASSERT_GT(entry_bytes, 0u);

  // Budget for about two entries; the third Put evicts the LRU one even
  // though the entry-count capacity (100) is nowhere near exceeded.
  ResultCache cache(100, entry_bytes * 2 + entry_bytes / 2);
  cache.Put("k1", "r", big);
  cache.Put("k2", "r", big);
  EXPECT_EQ(cache.stats().evictions, 0);
  cache.Put("k3", "r", big);
  EXPECT_EQ(cache.stats().evictions, 1);
  QueryResult out;
  EXPECT_FALSE(cache.Get("k1", &out));  // LRU went first
  EXPECT_TRUE(cache.Get("k2", &out));
  EXPECT_TRUE(cache.Get("k3", &out));
  EXPECT_LE(cache.bytes(), entry_bytes * 2 + entry_bytes / 2);
  EXPECT_EQ(cache.stats().bytes, static_cast<int64_t>(cache.bytes()));

  // A single result bigger than the whole budget cannot be pinned: it
  // evicts everything including itself.
  ResultCache tiny(100, entry_bytes / 2);
  tiny.Put("huge", "r", big);
  EXPECT_FALSE(tiny.Get("huge", &out));
  EXPECT_EQ(tiny.bytes(), 0u);
}

TEST(ResultCacheByteBudgetTest, ServiceReportsCacheBytesAndBoundsThem) {
  ServiceOptions options;
  options.result_cache_max_bytes = 16 * 1024;
  QueryService service(MakeDatabase(200, 32), options);
  // Distinct epsilons -> distinct fingerprints -> many cached answer sets.
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(service
                    .ExecuteText("RANGE r WITHIN " + std::to_string(i) +
                                 ".0 OF #walk0")
                    .ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache.bytes, 0);
  EXPECT_LE(stats.cache.bytes, 16 * 1024);
  EXPECT_GT(stats.cache.evictions, 0);
}

}  // namespace
}  // namespace simq
