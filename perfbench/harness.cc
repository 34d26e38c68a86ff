// The SIMQNET1 benchmark harness: one workload per process.
//
//   simq_perfbench --workload W --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--spans-out FILE]
//
// The process generates its inputs (a 12000x128 workload::StockMarket
// relation, the same for every seed, and from the seed the probe series
// and the writer's new series), computes the answer oracle in-process,
// then sets up the served system -- Database bulk load, QueryService,
// NetServer on a loopback port, two SIMQNET1 connections -- several times
// and reports the median set-up time. On the last set-up it drives both
// connections closed loop (one request in flight on each) for S seconds
// and checks every answer against the oracle. Writes go through
// QueryService::Insert/Delete from one open-loop writer at a fixed rate:
// beside the readers on churn_mixed, and in the traced run after the
// readers stop on the three read-only workloads, whose read figures they
// therefore leave untouched. After the writes, background folds drain
// and the live relation is compared with a fresh Database bulk-loaded from
// the rows that should be live.
//
// The readers and the NetServer's event loop, its executors and thread
// pool, and the writer run on disjoint CPUs (kWireCpus, kExecCpus,
// kWriteCpus), so none of them preempts another and no thread migrates
// during a run, and idle spinners keep those CPUs from halting (see
// IdleSpinners).
//
// --trace 1 is the separate traced run. It runs the same schedule twice on
// fresh set-ups, untraced and then traced, and reports the difference of
// their median latencies as the tracing overhead; the write figures are
// per-layer metrics of this run. In the traced phase every wire request
// and every write gets a root span; the client codec calls are inline
// children; after the phase, the first requests of each connection are
// replayed in-process through each layer's public entry
// points (DecodeExec, ParseQuery, QueryService::Execute or
// Session::ExecutePrepared, Database::Execute, EncodeResultPage). Cache
// misses replay against a twin service loaded from the same rows, so a
// replay never lands in the cache entry its wire request filled; cache
// hits replay against the live service, whose entry they hit again.
// churn_mixed reads change with the data, so only their codec and parse
// calls are replayed. net.self_us is what is left of a wire request after
// its inline children and replays (ledger.h), so the ledger adds up by
// construction; checking that sum independently needs spans inside the
// program, which this harness does not have.
//
// The last line of standard output is the result JSON: correct, attempted,
// failed and the metrics of the mode (end-to-end untraced, per-layer
// traced). Every setting the figures depend on is fixed here and echoed
// before it; the caller's SIMQ_THREADS and SIMQ_SHARDS are ignored.

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/parser.h"
#include "core/transformation.h"
#include "ledger.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "ts/transforms.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using simq::Match;
using simq::Query;
using simq::QueryService;
using simq::ServiceResult;
using simq::Status;
namespace net = simq::net;

// ---------------------------------------------------------------------------
// Pinned settings. Each one moves the figures, so none comes from outside.
// ---------------------------------------------------------------------------
constexpr int kPoolThreads = 2;   // SIMQ_THREADS; also the admission width
constexpr int kShards = 1;
constexpr int kExecThreads = 2;   // NetServer executor threads
constexpr int kReaders = 2;       // connections, one reader thread each
constexpr int kInFlight = 1;      // requests in flight per connection
constexpr int kRows = 12000;
constexpr int kLength = 128;
constexpr int kProbePool = 4096;        // probes drawn; workloads use a prefix
constexpr int kTargetAnswers = 25;      // mean answers per range query
constexpr size_t kCalibrationProbes = 1024;
constexpr int kCalibrationNeighbours = 32;
constexpr int kCheckProbes = 256;       // probes in the after-write check
constexpr double kWriterRate = 200.0;   // mutations per second, open loop
// Every write is appended to the WAL, but not flushed: the log has to live
// inside the benchmark's checkout, on the machine's disk, whose flush times
// would swamp the log code's own (a tmpfs would make the flush free).
constexpr bool kSyncWal = false;
constexpr double kTailSeconds = 4.0;    // writes after the readers stop
constexpr int kSetups = 5;              // set-ups per run; median reported
constexpr int kReplaysPerReader = 512;  // traced requests replayed
constexpr double kDrainSeconds = 2.0;   // longest wait for a fold to end

// CPU layout, by index into the CPUs the process may use. Threads inherit
// the mask of the thread that starts them, so the main thread takes the
// exec CPUs before anything starts the thread pool or the NetServer
// executors, the event loop and the readers take the wire CPU as they
// start, and the writer takes its own before its writes start background
// folds.
constexpr int kCpus = 4;
constexpr int kWireCpus[] = {0};     // both readers and the NetServer loop
constexpr int kExecCpus[] = {1, 2};  // NetServer executors, the pool worker
constexpr int kWriteCpus[] = {3};    // the writer and the folds it starts

struct Workload {
  const char* name;
  int probes;
  bool prepared;          // prepared statement with a binary-bound series
  bool cache_fill;        // every probe is cached during set-up
  bool writer_with_reads; // writes run beside the readers
};

const Workload kWorkloads[] = {
    {"range_miss_wire", 4096, false, false, false},
    {"range_hot_wire", 64, false, true, false},
    {"knn_filtered_wire", 4096, true, false, false},
    {"churn_mixed", 4096, false, false, true},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The ids of the CPUs the process may use, in increasing order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

std::vector<int> g_cpus;  // AllowedCpus(), taken once before any pinning

// Pins the calling thread to the CPUs at `indices` of g_cpus.
template <size_t N>
void PinTo(const int (&indices)[N]) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int index : indices) {
    CPU_SET(g_cpus[static_cast<size_t>(index)], &set);
  }
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::perror("sched_setaffinity");
    std::exit(1);
  }
}

// Keeps every CPU of the layout busy while the run measures: one SCHED_IDLE
// thread per CPU that spins, so it runs only when no other thread wants
// that CPU. On a virtual machine an idle vCPU halts, and waking it again
// waits for the host to schedule it, for as long as the host's load makes
// it; a wire request wakes four threads in turn, two of them on another
// CPU. With the vCPUs kept running, a wake-up is a context switch inside
// the guest.
// (The kernel's idle=poll does the same for a whole machine.)
class IdleSpinners {
 public:
  IdleSpinners() {
    for (int cpu = 0; cpu < kCpus; ++cpu) {
      threads_.emplace_back([this, cpu] {
        const int index[] = {cpu};
        PinTo(index);
        const sched_param param{};
        if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
          std::perror("sched_setscheduler(SCHED_IDLE)");
          std::exit(1);
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();  // leaves the core to its sibling thread
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// The machine's CPU time so far, and the part of it the host withheld from
// this VM (steal), in ticks from /proc/stat.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks out;
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    stat >> ticks;
    out.total += ticks;
    if (field == 7) {
      out.steal = ticks;
    }
  }
  return out;
}

// How contended the host was between two readings: the share of the
// machine's CPU time it withheld.
double StealShare(const CpuTicks& before, const CpuTicks& after) {
  return Ratio(after.steal - before.steal, after.total - before.total);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Inputs: everything the program sees, generated from the seed.
// ---------------------------------------------------------------------------
struct Inputs {
  std::vector<simq::TimeSeries> rows;
  std::vector<std::vector<double>> probes;
  std::vector<std::string> texts;  // text workloads: one query per probe
  double epsilon = 0.0;            // range workloads
  std::string prepare_text;        // prepared workload: the statement
  Query prepared_query;            // ... parsed, for the oracle and replays
  std::vector<simq::TimeSeries> arrivals;  // the writer's inserts, in order
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  double Uniform() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  double Normal() {
    const double u = 1.0 - Uniform();  // (0, 1]
    const double v = Uniform();
    return std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * v);
  }
  uint64_t Next() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

// Round-trip-exact rendering (%.17g): the server parses back the same bits.
std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Literal(const std::vector<double>& q) {
  std::string text = "[";
  for (size_t i = 0; i < q.size(); ++i) {
    text += (i > 0 ? "," : "") + Number(q[i]);
  }
  return text + "]";
}

std::string RangeText(const std::vector<double>& q, double epsilon) {
  return "RANGE r WITHIN " + Number(epsilon) + " OF " + Literal(q) +
         " USING mavg(20) PRENORMALIZED";
}

Query BindSeries(const Query& prepared, const std::vector<double>& series) {
  Query query = prepared;
  query.query_series = simq::SeriesRef();
  query.query_series.literal = series;
  return query;
}

// The query probe `p` runs, as the engine sees it.
Query QueryFor(const Workload& w, const Inputs& in, size_t p) {
  if (w.prepared) {
    return BindSeries(in.prepared_query, in.probes[p]);
  }
  simq::Result<Query> parsed = simq::ParseQuery(in.texts[p]);
  if (!parsed.ok()) {
    std::fprintf(stderr, "unparsable probe text: %s\n",
                 parsed.status().message().c_str());
    std::exit(1);
  }
  return std::move(parsed).value();
}

simq::Database LoadDatabase(const std::vector<simq::TimeSeries>& rows) {
  simq::ShardingOptions sharding;
  sharding.num_shards = kShards;
  simq::Database db(simq::FeatureConfig(), simq::RTree::Options(), sharding);
  Status status = db.CreateRelation("r");
  if (status.ok()) {
    status = db.BulkLoad("r", rows);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", status.message().c_str());
    std::exit(1);
  }
  return db;
}

// The relation is the same for every seed: the generator's own default
// seed draws the 20 sector walks that shape it, and how tightly they
// cluster the normal forms sets how much work a 25-answer range query
// takes (drawn per seed, epsilon ranged 1.5-2.1 and range_miss_wire's p50
// moved with it by 30%). The seed draws everything else: the probes, and
// so epsilon and the answers, and the writer's series.
Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  simq::workload::StockMarketOptions market;
  market.num_series = kRows;
  market.length = kLength;
  in.rows = simq::workload::StockMarket(market);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EEDull);

  // Probes are seeded perturbations of stored series: for the range
  // workloads, the mavg(20)-smoothed normal form (the query is
  // PRENORMALIZED); for kNN, the raw values.
  const std::unique_ptr<simq::TransformationRule> mavg20 =
      simq::MakeMovingAverageRule(20);
  for (int p = 0; p < kProbePool; ++p) {
    const simq::TimeSeries& source =
        in.rows[static_cast<size_t>(rng.Next() % kRows)];
    const simq::NormalFormResult normal = simq::ToNormalForm(source.values);
    std::vector<double> q;
    if (w.prepared) {
      q = source.values;
      for (double& v : q) {
        v += 0.05 * normal.std_dev * rng.Normal();
      }
    } else {
      q = mavg20->Apply(normal.values);
      for (double& v : q) {
        v += 0.02 * rng.Normal();
      }
    }
    in.probes.push_back(std::move(q));
  }
  const int arrivals =
      static_cast<int>(std::ceil(kWriterRate * 60.0 / 2.0)) + 16;
  in.arrivals =
      simq::workload::RandomWalkSeries(arrivals, kLength, rng.Next());
  if (w.prepared) {
    in.prepare_text =
        "NEAREST 10 r TO #" + in.rows[0].id + " VIA SCAN MODE FILTERED";
    simq::Result<Query> parsed = simq::ParseQuery(in.prepare_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "unparsable statement: %s\n",
                   parsed.status().message().c_str());
      std::exit(1);
    }
    in.prepared_query = std::move(parsed).value();
  }
  return in;
}

// Runs f(0..n-1) on one thread per CPU of the layout. Only for the untimed
// input and oracle work; f must be safe to call concurrently.
template <typename F>
void ForEachInParallel(size_t n, F f) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kCpus; ++t) {
    threads.emplace_back([&f, n, t] {
      const int cpu[] = {t};
      PinTo(cpu);
      for (size_t i = static_cast<size_t>(t); i < n; i += kCpus) {
        f(i);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// The range epsilon: the one radius for which the first kCalibrationProbes
// probes of the pool return kTargetAnswers answers on average.
// range_miss_wire, range_hot_wire and churn_mixed draw the same pool, so
// they share it. The rank-th smallest of each probe's few nearest
// distances, pooled, bounds it from above (a subset's rank-th smallest is
// no smaller); range queries at that bound then see every distance up to
// it, and the same rank among those is the radius itself.
double CalibrateEpsilon(const simq::Database& db, const Inputs& in) {
  const size_t rank = static_cast<size_t>(kTargetAnswers) * kCalibrationProbes;
  const auto pooled_rank = [&](double bound) {
    std::vector<std::vector<double>> found(kCalibrationProbes);
    ForEachInParallel(kCalibrationProbes, [&](size_t p) {
      const std::string text =
          bound > 0.0 ? RangeText(in.probes[p], bound)
                      : "NEAREST " + std::to_string(kCalibrationNeighbours) +
                            " r TO " + Literal(in.probes[p]) +
                            " USING mavg(20) PRENORMALIZED";
      simq::Result<simq::QueryResult> r = db.ExecuteText(text);
      if (!r.ok()) {
        std::fprintf(stderr, "epsilon calibration failed: %s\n",
                     r.status().message().c_str());
        std::exit(1);
      }
      for (const Match& m : r.value().matches) {
        found[p].push_back(m.distance);
      }
    });
    std::vector<double> pooled;
    for (const std::vector<double>& distances : found) {
      pooled.insert(pooled.end(), distances.begin(), distances.end());
    }
    std::nth_element(pooled.begin(), pooled.begin() + (rank - 1),
                     pooled.end());
    return pooled[rank - 1];
  };
  return pooled_rank(pooled_rank(0.0));
}

// Completes the inputs that depend on the relation -- the range epsilon and
// query texts -- and computes the answer oracle. Runs once, untimed.
void CompleteInputs(const Workload& w, const simq::Database& db, Inputs* in,
                    std::vector<std::vector<Match>>* oracle) {
  if (!w.prepared) {
    in->epsilon = CalibrateEpsilon(db, *in);
    for (int p = 0; p < w.probes; ++p) {
      in->texts.push_back(RangeText(in->probes[static_cast<size_t>(p)],
                                    in->epsilon));
    }
  }
  if (w.writer_with_reads) {
    return;  // churn_mixed reads see changing data; the final check covers it
  }
  oracle->assign(static_cast<size_t>(w.probes), {});
  ForEachInParallel(static_cast<size_t>(w.probes), [&](size_t p) {
    simq::Result<simq::QueryResult> r = db.Execute(QueryFor(w, *in, p));
    if (!r.ok()) {
      std::fprintf(stderr, "oracle query failed: %s\n",
                   r.status().message().c_str());
      std::exit(1);
    }
    (*oracle)[p] = std::move(r.value().matches);
  });
}

// ---------------------------------------------------------------------------
// One set-up of the served system.
// ---------------------------------------------------------------------------
struct SetupTimes {
  double load_s = 0.0;
  double compile_s = 0.0;
  double serve_s = 0.0;
  double total() const { return load_s + compile_s + serve_s; }
};

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) {
      first_error = what;
    }
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_error.empty()) {
      first_error = other.first_error;
    }
  }
};

// A wire request kept for replay: its bytes, its answer, its spans.
struct Recorded {
  bool timed = true;   // false for set-up requests (cache fills, prepares)
  bool hit = false;    // served from the result cache
  bool is_prepare = false;
  std::vector<uint8_t> payload;
  net::ResultPage page;
  std::vector<Span> spans;  // root first
  Query query;              // as the replay decoded and parsed it
  size_t parsed_bytes = 0;  // text the replay parsed
};

struct Stack {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;
  std::vector<std::unique_ptr<net::NetClient>> clients;
  std::vector<uint64_t> statements;
  std::string wal_path;
  SetupTimes times;
  double inputs_s = 0.0;  // completing the inputs and oracle, untimed
  Tally setup;            // the cache fill's reads
  std::vector<Recorded> setup_requests;  // traced only
};

double Us(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

// One closed-loop exec over the frame-level client. After a transport
// failure (transport_ok false) the connection is unusable.
struct ExecOutcome {
  bool transport_ok = true;
  bool answered = false;
  std::string error;
  net::ResultPage page;
  std::vector<uint8_t> payload;
  Clock::time_point start, encoded, received, decoded;
};

ExecOutcome ExecOnce(net::NetClient* client, const net::ExecRequest& req) {
  ExecOutcome out;
  out.start = Clock::now();
  out.payload = net::EncodeExec(req);
  out.encoded = Clock::now();
  const uint32_t rid = client->NextRequestId();
  net::FrameHeader header;
  std::vector<uint8_t> response;
  Status status = client->SendFrame(net::Opcode::kExec, rid, out.payload);
  if (status.ok()) {
    status = client->ReadFrame(&header, &response);
  }
  out.received = Clock::now();
  if (!status.ok()) {
    out.transport_ok = false;
    out.error = "transport: " + status.message();
    out.decoded = out.received;
    return out;
  }
  if (header.opcode == static_cast<uint8_t>(net::Opcode::kResult)) {
    status = net::DecodeResultPage(response.data(), response.size(),
                                   &out.page);
    out.decoded = Clock::now();
    if (!status.ok()) {
      out.error = "undecodable result: " + status.message();
    } else if (header.request_id != rid) {
      out.error = "answer for another request";
    } else if (out.page.has_more) {
      out.error = "answer spans pages";
    } else {
      out.answered = true;
    }
    return out;
  }
  out.decoded = Clock::now();
  net::ErrorInfo info;
  if (header.opcode == static_cast<uint8_t>(net::Opcode::kError) &&
      net::DecodeError(response.data(), response.size(), &info).ok()) {
    out.error = "error " + std::to_string(info.code) + ": " + info.message;
  } else {
    out.error = "unexpected opcode " + std::to_string(header.opcode);
  }
  return out;
}

net::ExecRequest RequestFor(const Workload& w, const Inputs& in, size_t p,
                            uint64_t statement) {
  net::ExecRequest req;
  if (w.prepared) {
    req.prepared = true;
    req.statement_id = statement;
    req.has_series = true;
    req.series = in.probes[p];
  } else {
    req.text = in.texts[p];
  }
  return req;
}

// Root span of a wire request plus its inline client codec children.
std::vector<Span> WireSpans(int64_t request, Clock::time_point origin,
                            const ExecOutcome& e) {
  std::vector<Span> spans(3);
  spans[0] = {request, 0, -1, "wire", Us(origin, e.start), Us(origin, e.decoded),
              false};
  spans[1] = {request, 1, 0, "client.encode", Us(origin, e.start),
              Us(origin, e.encoded), false};
  spans[2] = {request, 2, 0, "client.decode", Us(origin, e.received),
              Us(origin, e.decoded), false};
  return spans;
}

void Teardown(Stack* stack) {
  for (auto& client : stack->clients) {
    (void)client->Goodbye();
    client->Close();
  }
  stack->clients.clear();
  if (stack->server != nullptr) {
    stack->server->Shutdown();
    if (stack->loop.joinable()) {
      stack->loop.join();
    }
    stack->server.reset();
  }
  stack->service.reset();  // waits for background folds
  if (!stack->wal_path.empty()) {
    ::unlink(stack->wal_path.c_str());
  }
}

// The first query per compiled artifact: the packed snapshot for the range
// workloads, the quantized codes for the filtered kNN.
void CompileArtifacts(const Workload& w, const Inputs& in,
                      const simq::Database& db) {
  const Query warm_query =
      w.prepared ? BindSeries(in.prepared_query, in.probes[0])
                 : simq::ParseQuery(RangeText(in.probes[0], 0.0)).value();
  simq::Result<simq::QueryResult> warm = db.Execute(warm_query);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm-up query failed: %s\n",
                 warm.status().message().c_str());
    std::exit(1);
  }
}

// Sets the served system up, timing each part. With `complete`, the first
// set-up also completes the inputs and the oracle on its database, between
// the compile and the serving start and outside both timings.
std::unique_ptr<Stack> SetUp(const Workload& w, Inputs* inputs,
                             std::vector<std::vector<Match>>* answers,
                             bool complete, const std::string& wal_path,
                             bool traced, Clock::time_point origin) {
  const Inputs& in = *inputs;
  const std::vector<std::vector<Match>>& oracle = *answers;
  auto stack = std::make_unique<Stack>();
  stack->wal_path = wal_path;
  ::unlink(wal_path.c_str());
  const Clock::time_point t0 = Clock::now();
  simq::ServiceOptions options;
  options.wal_path = wal_path;
  options.sync_wal = kSyncWal;
  stack->service =
      std::make_unique<QueryService>(LoadDatabase(in.rows), options);
  const Clock::time_point t1 = Clock::now();
  CompileArtifacts(w, in, stack->service->database_unlocked());
  const Clock::time_point t2 = Clock::now();
  if (complete) {
    CompleteInputs(w, stack->service->database_unlocked(), inputs, answers);
  }
  const Clock::time_point t2_serve = Clock::now();
  stack->inputs_s = Seconds(t2_serve - t2);
  net::NetServerOptions server_options;
  server_options.port = 0;
  server_options.exec_threads = kExecThreads;
  server_options.checkpoint_on_shutdown = false;
  stack->server =
      std::make_unique<net::NetServer>(stack->service.get(), server_options);
  Status status = stack->server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.message().c_str());
    std::exit(1);
  }
  net::NetServer* server = stack->server.get();
  stack->loop = std::thread([server] {
    PinTo(kWireCpus);
    server->Run();
  });
  for (int c = 0; c < kReaders; ++c) {
    auto client = std::make_unique<net::NetClient>();
    status = client->Connect("127.0.0.1", stack->server->port());
    if (!status.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", status.message().c_str());
      std::exit(1);
    }
    if (w.prepared) {
      const Clock::time_point p0 = Clock::now();
      simq::Result<uint64_t> id = client->Prepare(in.prepare_text);
      if (!id.ok()) {
        std::fprintf(stderr, "prepare failed: %s\n",
                     id.status().message().c_str());
        std::exit(1);
      }
      stack->statements.push_back(id.value());
      if (traced) {
        Recorded rec;
        rec.timed = false;
        rec.is_prepare = true;
        rec.spans.push_back({-1 - c, 0, -1, "prepare", Us(origin, p0),
                             Us(origin, Clock::now()), false});
        stack->setup_requests.push_back(std::move(rec));
      }
    }
    stack->clients.push_back(std::move(client));
  }
  if (w.cache_fill) {
    for (size_t p = 0; p < static_cast<size_t>(w.probes); ++p) {
      ExecOutcome e = ExecOnce(stack->clients[0].get(),
                               RequestFor(w, in, p, 0));
      ++stack->setup.attempted;
      if (!e.answered || !SameAnswers(e.page.matches, oracle[p])) {
        stack->setup.Fail(e.answered ? "cache fill answer mismatch" : e.error);
        continue;
      }
      if (traced) {
        Recorded rec;
        rec.timed = false;
        rec.spans = WireSpans(-1000 - static_cast<int64_t>(p), origin, e);
        rec.payload = std::move(e.payload);
        rec.page = std::move(e.page);
        stack->setup_requests.push_back(std::move(rec));
      }
    }
  }
  const Clock::time_point t3 = Clock::now();
  stack->times.load_s = Seconds(t1 - t0);
  stack->times.compile_s = Seconds(t2 - t1);
  stack->times.serve_s = Seconds(t3 - t2_serve);
  return stack;
}

// ---------------------------------------------------------------------------
// Load: closed-loop readers and the open-loop writer.
// ---------------------------------------------------------------------------
struct ReadLog {
  std::vector<double> latency_ms;  // every checked timed read
  Clock::time_point end;           // when the reader's last read returned
  Tally tally;
  std::vector<Recorded> recorded;  // traced: first kReplaysPerReader
};

void RunReader(const Workload& w, const Inputs& in,
               const std::vector<std::vector<Match>>& oracle,
               net::NetClient* client, uint64_t statement, int reader,
               Clock::time_point start, Clock::time_point stop, bool traced,
               Clock::time_point origin, ReadLog* log) {
  PinTo(kWireCpus);
  log->latency_ms.reserve(1 << 18);
  const bool check = !w.writer_with_reads;
  std::this_thread::sleep_until(start);
  log->end = start;
  for (int64_t j = 0; Clock::now() < stop; ++j) {
    const size_t p = static_cast<size_t>(
        (reader + kReaders * j) % static_cast<int64_t>(w.probes));
    ExecOutcome e = ExecOnce(client, RequestFor(w, in, p, statement));
    log->end = e.decoded;
    ++log->tally.attempted;
    if (!e.transport_ok) {
      log->tally.Fail(e.error);
      return;
    }
    if (!e.answered) {
      log->tally.Fail(e.error);
      continue;
    }
    if (check && !SameAnswers(e.page.matches, oracle[p])) {
      log->tally.Fail("answer mismatch on probe " + std::to_string(p));
      continue;
    }
    log->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(e.decoded - e.start)
            .count());
    if (traced && j < kReplaysPerReader) {
      Recorded rec;
      rec.hit = w.cache_fill;
      rec.spans =
          WireSpans((static_cast<int64_t>(reader) << 32) | j, origin, e);
      rec.payload = std::move(e.payload);
      rec.page = std::move(e.page);
      log->recorded.push_back(std::move(rec));
    }
  }
}

struct WriterState {
  size_t next_insert = 0;
  int64_t next_delete = 0;  // the oldest original row still live
};

struct WriteLog {
  std::vector<double> write_ms;  // scheduled time to acknowledgement
  std::vector<double> call_us;   // Insert/Delete call time
  std::vector<double> late_ms;   // scheduled time to call start
  std::vector<double> delta_rows;  // traced: sampled after each write
  std::vector<Span> spans;       // traced
  Tally tally;
};

void RunWriter(QueryService* service, const Inputs& in,
               Clock::time_point start, Clock::time_point stop, bool traced,
               Clock::time_point origin, WriterState* state, WriteLog* log) {
  PinTo(kWriteCpus);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kWriterRate));
  for (int64_t i = 0;; ++i) {
    const Clock::time_point due = start + i * period;
    if (due >= stop) {
      return;
    }
    std::this_thread::sleep_until(due);
    const Clock::time_point call = Clock::now();
    Status status;
    if (i % 2 == 0) {
      simq::Result<int64_t> id =
          service->Insert("r", in.arrivals[state->next_insert]);
      status = id.status();
      ++state->next_insert;
    } else {
      status = service->Delete("r", state->next_delete);
      ++state->next_delete;
    }
    const Clock::time_point ack = Clock::now();
    ++log->tally.attempted;
    if (!status.ok()) {
      log->tally.Fail("write: " + status.message());
    }
    log->write_ms.push_back(
        std::chrono::duration<double, std::milli>(ack - due).count());
    log->call_us.push_back(
        std::chrono::duration<double, std::micro>(ack - call).count());
    log->late_ms.push_back(
        std::chrono::duration<double, std::milli>(call - due).count());
    if (traced) {
      const int base = static_cast<int>(log->spans.size());
      log->spans.push_back({i, base, -1, "write", Us(origin, due),
                            Us(origin, ack), false});
      log->spans.push_back({i, base + 1, base, "write.late", Us(origin, due),
                            Us(origin, call), false});
      log->spans.push_back({i, base + 2, base, "write.call",
                            Us(origin, call), Us(origin, ack), false});
      log->delta_rows.push_back(
          static_cast<double>(service->stats().delta_rows));
    }
  }
}

// After the writer stops at most one background fold is in flight, and
// only while the delta layer holds at least the fold threshold of
// mutations; wait until that fold has published (or none can be running).
void DrainFolds(QueryService* service) {
  const int64_t threshold = simq::DeltaOptions().recompact_threshold;
  const int64_t before = service->stats().recompactions;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDrainSeconds));
  while (Clock::now() < deadline) {
    const simq::ServiceStats s = service->stats();
    if (s.delta_rows + s.delta_tombstones < threshold ||
        s.recompactions > before) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Compares the live relation after the writes with a fresh Database
// bulk-loaded from the rows that should be live.
Tally CheckAfterWrites(const Workload& w, const Inputs& in,
                       QueryService* service, const WriterState& state) {
  Tally tally;
  std::vector<simq::TimeSeries> live;
  for (int64_t id = state.next_delete; id < kRows; ++id) {
    live.push_back(in.rows[static_cast<size_t>(id)]);
  }
  for (size_t i = 0; i < state.next_insert; ++i) {
    live.push_back(in.arrivals[i]);
  }
  const simq::Database fresh = LoadDatabase(live);
  std::unique_ptr<simq::Session> session = service->OpenSession();
  int64_t statement = 0;
  if (w.prepared) {
    simq::Result<int64_t> id = session->Prepare(in.prepare_text);
    if (!id.ok()) {
      tally.Fail("check prepare: " + id.status().message());
      return tally;
    }
    statement = id.value();
  }
  const size_t probes = static_cast<size_t>(std::min(kCheckProbes, w.probes));
  for (size_t p = 0; p < probes; ++p) {
    ++tally.attempted;
    simq::Result<ServiceResult> got = [&]() {
      if (!w.prepared) {
        return session->Execute(in.texts[p]);
      }
      simq::BindParams bind;
      bind.series = simq::SeriesRef();
      bind.series->literal = in.probes[p];
      return session->ExecutePrepared(statement, bind);
    }();
    simq::Result<simq::QueryResult> want = fresh.Execute(QueryFor(w, in, p));
    if (!got.ok() || !want.ok()) {
      tally.Fail("check query failed on probe " + std::to_string(p));
    } else if (!SameAnswersByName(got.value().result.matches,
                                  want.value().matches)) {
      tally.Fail("live relation differs from a fresh load on probe " +
                 std::to_string(p));
    }
  }
  return tally;
}

// ---------------------------------------------------------------------------
// One timed phase on a set-up stack.
// ---------------------------------------------------------------------------
struct PhaseResult {
  Summary reads;     // latency in ms over every checked timed read
  double qps = 0.0;  // timed reads completed per second of timed wall time
  double steal = 0.0;  // share of CPU time the host withheld (diagnostic)
  Tally tally;
  std::vector<std::vector<Recorded>> recorded;  // per reader
  simq::ServiceStats before, after;
  net::NetServerStats server_before, server_after;
  WriteLog writes;
  WriterState writer;
};

PhaseResult RunPhase(const Workload& w, const Inputs& in,
                     const std::vector<std::vector<Match>>& oracle,
                     Stack* stack, double seconds, bool traced,
                     Clock::time_point origin) {
  PhaseResult out;
  const CpuTicks ticks_before = ReadCpuTicks();
  out.before = stack->service->stats();
  out.server_before = stack->server->stats();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<ReadLog> logs(kReaders);
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    const uint64_t statement =
        w.prepared ? stack->statements[static_cast<size_t>(c)] : 0;
    threads.emplace_back(RunReader, std::cref(w), std::cref(in),
                         std::cref(oracle), stack->clients[c].get(),
                         statement, c, start, stop, traced, origin,
                         &logs[static_cast<size_t>(c)]);
  }
  if (w.writer_with_reads) {
    threads.emplace_back(RunWriter, stack->service.get(), std::cref(in), start,
                         stop, traced, origin, &out.writer, &out.writes);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<double> latency_ms;
  Clock::time_point end = start;
  for (ReadLog& log : logs) {
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(),
                      log.latency_ms.end());
    end = std::max(end, log.end);
    out.tally.Add(log.tally);
    out.recorded.push_back(std::move(log.recorded));
  }
  out.reads = Summarize(latency_ms);
  out.qps = Ratio(static_cast<double>(out.reads.n), Seconds(end - start));
  out.steal = StealShare(ticks_before, ReadCpuTicks());
  out.after = stack->service->stats();
  out.server_after = stack->server->stats();
  return out;
}

// Writes after the readers stop (read-only workloads), on a writer thread
// of their own as on churn_mixed.
void RunTail(const Inputs& in, Stack* stack, bool traced,
             Clock::time_point origin, PhaseResult* phase) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kTailSeconds));
  std::thread(RunWriter, stack->service.get(), std::cref(in), start, stop,
              traced, origin, &phase->writer, &phase->writes)
      .join();
}

// ---------------------------------------------------------------------------
// Replays (traced run).
// ---------------------------------------------------------------------------
// One timed read, replayed: the terms of the ledger, which add up to the
// wire time by construction.
struct LedgerRow {
  double wire_us = 0.0;
  double net_self_us = 0.0;
  double codec_us = 0.0;
  double parse_us = 0.0;
  double service_us = 0.0;  // includes engine_us
  double engine_us = 0.0;   // zero on a cache hit
};

struct Layers {
  std::vector<LedgerRow> ledger;  // timed reads replayed through every layer
  std::vector<double> codec_us;   // timed reads
  std::vector<double> parse_us, parse_bytes;  // every parsed text
  // Cache-missing requests replayed through Database::Execute: their
  // times, and the work counts of a separate one-at-a-time pass.
  std::vector<double> engine_us;
  int64_t counted = 0, exact_checks = 0, candidates = 0, answers = 0,
          node_accesses = 0, filter_scanned = 0, filter_candidates = 0;
};

// The engine's work counts for the cache-missing requests, from a pass that
// runs them one at a time: ExecutionStats::node_accesses is the delta of a
// tree-wide counter, which a concurrent query on the same tree would add to.
void CountEngineWork(const Inputs& in, const std::vector<Recorded*>& recs,
                     const simq::Database& db, Layers* layers, Tally* tally) {
  for (const Recorded* rec : recs) {
    if (rec->hit || rec->is_prepare) {
      continue;
    }
    ++tally->attempted;
    net::ExecRequest req;
    Status decoded =
        net::DecodeExec(rec->payload.data(), rec->payload.size(), &req);
    simq::Result<Query> query = Status::Internal("undecodable request");
    if (decoded.ok()) {
      query = req.prepared ? BindSeries(in.prepared_query, req.series)
                           : simq::ParseQuery(req.text);
    }
    simq::Result<simq::QueryResult> executed =
        query.ok() ? db.Execute(query.value()) : query.status();
    if (!executed.ok()) {
      tally->Fail("engine count pass failed");
      continue;
    }
    const simq::ExecutionStats& s = executed.value().stats;
    ++layers->counted;
    layers->exact_checks += s.exact_checks;
    layers->candidates += s.candidates;
    layers->answers += static_cast<int64_t>(executed.value().matches.size());
    layers->node_accesses += s.node_accesses;
    layers->filter_scanned += s.filter_scanned;
    if (s.used_filter) {
      layers->filter_candidates += s.candidates;
    }
  }
}

template <typename F>
Span Timed(Recorded* rec, int parent, const char* name,
           Clock::time_point origin, F&& call) {
  Span span;
  span.request = rec->spans[0].request;
  span.id = static_cast<int>(rec->spans.size());
  span.parent = parent;
  span.name = name;
  span.replay = true;
  span.start_us = Us(origin, Clock::now());
  call();
  span.end_us = Us(origin, Clock::now());
  rec->spans.push_back(span);
  return span;
}

// Replays one wire request through the entry points in front of the
// engine -- DecodeExec, ParseQuery, the service call when `full`,
// EncodeResultPage -- each a replay span under the request's root.
// churn_mixed reads replay only codec and parse (`full` false).
void Replay(const Inputs& in, Recorded* rec, bool full, QueryService* live,
            QueryService* twin, simq::Session* twin_session,
            int64_t twin_statement, Clock::time_point origin, Tally* tally) {
  ++tally->attempted;
  if (rec->is_prepare) {
    Timed(rec, 0, "parse", origin,
          [&] { (void)simq::ParseQuery(in.prepare_text); });
    rec->parsed_bytes = in.prepare_text.size();
    return;
  }
  net::ExecRequest req;
  Status decoded = Status::Internal("not decoded");
  Timed(rec, 0, "server.decode", origin, [&] {
    decoded = net::DecodeExec(rec->payload.data(), rec->payload.size(), &req);
  });
  if (!decoded.ok()) {
    tally->Fail("replay could not decode a request");
    return;
  }
  if (!req.prepared) {
    simq::Result<Query> parsed = Status::Internal("not parsed");
    Timed(rec, 0, "parse", origin,
          [&] { parsed = simq::ParseQuery(req.text); });
    rec->parsed_bytes = req.text.size();
    if (!parsed.ok()) {
      tally->Fail("replay could not parse a request");
      return;
    }
    rec->query = std::move(parsed).value();
  } else {
    rec->query = BindSeries(in.prepared_query, req.series);
  }
  if (full) {
    simq::Result<ServiceResult> served = Status::Internal("not served");
    Timed(rec, 0, "service", origin, [&] {
      if (rec->hit) {
        served = live->Execute(rec->query);
      } else if (req.prepared) {
        simq::BindParams bind;
        bind.series = simq::SeriesRef();
        bind.series->literal = req.series;
        served = twin_session->ExecutePrepared(twin_statement, bind);
      } else {
        served = twin->Execute(rec->query);
      }
    });
    if (!served.ok() || served.value().plan.cache_hit != rec->hit ||
        !SameAnswers(served.value().result.matches, rec->page.matches)) {
      tally->Fail("service replay left the wire request's path");
    }
  }
  Timed(rec, 0, "server.encode", origin,
        [&] { (void)net::EncodeResultPage(rec->page); });
}

// Replays a cache-missing request, whose service call Replay replayed,
// through Database::Execute on the twin with the pool share `budget`, as a
// replay child of the service span. The engine replays of a phase run after
// all of its service replays: an engine replay holds a CPU outside the
// service's admission, so a service replay admitted beside it would get
// the whole pool, which its wire request did not have.
void ReplayEngine(Recorded* rec, int budget, QueryService* twin,
                  Clock::time_point origin, Tally* tally) {
  const auto service =
      std::find_if(rec->spans.begin(), rec->spans.end(), [](const Span& s) {
        return std::strcmp(s.name, "service") == 0;
      });
  if (rec->hit || service == rec->spans.end()) {
    return;
  }
  simq::Result<simq::QueryResult> executed = Status::Internal("not executed");
  Timed(rec, service->id, "engine", origin, [&] {
    simq::ThreadPool::ScopedParallelismBudget scoped(budget);
    executed = twin->database_unlocked().Execute(rec->query);
  });
  if (!executed.ok()) {
    tally->Fail("engine replay failed");
  }
}

// Folds one replayed request's spans into the layer figures. A timed read
// replayed through every layer (`full`) adds a ledger row, whose terms add
// up to its wire time by construction.
void Account(const Recorded& rec, bool full, Layers* layers) {
  LedgerRow row;
  bool parsed = false;
  bool engine = false;
  for (const Span& s : rec.spans) {
    const std::string name = s.name;
    if (name == "client.encode" || name == "client.decode" ||
        name == "server.decode" || name == "server.encode") {
      row.codec_us += s.duration_us();
    } else if (name == "parse") {
      row.parse_us = s.duration_us();
      parsed = true;
    } else if (name == "service") {
      row.service_us = s.duration_us();
    } else if (name == "engine") {
      row.engine_us = s.duration_us();
      engine = true;
    }
  }
  if (parsed) {
    layers->parse_us.push_back(row.parse_us);
    layers->parse_bytes.push_back(static_cast<double>(rec.parsed_bytes));
  }
  if (engine) {
    layers->engine_us.push_back(row.engine_us);
  }
  if (!rec.timed) {
    return;
  }
  layers->codec_us.push_back(row.codec_us);
  if (full) {
    row.wire_us = rec.spans[0].duration_us();
    row.net_self_us = RemainderUs(rec.spans[0], rec.spans);
    layers->ledger.push_back(row);
  }
}

void WriteSpans(const std::string& path, const std::vector<Recorded>& recs,
                const std::vector<Span>& writes) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto emit = [out](const Span& s, const char* stream) {
    std::fprintf(out,
                 "{\"stream\":\"%s\",\"request\":%lld,\"id\":%d,"
                 "\"parent\":%d,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"replay\":%s}\n",
                 stream, static_cast<long long>(s.request), s.id, s.parent,
                 s.name, s.start_us, s.end_us, s.replay ? "true" : "false");
  };
  for (const Recorded& rec : recs) {
    for (const Span& s : rec.spans) {
      emit(s, "read");
    }
  }
  for (const Span& s : writes) {
    emit(s, "write");
  }
  std::fclose(out);
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;
};

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Summarize(v).mean;
}

void Print(const Tally& tally,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit,
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  if (!tally.first_error.empty()) {
    std::printf("first failure: %s\n", tally.first_error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

std::string N(int64_t n) { return "n=" + std::to_string(n); }

std::string Short(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

double MedianOf(const std::vector<SetupTimes>& setups,
                double (*part)(const SetupTimes&)) {
  std::vector<double> values;
  for (const SetupTimes& s : setups) {
    values.push_back(part(s));
  }
  return Percentile(values, 50.0);
}

// Where a run's wall time goes, printed so its cost stays visible.
class Stages {
 public:
  void Mark(const char* name) {
    const Clock::time_point now = Clock::now();
    Add(name, Seconds(now - last_));
    last_ = now;
  }
  void Add(const char* name, double seconds) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%s%s=%.1fs",
                  text_.empty() ? "" : " ", name, seconds);
    text_ += buffer;
  }
  const std::string& text() const { return text_; }

 private:
  Clock::time_point last_ = Clock::now();
  std::string text_;
};

void PrintInputs(const Workload& w, const Inputs& in,
                 const std::vector<std::vector<Match>>& oracle) {
  int64_t answers = 0;
  for (const auto& answer : oracle) {
    answers += static_cast<int64_t>(answer.size());
  }
  std::printf("inputs: rows=%d length=%d probes=%d epsilon=%.17g",
              kRows, kLength, w.probes, in.epsilon);
  if (!oracle.empty()) {  // churn_mixed is checked after its writes
    std::printf(" mean_oracle_answers=%.2f",
                Ratio(static_cast<double>(answers),
                      static_cast<double>(oracle.size())));
  }
  std::printf("\n");
}

// --trace 0: the set-ups and the timed phase, with the writes beside it on
// churn_mixed; end-to-end metrics. The write figures are printed, not
// reported: they are per-layer metrics of the traced run.
std::vector<Metric> TimedRun(const Args& args, const Workload& w, Inputs* inputs,
    std::vector<std::vector<Match>>* answers, const std::string& wal_path,
    Clock::time_point origin, Stages* stages, Tally* tally) {
  Inputs& in = *inputs;
  std::vector<std::vector<Match>>& oracle = *answers;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;
  for (int s = 0; s < kSetups; ++s) {
    if (stack != nullptr) {
      Teardown(stack.get());
    }
    stack = SetUp(w, inputs, answers, s == 0, wal_path, false, origin);
    if (s == 0) {
      PrintInputs(w, in, oracle);
      stages->Add("calibrate+oracle", stack->inputs_s);
    }
    setups.push_back(stack->times);
    tally->Add(stack->setup);
  }
  stages->Mark("setups");
  PhaseResult phase = RunPhase(w, in, oracle, stack.get(), args.seconds,
                               false, origin);
  stages->Mark("timed");
  std::printf("host: steal %.2f%% of CPU time during the timed phase\n",
              100.0 * phase.steal);
  const bool wrote = w.writer_with_reads;
  if (wrote) {
    DrainFolds(stack->service.get());
    stages->Mark("drain");
    const Summary writes = Summarize(phase.writes.write_ms);
    std::printf("writes: n=%lld, due time to acknowledgement p50 %.4g ms, "
                "p99 %.4g ms\n",
                static_cast<long long>(writes.n), writes.p50, writes.p99);
  }
  // Before the check, whose fresh Database is the harness's, not the
  // program's.
  const double peak_rss_mb = PeakRssMb();
  if (wrote) {
    tally->Add(CheckAfterWrites(w, in, stack->service.get(), phase.writer));
  }
  Teardown(stack.get());
  stages->Mark("check");
  tally->Add(phase.tally);
  tally->Add(phase.writes.tally);
  const Summary& reads = phase.reads;
  const std::string timed = N(reads.n) + " timed reads";
  std::vector<double> totals;
  for (const SetupTimes& s : setups) {
    totals.push_back(s.total());
  }
  return {
      {"setup_s", Percentile(totals, 50.0), "s",
       N(static_cast<int64_t>(totals.size())) + " set-ups, median"},
      {"qps", phase.qps, "req/s", timed},
      {"p50_ms", reads.p50, "ms", timed},
      {"p99_ms", reads.p99, "ms", timed},
      {"peak_rss_mb", peak_rss_mb, "MB", "VmHWM after the timed phase"},
  };
}

// --trace 1: an untraced and a traced phase on fresh set-ups, the replays
// and the writes; per-layer metrics.
std::vector<Metric> TracedRun(const Args& args, const Workload& w, Inputs* inputs,
    std::vector<std::vector<Match>>* answers, const std::string& wal_path,
    Clock::time_point origin, Stages* stages, Tally* tally) {
  Inputs& in = *inputs;
  std::vector<std::vector<Match>>& oracle = *answers;
  const bool reads_only = !w.writer_with_reads;
  std::vector<SetupTimes> setups;
  // Untraced phase on its own set-up: the baseline of the overhead.
  std::unique_ptr<Stack> plain =
      SetUp(w, inputs, answers, true, wal_path, false, origin);
  PrintInputs(w, in, oracle);
  stages->Add("calibrate+oracle", plain->inputs_s);
  setups.push_back(plain->times);
  tally->Add(plain->setup);
  const PhaseResult untraced = RunPhase(w, in, oracle, plain.get(),
                                        args.seconds, false, origin);
  Teardown(plain.get());
  plain.reset();
  stages->Mark("untraced");
  tally->Add(untraced.tally);
  tally->Add(untraced.writes.tally);

  QueryService twin(LoadDatabase(in.rows));
  CompileArtifacts(w, in, twin.database_unlocked());

  std::unique_ptr<Stack> stack =
      SetUp(w, inputs, answers, false, wal_path, true, origin);
  setups.push_back(stack->times);
  tally->Add(stack->setup);
  PhaseResult phase =
      RunPhase(w, in, oracle, stack.get(), args.seconds, true, origin);
  stages->Mark("traced");
  // Replays run before the tail writes, while the live cache still holds
  // what the timed requests hit. Set-up requests ran one at a time on one
  // connection, so they replay alone; timed reads replay on one thread
  // per connection, concurrently as they ran, so admission hands each
  // service replay the pool share its wire request had.
  Tally replay_tally;
  {
    std::unique_ptr<simq::Session> session = twin.OpenSession();
    const int64_t statement =
        w.prepared ? session->Prepare(in.prepare_text).value() : 0;
    for (Recorded& rec : stack->setup_requests) {
      Replay(in, &rec, reads_only, stack->service.get(), &twin,
             session.get(), statement, origin, &replay_tally);
      ReplayEngine(&rec, kPoolThreads, &twin, origin, &replay_tally);
    }
  }
  std::vector<Tally> reader_tallies(kReaders);
  const auto per_reader = [&](const auto& replay) {
    std::vector<std::thread> replayers;
    for (int c = 0; c < kReaders; ++c) {
      replayers.emplace_back([&, c] {
        replay(&phase.recorded[static_cast<size_t>(c)],
               &reader_tallies[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : replayers) {
      t.join();
    }
  };
  per_reader([&](std::vector<Recorded>* recs, Tally* t) {
    std::unique_ptr<simq::Session> session = twin.OpenSession();
    const int64_t statement =
        w.prepared ? session->Prepare(in.prepare_text).value() : 0;
    for (Recorded& rec : *recs) {
      Replay(in, &rec, reads_only, stack->service.get(), &twin,
             session.get(), statement, origin, t);
    }
  });
  per_reader([&](std::vector<Recorded>* recs, Tally* t) {
    for (Recorded& rec : *recs) {
      ReplayEngine(&rec, kPoolThreads / kReaders, &twin, origin, t);
    }
  });
  Layers layers;
  for (const Recorded& rec : stack->setup_requests) {
    Account(rec, reads_only, &layers);
  }
  for (int c = 0; c < kReaders; ++c) {
    for (const Recorded& rec : phase.recorded[static_cast<size_t>(c)]) {
      Account(rec, reads_only, &layers);
    }
    replay_tally.Add(reader_tallies[static_cast<size_t>(c)]);
  }
  if (reads_only) {
    std::vector<Recorded*> all;
    for (Recorded& rec : stack->setup_requests) {
      all.push_back(&rec);
    }
    for (std::vector<Recorded>& recs : phase.recorded) {
      for (Recorded& rec : recs) {
        all.push_back(&rec);
      }
    }
    CountEngineWork(in, all, twin.database_unlocked(), &layers,
                    &replay_tally);
  }
  stages->Mark("replays");
  if (reads_only) {
    RunTail(in, stack.get(), true, origin, &phase);
  }
  DrainFolds(stack->service.get());
  stages->Mark("writes");
  const simq::ServiceStats drained = stack->service->stats();
  const simq::obs::Histogram::Snapshot folds =
      stack->service->metrics_registry()
          ->GetHistogram("simq_recompaction_duration_ms")
          ->snapshot();
  const Tally check =
      CheckAfterWrites(w, in, stack->service.get(), phase.writer);
  Teardown(stack.get());
  stages->Mark("check");
  tally->Add(phase.tally);
  tally->Add(phase.writes.tally);
  tally->Add(check);
  tally->Add(replay_tally);
  if (!args.spans_out.empty()) {
    std::vector<Recorded> all = std::move(stack->setup_requests);
    for (std::vector<Recorded>& recs : phase.recorded) {
      for (Recorded& rec : recs) {
        all.push_back(std::move(rec));
      }
    }
    WriteSpans(args.spans_out, all, phase.writes.spans);
  }

  const auto delta = [&](int64_t simq::ServiceStats::*field) {
    return static_cast<double>(phase.after.*field - phase.before.*field);
  };
  const double hits = static_cast<double>(phase.after.cache.hits -
                                          phase.before.cache.hits);
  const double misses = static_cast<double>(phase.after.cache.misses -
                                            phase.before.cache.misses);
  const double bytes = static_cast<double>(
      (phase.server_after.bytes_in - phase.server_before.bytes_in) +
      (phase.server_after.bytes_out - phase.server_before.bytes_out));
  const Summary writes = Summarize(phase.writes.write_ms);
  const Summary call = Summarize(phase.writes.call_us);
  const double mutations = static_cast<double>(call.n);
  const auto engine_n = static_cast<double>(layers.counted);
  const std::string engine_note =
      N(static_cast<int64_t>(layers.engine_us.size())) +
      (w.cache_fill ? " set-up cache fills (timed reads all hit)"
                    : " cache-missing reads");
  const double traced_p50 = phase.reads.p50;
  const double plain_p50 = untraced.reads.p50;
  // The ledger over the timed reads replayed through every layer; each
  // row adds up to its wire time by construction.
  LedgerRow mean;
  for (const LedgerRow& row : layers.ledger) {
    mean.wire_us += row.wire_us;
    mean.net_self_us += row.net_self_us;
    mean.codec_us += row.codec_us;
    mean.parse_us += row.parse_us;
    mean.service_us += row.service_us;
    mean.engine_us += row.engine_us;
  }
  const auto rows = static_cast<double>(layers.ledger.size());
  for (double* term : {&mean.wire_us, &mean.net_self_us, &mean.codec_us,
                       &mean.parse_us, &mean.service_us, &mean.engine_us}) {
    *term = Ratio(*term, rows);
  }
  const std::string ledger_note =
      reads_only ? N(static_cast<int64_t>(rows)) + " replayed timed reads"
                 : "reads not replayed on churn_mixed";
  const std::vector<Metric> metrics = {
      {"net.self_us", mean.net_self_us, "us", ledger_note},
      {"net.codec_us", Mean(layers.codec_us), "us",
       N(static_cast<int64_t>(layers.codec_us.size()))},
      {"net.bytes_per_req",
       Ratio(bytes, static_cast<double>(phase.reads.n)), "B",
       N(phase.reads.n)},
      {"parse.us", Mean(layers.parse_us), "us",
       N(static_cast<int64_t>(layers.parse_us.size())) +
           (w.prepared ? " Prepare texts (timed reads are prepared)" : "")},
      {"parse.bytes", Mean(layers.parse_bytes), "B",
       N(static_cast<int64_t>(layers.parse_bytes.size()))},
      {"service.us", mean.service_us, "us", ledger_note},
      {"service.self_us", mean.service_us - mean.engine_us, "us",
       ledger_note},
      {"service.cache_hit_ratio", Ratio(hits, hits + misses), "ratio",
       N(static_cast<int64_t>(hits + misses)) + " timed lookups"},
      {"service.admission_waits",
       delta(&simq::ServiceStats::admission_waits), "count", "timed phase"},
      {"engine.us", Mean(layers.engine_us), "us",
       reads_only ? engine_note : ledger_note},
      {"engine.exact_checks",
       Ratio(static_cast<double>(layers.exact_checks), engine_n), "count",
       "per request"},
      {"engine.candidates",
       Ratio(static_cast<double>(layers.candidates), engine_n), "count",
       "per request"},
      {"engine.answers", Ratio(static_cast<double>(layers.answers), engine_n),
       "count", "per request"},
      {"engine.useful_ratio",
       Ratio(static_cast<double>(layers.answers),
             static_cast<double>(layers.exact_checks)),
       "ratio", "answers / exact checks"},
      {"index.node_accesses",
       Ratio(static_cast<double>(layers.node_accesses), engine_n), "count",
       "per request"},
      {"filter.scanned",
       Ratio(static_cast<double>(layers.filter_scanned), engine_n), "count",
       "per request"},
      {"filter.survivor_ratio",
       Ratio(static_cast<double>(layers.filter_candidates),
             static_cast<double>(layers.filter_scanned)),
       "ratio", "candidates / scanned"},
      {"write.p50_ms", writes.p50, "ms",
       N(writes.n) + (reads_only ? " writes after the readers stopped"
                                 : " writes beside the readers") +
           ", due time to acknowledgement"},
      {"write.p99_ms", writes.p99, "ms", N(writes.n)},
      {"write.call_p50_us", call.p50, "us", N(call.n)},
      {"write.call_p99_us", call.p99, "us", N(call.n)},
      {"write.late_ms", Mean(phase.writes.late_ms), "ms", "mean"},
      {"recompact.count",
       static_cast<double>(drained.recompactions - phase.before.recompactions),
       "count", "folds during the writes"},
      {"recompact.ms", Ratio(folds.sum_ms, static_cast<double>(folds.count)),
       "ms", N(folds.count) + " folds, mean"},
      {"delta.rows", Mean(phase.writes.delta_rows), "count",
       "mean after each write"},
      {"wal.appends_per_write",
       Ratio(static_cast<double>(drained.wal_appends -
                                 phase.before.wal_appends),
             mutations),
       "ratio", N(call.n)},
      {"setup.load_s",
       MedianOf(setups, [](const SetupTimes& s) { return s.load_s; }), "s",
       N(static_cast<int64_t>(setups.size()))},
      {"setup.compile_s",
       MedianOf(setups, [](const SetupTimes& s) { return s.compile_s; }),
       "s", N(static_cast<int64_t>(setups.size()))},
      {"setup.serve_s",
       MedianOf(setups, [](const SetupTimes& s) { return s.serve_s; }), "s",
       N(static_cast<int64_t>(setups.size()))},
      {"trace.overhead_ms", traced_p50 - plain_p50, "ms",
       "traced p50 " + Short(traced_p50) + " - untraced p50 " +
           Short(plain_p50)},
  };
  if (reads_only) {
    std::printf(
        "ledger, mean us per replayed timed read: wire %.2f = net.self "
        "%.2f + codec %.2f + parse %.2f + service.self %.2f + engine %.2f; "
        "the terms come from the harness's own spans and add up by "
        "construction, checking them against spans inside the program "
        "is left for later\n",
        mean.wire_us, mean.net_self_us, mean.codec_us, mean.parse_us,
        mean.service_us - mean.engine_us, mean.engine_us);
  }
  return metrics;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const Clock::time_point origin = Clock::now();
  g_cpus = AllowedCpus();
  const int nproc = static_cast<int>(g_cpus.size());
  const auto cpu_list = [](const auto& indices) {
    std::string text;
    for (int index : indices) {
      if (index < static_cast<int>(g_cpus.size())) {
        text += (text.empty() ? "" : ",") +
                std::to_string(g_cpus[static_cast<size_t>(index)]);
      }
    }
    return text;
  };
  std::printf(
      "settings: workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
      "cpu_budget=%d wire_cpus=%s exec_cpus=%s write_cpus=%s "
      "SIMQ_THREADS=%d shards=%d exec_threads=%d "
      "connections=%d in_flight=%d result_cache_capacity=%zu "
      "writer_rate=%g/s writes=%s wal_dir=%s sync_wal=%d\n",
      w.name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, nproc, kCpus, cpu_list(kWireCpus).c_str(),
      cpu_list(kExecCpus).c_str(), cpu_list(kWriteCpus).c_str(),
      kPoolThreads, kShards, kExecThreads, kReaders, kInFlight,
      simq::ServiceOptions().result_cache_capacity, kWriterRate,
      w.writer_with_reads ? "beside_reads"
      : args.trace        ? "after_reads"
                          : "none",
      args.work_dir.c_str(), kSyncWal ? 1 : 0);
  if (nproc < kCpus) {
    std::fprintf(stderr,
                 "refusing to run: nproc=%d is below the CPU budget %d\n",
                 nproc, kCpus);
    return 3;
  }
  // Before anything starts a thread of the program.
  PinTo(kExecCpus);
  const IdleSpinners spinners;
  if (simq::ThreadPool::Global().num_threads() != kPoolThreads) {
    std::fprintf(stderr, "thread pool did not take SIMQ_THREADS=%d\n",
                 kPoolThreads);
    return 3;
  }

  // Inputs and oracle: not part of any timed figure.
  Stages stages;
  Inputs in = MakeInputs(w, args.seed);
  stages.Mark("generate");
  std::vector<std::vector<Match>> oracle;
  ::mkdir(args.work_dir.c_str(), 0755);
  const std::string wal_path = args.work_dir + "/wal";
  Tally tally;
  const std::vector<Metric> metrics =
      args.trace ? TracedRun(args, w, &in, &oracle, wal_path, origin,
                             &stages, &tally)
                 : TimedRun(args, w, &in, &oracle, wal_path, origin, &stages,
                            &tally);

  std::printf("harness: %s total=%.1fs\n", stages.text().c_str(),
              Seconds(Clock::now() - origin));
  Print(tally, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args->workload = &w;
        }
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args->seconds > 0.0 &&
                     args->seconds <= 60.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return args->workload != nullptr && have_seed && have_seconds &&
         have_trace && !args->work_dir.empty() && argc % 2 == 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  // Pinned before anything touches the thread pool or the sharding options.
  ::setenv("SIMQ_THREADS", "2", 1);
  ::unsetenv("SIMQ_SHARDS");
  ::unsetenv("SIMQ_FAILPOINTS");
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simq_perfbench --workload "
                 "range_miss_wire|range_hot_wire|knn_filtered_wire|churn_mixed"
                 " --seed N --seconds S --trace 0|1 --work-dir DIR"
                 " [--spans-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
