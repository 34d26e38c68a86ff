// SIMQNET1 robustness: payload codecs, frame CRC coverage, the two-tier
// validation contract (framing errors close, semantic errors answer),
// protocol fuzzing with hostile bytes, pipelining with mixed valid and
// poison frames, overload shedding, cancellation, deadlines, cursors,
// idle timeouts, backpressure liveness, graceful goodbye -- and the
// crash schedule: SIGKILL the server at a socket-write boundary, observe
// a clean client-side error, and recover the WAL on restart.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/wal.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/query_service.h"
#include "util/failpoint.h"
#include "workload/generators.h"

namespace simq {
namespace {

// Pin the global pool width before anything instantiates it: the crash
// schedule forks, and forking a process that holds live pool threads can
// deadlock the child in malloc. With SIMQ_THREADS=1 the pool runs inline;
// the server still exercises real concurrency through its own executor
// threads, which are created after the fork.
const bool kSingleThreadPinned = [] {
  ::setenv("SIMQ_THREADS", "1", 1);
  return true;
}();

Database MakeDatabase(int count, int length = 32, uint64_t seed = 7) {
  Database db;
  EXPECT_TRUE(db.CreateRelation("r").ok());
  EXPECT_TRUE(
      db.BulkLoad("r", workload::RandomWalkSeries(count, length, seed)).ok());
  return db;
}

// A query that burns real exact-kernel time while matching almost nothing
// (same idiom as service_lifecycle_test).
const char* kSlowQuery = "PAIRS r WITHIN 0.001 VIA SCAN MODE EXACT";

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// In-process server: a QueryService over a random-walk relation plus a
// NetServer run on its own thread. The destructor drains and joins.
struct TestServer {
  explicit TestServer(net::NetServerOptions options = {}, int count = 64,
                      int length = 32)
      : service(MakeDatabase(count, length)),
        server(std::make_unique<net::NetServer>(&service, options)) {
    start_status = server->Start();
    EXPECT_TRUE(start_status.ok()) << start_status.ToString();
    if (start_status.ok()) {
      loop = std::thread([this] { server->Run(); });
    }
  }
  ~TestServer() {
    if (loop.joinable()) {
      server->Shutdown();
      loop.join();
    }
  }
  uint16_t port() const { return server->port(); }

  QueryService service;
  std::unique_ptr<net::NetServer> server;
  Status start_status;
  std::thread loop;
};

net::NetClient::Options ClientOptions(bool handshake = true,
                                      double timeout_ms = 10000.0) {
  net::NetClient::Options options;
  options.io_timeout_ms = timeout_ms;
  options.handshake = handshake;
  return options;
}

QueryResult Oracle(QueryService* service, const std::string& text) {
  Result<ServiceResult> result = service->ExecuteText(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value().result : QueryResult{};
}

// Bit-identical answers: the wire carries exactly the doubles the engine
// produced, so EXPECT_EQ on distances is the contract, not a tolerance.
void ExpectSameAnswer(const QueryResult& wire, const QueryResult& oracle) {
  ASSERT_EQ(wire.matches.size(), oracle.matches.size());
  for (size_t i = 0; i < wire.matches.size(); ++i) {
    EXPECT_EQ(wire.matches[i].id, oracle.matches[i].id);
    EXPECT_EQ(wire.matches[i].name, oracle.matches[i].name);
    EXPECT_EQ(wire.matches[i].distance, oracle.matches[i].distance);
  }
  ASSERT_EQ(wire.pairs.size(), oracle.pairs.size());
  for (size_t i = 0; i < wire.pairs.size(); ++i) {
    EXPECT_EQ(wire.pairs[i].first, oracle.pairs[i].first);
    EXPECT_EQ(wire.pairs[i].second, oracle.pairs[i].second);
    EXPECT_EQ(wire.pairs[i].distance, oracle.pairs[i].distance);
  }
}

std::vector<uint8_t> ExecFrame(uint32_t request_id, const std::string& text,
                               uint32_t page_rows = 0,
                               double deadline_ms = 0.0) {
  net::ExecRequest request;
  request.text = text;
  request.page_rows = page_rows;
  request.deadline_ms = deadline_ms;
  return net::BuildFrame(net::Opcode::kExec, request_id,
                         net::EncodeExec(request));
}

struct Frame {
  net::FrameHeader header;
  std::vector<uint8_t> payload;
};

bool ReadFrames(net::NetClient* client, size_t n, std::vector<Frame>* out) {
  for (size_t i = 0; i < n; ++i) {
    Frame frame;
    const Status read = client->ReadFrame(&frame.header, &frame.payload);
    if (!read.ok()) {
      ADD_FAILURE() << "frame " << i << " of " << n << ": "
                    << read.ToString();
      return false;
    }
    out->push_back(std::move(frame));
  }
  return true;
}

net::ResultPage PageOf(const Frame& frame) {
  EXPECT_EQ(frame.header.opcode,
            static_cast<uint8_t>(net::Opcode::kResult));
  net::ResultPage page;
  EXPECT_TRUE(net::DecodeResultPage(frame.payload.data(),
                                    frame.payload.size(), &page)
                  .ok());
  return page;
}

uint16_t ErrorCodeOf(const Frame& frame) {
  EXPECT_EQ(frame.header.opcode, static_cast<uint8_t>(net::Opcode::kError));
  net::ErrorInfo error;
  EXPECT_TRUE(
      net::DecodeError(frame.payload.data(), frame.payload.size(), &error)
          .ok());
  return error.code;
}

constexpr uint16_t Code(StatusCode code) {
  return static_cast<uint16_t>(code);
}

// Reads until the server closes the connection; returns the final
// (non-OK) read status. Frames seen along the way land in `*frames`.
Status DrainUntilClose(net::NetClient* client, std::vector<Frame>* frames,
                       int max_frames = 16) {
  for (int i = 0; i < max_frames; ++i) {
    Frame frame;
    const Status read = client->ReadFrame(&frame.header, &frame.payload);
    if (!read.ok()) return read;
    if (frames != nullptr) frames->push_back(std::move(frame));
  }
  return Status::Internal("server kept talking past the frame cap");
}

// The liveness probe every hostile-input test ends with: a fresh
// connection must still complete a handshake and answer correctly.
void ExpectServerStillAnswers(TestServer* fixture) {
  const std::string text = "NEAREST 5 r TO #walk0";
  net::NetClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", fixture->port(), ClientOptions())
                  .ok());
  net::ExecRequest request;
  request.text = text;
  Result<QueryResult> answer = probe.ExecAll(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectSameAnswer(answer.value(), Oracle(&fixture->service, text));
}

// --- codecs -------------------------------------------------------------

TEST(NetProtocolTest, CodecsRoundTripEveryPayload) {
  net::HelloRequest hello;
  hello.min_version = 3;
  hello.max_version = 9;
  net::HelloRequest hello2;
  const std::vector<uint8_t> hello_bytes = net::EncodeHello(hello);
  ASSERT_TRUE(
      net::DecodeHello(hello_bytes.data(), hello_bytes.size(), &hello2).ok());
  EXPECT_EQ(hello2.min_version, 3);
  EXPECT_EQ(hello2.max_version, 9);

  net::HelloAck ack;
  ack.version = 1;
  ack.max_payload = 12345;
  ack.default_page_rows = 77;
  net::HelloAck ack2;
  const std::vector<uint8_t> ack_bytes = net::EncodeHelloAck(ack);
  ASSERT_TRUE(
      net::DecodeHelloAck(ack_bytes.data(), ack_bytes.size(), &ack2).ok());
  EXPECT_EQ(ack2.version, 1);
  EXPECT_EQ(ack2.max_payload, 12345u);
  EXPECT_EQ(ack2.default_page_rows, 77u);

  net::ExecRequest exec;
  exec.prepared = true;
  exec.statement_id = 0xDEADBEEFCAFEull;
  exec.deadline_ms = 12.5;
  exec.page_rows = 256;
  exec.epsilon = 0.25;
  exec.k = 7;
  exec.has_series = true;
  exec.series = {1.0, -2.5, 3.75};
  net::ExecRequest exec2;
  const std::vector<uint8_t> exec_bytes = net::EncodeExec(exec);
  ASSERT_TRUE(
      net::DecodeExec(exec_bytes.data(), exec_bytes.size(), &exec2).ok());
  EXPECT_TRUE(exec2.prepared);
  EXPECT_EQ(exec2.statement_id, exec.statement_id);
  EXPECT_EQ(exec2.deadline_ms, 12.5);
  EXPECT_EQ(exec2.page_rows, 256u);
  ASSERT_TRUE(exec2.epsilon.has_value());
  EXPECT_EQ(*exec2.epsilon, 0.25);
  ASSERT_TRUE(exec2.k.has_value());
  EXPECT_EQ(*exec2.k, 7);
  ASSERT_TRUE(exec2.has_series);
  EXPECT_EQ(exec2.series, exec.series);

  net::ExecRequest text_exec;
  text_exec.text = "NEAREST 10 r TO #walk0";
  net::ExecRequest text_exec2;
  const std::vector<uint8_t> text_bytes = net::EncodeExec(text_exec);
  ASSERT_TRUE(
      net::DecodeExec(text_bytes.data(), text_bytes.size(), &text_exec2)
          .ok());
  EXPECT_FALSE(text_exec2.prepared);
  EXPECT_EQ(text_exec2.text, text_exec.text);
  EXPECT_FALSE(text_exec2.epsilon.has_value());
  EXPECT_FALSE(text_exec2.k.has_value());
  EXPECT_FALSE(text_exec2.has_series);

  // A page carries one row kind, selected by `kind`.
  net::ResultPage match_page;
  match_page.kind = 0;
  match_page.has_more = true;
  match_page.cursor_id = 42;
  match_page.total_rows = 1000;
  match_page.matches.push_back(Match{5, "walk5", 1.25});
  net::ResultPage match_page2;
  const std::vector<uint8_t> match_bytes =
      net::EncodeResultPage(match_page);
  ASSERT_TRUE(
      net::DecodeResultPage(match_bytes.data(), match_bytes.size(),
                            &match_page2)
          .ok());
  EXPECT_EQ(match_page2.kind, 0);
  EXPECT_TRUE(match_page2.has_more);
  EXPECT_EQ(match_page2.cursor_id, 42u);
  EXPECT_EQ(match_page2.total_rows, 1000u);
  ASSERT_EQ(match_page2.matches.size(), 1u);
  EXPECT_EQ(match_page2.matches[0].id, 5);
  EXPECT_EQ(match_page2.matches[0].name, "walk5");
  EXPECT_EQ(match_page2.matches[0].distance, 1.25);

  net::ResultPage pair_page;
  pair_page.kind = 1;
  pair_page.total_rows = 1;
  pair_page.pairs.push_back(PairMatch{3, 9, 0.5});
  net::ResultPage pair_page2;
  const std::vector<uint8_t> pair_bytes = net::EncodeResultPage(pair_page);
  ASSERT_TRUE(
      net::DecodeResultPage(pair_bytes.data(), pair_bytes.size(),
                            &pair_page2)
          .ok());
  EXPECT_EQ(pair_page2.kind, 1);
  EXPECT_FALSE(pair_page2.has_more);
  ASSERT_EQ(pair_page2.pairs.size(), 1u);
  EXPECT_EQ(pair_page2.pairs[0].first, 3);
  EXPECT_EQ(pair_page2.pairs[0].second, 9);
  EXPECT_EQ(pair_page2.pairs[0].distance, 0.5);

  net::WireStats stats;
  stats.queries = 1;
  stats.mutations = 2;
  stats.timeouts = 3;
  stats.cancellations = 4;
  stats.overloaded = 5;
  stats.cache_hits = 6;
  stats.cache_misses = 7;
  stats.latency_p50_ms = 0.5;
  stats.latency_p95_ms = 9.5;
  stats.latency_p99_ms = 99.5;
  stats.connections_accepted = 8;
  stats.connections_active = 9;
  stats.connections_shed = 10;
  stats.connections_timed_out = 11;
  stats.requests_shed = 12;
  stats.bytes_in = 13;
  stats.bytes_out = 14;
  net::WireStats stats2;
  const std::vector<uint8_t> stats_bytes = net::EncodeStats(stats);
  ASSERT_TRUE(
      net::DecodeStats(stats_bytes.data(), stats_bytes.size(), &stats2).ok());
  EXPECT_EQ(stats2.queries, 1u);
  EXPECT_EQ(stats2.latency_p99_ms, 99.5);
  EXPECT_EQ(stats2.connections_timed_out, 11u);
  EXPECT_EQ(stats2.requests_shed, 12u);
  EXPECT_EQ(stats2.bytes_out, 14u);

  net::ErrorInfo error;
  error.code = Code(StatusCode::kOverloaded);
  error.message = "queue full";
  net::ErrorInfo error2;
  const std::vector<uint8_t> error_bytes = net::EncodeError(error);
  ASSERT_TRUE(
      net::DecodeError(error_bytes.data(), error_bytes.size(), &error2).ok());
  EXPECT_EQ(error2.code, Code(StatusCode::kOverloaded));
  EXPECT_EQ(error2.message, "queue full");
  const Status round = net::StatusFromWire(error2);
  EXPECT_EQ(round.code(), StatusCode::kOverloaded);

  net::FetchRequest fetch;
  fetch.cursor_id = 77;
  fetch.page_rows = 11;
  net::FetchRequest fetch2;
  const std::vector<uint8_t> fetch_bytes = net::EncodeFetch(fetch);
  ASSERT_TRUE(
      net::DecodeFetch(fetch_bytes.data(), fetch_bytes.size(), &fetch2).ok());
  EXPECT_EQ(fetch2.cursor_id, 77u);
  EXPECT_EQ(fetch2.page_rows, 11u);
}

TEST(NetProtocolTest, CodecsRejectTruncationAndTrailingGarbage) {
  net::ExecRequest exec;
  exec.text = "NEAREST 10 r TO #walk0";
  exec.epsilon = 1.5;
  exec.has_series = true;
  exec.series = {1.0, 2.0};
  const std::vector<uint8_t> bytes = net::EncodeExec(exec);
  net::ExecRequest out;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(net::DecodeExec(bytes.data(), len, &out).ok())
        << "prefix of " << len << " bytes decoded";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(net::DecodeExec(padded.data(), padded.size(), &out).ok());
}

TEST(NetProtocolTest, HeaderValidationAndCrcCoverEveryDispatchByte) {
  const std::vector<uint8_t> frame =
      ExecFrame(9, "RANGE r WITHIN 1.0 OF #walk0");
  net::FrameHeader header;
  ASSERT_EQ(net::ParseHeader(frame.data(), frame.size(),
                             net::kDefaultMaxPayload, &header),
            net::HeaderStatus::kOk);
  EXPECT_TRUE(net::CrcMatches(header, frame.data() + net::kHeaderSize));
  EXPECT_EQ(header.request_id, 9u);
  EXPECT_EQ(header.opcode, static_cast<uint8_t>(net::Opcode::kExec));

  // Too few bytes for a header.
  EXPECT_EQ(net::ParseHeader(frame.data(), net::kHeaderSize - 1,
                             net::kDefaultMaxPayload, &header),
            net::HeaderStatus::kNeedMore);

  // Flipping any byte past the magic/length prefix must be caught by the
  // structural checks or the CRC -- including a flip of the CRC itself.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bent = frame;
    bent[i] ^= 0xFF;
    net::FrameHeader h;
    const net::HeaderStatus hs = net::ParseHeader(
        bent.data(), bent.size(), net::kDefaultMaxPayload, &h);
    if (hs == net::HeaderStatus::kOk &&
        bent.size() >= net::kHeaderSize + h.payload_len) {
      EXPECT_FALSE(net::CrcMatches(h, bent.data() + net::kHeaderSize))
          << "flip at byte " << i << " slipped through";
    } else {
      EXPECT_NE(hs, net::HeaderStatus::kNeedMore)
          << "flip at byte " << i << " stalled the parser";
    }
  }
}

// --- handshake discipline ----------------------------------------------

TEST(NetProtocolTest, HandshakeNegotiatesAndServesQueries) {
  TestServer fixture;
  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  EXPECT_EQ(client.server_hello().version, net::kVersionMax);
  EXPECT_EQ(client.server_hello().max_payload, net::kDefaultMaxPayload);
  EXPECT_GT(client.server_hello().default_page_rows, 0u);

  const std::string text = "NEAREST 10 r TO #walk0";
  net::ExecRequest request;
  request.text = text;
  Result<QueryResult> answer = client.ExecAll(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectSameAnswer(answer.value(), Oracle(&fixture.service, text));
}

TEST(NetProtocolTest, NonFiniteQueryNumbersAreTypedErrorsNotCrashes) {
  // A NaN epsilon used to reach a check in the search region that aborts
  // the process, ending the server for every client. It is now an
  // InvalidArgument for that request alone, as is a NaN in a series
  // bound in binary, and the same connection goes on serving.
  TestServer fixture;
  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  net::ExecRequest request;
  request.text = "RANGE r WITHIN -nan OF #walk0";
  const Result<QueryResult> rejected = client.ExecAll(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();

  const Result<uint64_t> prepared = client.Prepare("NEAREST 3 r TO #walk0");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  net::ExecRequest bound;
  bound.prepared = true;
  bound.statement_id = prepared.value();
  bound.has_series = true;
  bound.series.assign(32, 1.0);
  bound.series[9] = std::numeric_limits<double>::quiet_NaN();
  const Result<QueryResult> bound_rejected = client.ExecAll(bound);
  ASSERT_FALSE(bound_rejected.ok());
  EXPECT_EQ(bound_rejected.status().code(), StatusCode::kInvalidArgument)
      << bound_rejected.status().ToString();
  // Finite values whose mean overflows are rejected the same way.
  for (size_t i = 0; i < bound.series.size(); ++i) {
    bound.series[i] = 1.7e308 - static_cast<double>(i) * 1e300;
  }
  const Result<QueryResult> overflow_rejected = client.ExecAll(bound);
  ASSERT_FALSE(overflow_rejected.ok());
  EXPECT_EQ(overflow_rejected.status().code(), StatusCode::kInvalidArgument)
      << overflow_rejected.status().ToString();

  const std::string text = "NEAREST 10 r TO #walk0";
  request.text = text;
  const Result<QueryResult> answer = client.ExecAll(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectSameAnswer(answer.value(), Oracle(&fixture.service, text));
}

TEST(NetProtocolTest, NoVersionOverlapIsRefusedThenClosed) {
  TestServer fixture;
  net::NetClient raw;
  ASSERT_TRUE(raw.Connect("127.0.0.1", fixture.port(),
                          ClientOptions(/*handshake=*/false))
                  .ok());
  net::HelloRequest hello;
  hello.min_version = 7;
  hello.max_version = 9;
  ASSERT_TRUE(raw.SendFrame(net::Opcode::kHello, 1, net::EncodeHello(hello))
                  .ok());
  std::vector<Frame> frames;
  ASSERT_TRUE(ReadFrames(&raw, 1, &frames));
  EXPECT_EQ(ErrorCodeOf(frames[0]), Code(StatusCode::kInvalidArgument));
  std::vector<Frame> rest;
  EXPECT_EQ(DrainUntilClose(&raw, &rest).code(), StatusCode::kIoError);
  EXPECT_TRUE(rest.empty());
  ExpectServerStillAnswers(&fixture);
}

TEST(NetProtocolTest, FirstFrameMustBeHello) {
  TestServer fixture;
  net::NetClient raw;
  ASSERT_TRUE(raw.Connect("127.0.0.1", fixture.port(),
                          ClientOptions(/*handshake=*/false))
                  .ok());
  const std::vector<uint8_t> exec = ExecFrame(1, "NEAREST 5 r TO #walk0");
  ASSERT_TRUE(raw.SendRaw(exec.data(), exec.size()).ok());
  std::vector<Frame> frames;
  ASSERT_TRUE(ReadFrames(&raw, 1, &frames));
  EXPECT_EQ(frames[0].header.request_id, 1u);
  EXPECT_EQ(ErrorCodeOf(frames[0]), Code(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(DrainUntilClose(&raw, nullptr).ok());
  ExpectServerStillAnswers(&fixture);
}

// --- two-tier validation ------------------------------------------------

TEST(NetProtocolTest, UnknownOpcodeIsSemanticNotFatal) {
  TestServer fixture;
  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  // A well-framed frame with a nonsense opcode, then a server-only one:
  // both draw typed errors, neither kills the connection.
  for (const uint8_t opcode :
       {static_cast<uint8_t>(0x63),
        static_cast<uint8_t>(net::Opcode::kHelloAck)}) {
    const uint32_t rid = client.NextRequestId();
    ASSERT_TRUE(
        client.SendFrame(static_cast<net::Opcode>(opcode), rid, {}).ok());
    std::vector<Frame> frames;
    ASSERT_TRUE(ReadFrames(&client, 1, &frames));
    EXPECT_EQ(frames[0].header.request_id, rid);
    EXPECT_EQ(ErrorCodeOf(frames[0]), Code(StatusCode::kUnimplemented));
  }
  // The connection still works.
  const std::string text = "NEAREST 5 r TO #walk0";
  net::ExecRequest request;
  request.text = text;
  Result<QueryResult> answer = client.ExecAll(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectSameAnswer(answer.value(), Oracle(&fixture.service, text));
}

TEST(NetProtocolTest, MalformedPayloadIsSemanticNotFatal) {
  TestServer fixture;
  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  // Zero-length and garbage kExec payloads fail to decode; the error is
  // typed and scoped to the request.
  const std::vector<std::vector<uint8_t>> payloads = {
      {}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}};
  for (const std::vector<uint8_t>& payload : payloads) {
    const uint32_t rid = client.NextRequestId();
    ASSERT_TRUE(client.SendFrame(net::Opcode::kExec, rid, payload).ok());
    std::vector<Frame> frames;
    ASSERT_TRUE(ReadFrames(&client, 1, &frames));
    EXPECT_EQ(frames[0].header.request_id, rid);
    EXPECT_EQ(frames[0].header.opcode,
              static_cast<uint8_t>(net::Opcode::kError));
    EXPECT_NE(ErrorCodeOf(frames[0]), 0);
  }
  // A zero-length payload where that is the legal encoding still works.
  const uint32_t rid = client.NextRequestId();
  ASSERT_TRUE(client.SendFrame(net::Opcode::kStats, rid, {}).ok());
  std::vector<Frame> frames;
  ASSERT_TRUE(ReadFrames(&client, 1, &frames));
  EXPECT_EQ(frames[0].header.opcode,
            static_cast<uint8_t>(net::Opcode::kStatsAck));
  ExpectServerStillAnswers(&fixture);
}

TEST(NetProtocolTest, FramingErrorsAnswerValidWorkThenClose) {
  TestServer fixture;
  const std::string text = "NEAREST 10 r TO #walk0";
  const QueryResult oracle = Oracle(&fixture.service, text);

  // Each poison is a differently-broken frame; each is pipelined behind a
  // valid exec on the same connection. The contract: the valid query is
  // answered correctly, then one kError(kCorruption) with request id 0,
  // then the connection closes.
  std::vector<std::vector<uint8_t>> poisons;
  {
    std::vector<uint8_t> bad_magic = ExecFrame(2, text);
    bad_magic[0] ^= 0xFF;
    poisons.push_back(std::move(bad_magic));

    std::vector<uint8_t> bad_crc = ExecFrame(2, text);
    bad_crc[net::kHeaderSize + 3] ^= 0x01;  // payload flip
    poisons.push_back(std::move(bad_crc));

    std::vector<uint8_t> bad_reserved = ExecFrame(2, text);
    bad_reserved[9] = 0x80;  // nonzero flags
    poisons.push_back(std::move(bad_reserved));

    // Oversized declared length (max_payload + 1), header-only.
    std::vector<uint8_t> oversized(net::kHeaderSize, 0);
    oversized[0] = 'S';
    oversized[1] = 'Q';
    oversized[2] = 'N';
    oversized[3] = '1';
    const uint32_t huge = net::kDefaultMaxPayload + 1;
    std::memcpy(oversized.data() + 4, &huge, sizeof(huge));
    oversized[8] = static_cast<uint8_t>(net::Opcode::kExec);
    poisons.push_back(std::move(oversized));
  }

  for (size_t i = 0; i < poisons.size(); ++i) {
    SCOPED_TRACE("poison " + std::to_string(i));
    net::NetClient client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
    std::vector<uint8_t> wire = ExecFrame(1, text);
    wire.insert(wire.end(), poisons[i].begin(), poisons[i].end());
    ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());

    std::vector<Frame> frames;
    ASSERT_TRUE(ReadFrames(&client, 2, &frames));
    EXPECT_EQ(frames[0].header.request_id, 1u);
    ExpectSameAnswer(QueryResult{PageOf(frames[0]).matches,
                                 PageOf(frames[0]).pairs,
                                 {}},
                     oracle);
    EXPECT_EQ(frames[1].header.request_id, 0u);
    EXPECT_EQ(ErrorCodeOf(frames[1]), Code(StatusCode::kCorruption));
    EXPECT_EQ(DrainUntilClose(&client, nullptr).code(),
              StatusCode::kIoError);
  }
  EXPECT_GE(fixture.server->stats().protocol_errors,
            static_cast<int64_t>(poisons.size()));
  ExpectServerStillAnswers(&fixture);
}

TEST(NetProtocolTest, MidFrameDisconnectsNeverWedgeTheServer) {
  TestServer fixture;
  const std::vector<uint8_t> frame = ExecFrame(1, "NEAREST 5 r TO #walk0");
  // Cut points: inside the header, at the header boundary, inside the
  // payload -- plus an immediate close with no bytes at all.
  const size_t cuts[] = {0, 7, net::kHeaderSize, frame.size() - 3};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    net::NetClient client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
    if (cut > 0) {
      ASSERT_TRUE(client.SendRaw(frame.data(), cut).ok());
    }
    ASSERT_TRUE(client.ShutdownWrite().ok());
    // The server sees EOF mid-frame and closes silently: no partial
    // dispatch, no response, no crash.
    std::vector<Frame> frames;
    EXPECT_EQ(DrainUntilClose(&client, &frames).code(),
              StatusCode::kIoError);
    EXPECT_TRUE(frames.empty());
  }
  ExpectServerStillAnswers(&fixture);
}

// --- fuzzing ------------------------------------------------------------

TEST(NetProtocolTest, FuzzRandomBytesNeverCrashOrWedge) {
  TestServer fixture;
  std::mt19937 rng(0x51394E31u);  // deterministic: "SQN1" seed
  std::uniform_int_distribution<int> len_dist(1, 600);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int iter = 0; iter < 48; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const bool after_handshake = (iter % 2) == 1;
    net::NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fixture.port(),
                               ClientOptions(after_handshake, 5000.0))
                    .ok());
    std::vector<uint8_t> garbage(static_cast<size_t>(len_dist(rng)));
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(byte_dist(rng));
    ASSERT_TRUE(client.SendRaw(garbage.data(), garbage.size()).ok());
    ASSERT_TRUE(client.ShutdownWrite().ok());
    // The server may answer with typed error frames before closing, but
    // any framing-error frame carries request id 0, and it always closes.
    std::vector<Frame> frames;
    EXPECT_FALSE(DrainUntilClose(&client, &frames).ok());
    for (const Frame& f : frames) {
      if (f.header.opcode == static_cast<uint8_t>(net::Opcode::kError) &&
          ErrorCodeOf(f) == Code(StatusCode::kCorruption)) {
        EXPECT_EQ(f.header.request_id, 0u);
      }
    }
  }
  ExpectServerStillAnswers(&fixture);
}

TEST(NetProtocolTest, FuzzMutatedFramesBehindValidWork) {
  TestServer fixture;
  const std::string text = "NEAREST 10 r TO #walk0";
  const QueryResult oracle = Oracle(&fixture.service, text);
  const std::vector<uint8_t> valid = ExecFrame(2, text);

  std::mt19937 rng(19950523u);
  std::uniform_int_distribution<size_t> pos_dist(0, valid.size() - 1);
  std::uniform_int_distribution<int> flip_dist(1, 255);
  std::uniform_int_distribution<size_t> cut_dist(1, valid.size() - 1);

  for (int iter = 0; iter < 64; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    net::NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fixture.port(),
                               ClientOptions(true, 5000.0))
                    .ok());
    std::vector<uint8_t> wire = ExecFrame(1, text);
    const bool truncate = (iter % 2) == 0;
    std::vector<uint8_t> hostile = valid;
    if (truncate) {
      hostile.resize(cut_dist(rng));
    } else {
      // Flip one byte to a guaranteed-different value; any single-byte
      // mutation of a valid frame is a framing error (magic, length,
      // reserved bits, or CRC).
      hostile[pos_dist(rng)] ^= static_cast<uint8_t>(flip_dist(rng));
    }
    wire.insert(wire.end(), hostile.begin(), hostile.end());
    ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());
    ASSERT_TRUE(client.ShutdownWrite().ok());

    std::vector<Frame> frames;
    ASSERT_TRUE(ReadFrames(&client, 1, &frames));
    ASSERT_EQ(frames[0].header.request_id, 1u);
    const net::ResultPage page = PageOf(frames[0]);
    ExpectSameAnswer(QueryResult{page.matches, page.pairs, {}}, oracle);

    std::vector<Frame> rest;
    EXPECT_FALSE(DrainUntilClose(&client, &rest).ok());
    for (const Frame& f : rest) {
      // Only a framing error (request id 0) may follow; a truncated tail
      // usually just produces EOF with no frame at all.
      EXPECT_EQ(f.header.opcode, static_cast<uint8_t>(net::Opcode::kError));
      EXPECT_EQ(f.header.request_id, 0u);
    }
  }
  ExpectServerStillAnswers(&fixture);
}

TEST(NetProtocolTest, PipelinedMixedValidAndPoisonFrames) {
  TestServer fixture;
  const std::string q1 = "NEAREST 10 r TO #walk0";
  const std::string q2 = "RANGE r WITHIN 2.0 OF #walk3";
  const QueryResult oracle1 = Oracle(&fixture.service, q1);
  const QueryResult oracle2 = Oracle(&fixture.service, q2);

  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  // Two valid execs pipelined ahead of 64 garbage bytes: both answered in
  // FIFO order, then the framing error, then close.
  std::vector<uint8_t> wire = ExecFrame(1, q1);
  const std::vector<uint8_t> second = ExecFrame(2, q2);
  wire.insert(wire.end(), second.begin(), second.end());
  wire.insert(wire.end(), 64, 0xA5);
  ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());

  std::vector<Frame> frames;
  ASSERT_TRUE(ReadFrames(&client, 3, &frames));
  EXPECT_EQ(frames[0].header.request_id, 1u);
  const net::ResultPage page1 = PageOf(frames[0]);
  ExpectSameAnswer(QueryResult{page1.matches, page1.pairs, {}}, oracle1);
  EXPECT_EQ(frames[1].header.request_id, 2u);
  const net::ResultPage page2 = PageOf(frames[1]);
  ExpectSameAnswer(QueryResult{page2.matches, page2.pairs, {}}, oracle2);
  EXPECT_EQ(frames[2].header.request_id, 0u);
  EXPECT_EQ(ErrorCodeOf(frames[2]), Code(StatusCode::kCorruption));
  EXPECT_EQ(DrainUntilClose(&client, nullptr).code(), StatusCode::kIoError);
}

// --- shedding, cancellation, deadlines ----------------------------------

TEST(NetProtocolTest, OverloadShedsBeyondThePipelineBound) {
  net::NetServerOptions options;
  options.exec_threads = 1;
  options.max_pipeline = 2;  // one executing + one queued
  TestServer fixture(options, /*count=*/200, /*length=*/64);

  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  // Four slow execs in one burst: #1 executes, #2 queues, #3 and #4 are
  // shed immediately with kOverloaded -- bounded queues, typed refusal.
  std::vector<uint8_t> wire;
  for (uint32_t rid = 1; rid <= 4; ++rid) {
    const std::vector<uint8_t> frame = ExecFrame(rid, kSlowQuery);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());

  std::vector<Frame> frames;
  ASSERT_TRUE(ReadFrames(&client, 4, &frames));
  int results = 0;
  int shed = 0;
  for (const Frame& f : frames) {
    if (f.header.opcode == static_cast<uint8_t>(net::Opcode::kResult)) {
      ++results;
      EXPECT_TRUE(f.header.request_id == 1 || f.header.request_id == 2);
    } else {
      EXPECT_EQ(ErrorCodeOf(f), Code(StatusCode::kOverloaded));
      EXPECT_TRUE(f.header.request_id == 3 || f.header.request_id == 4);
      ++shed;
    }
  }
  EXPECT_EQ(results, 2);
  EXPECT_EQ(shed, 2);

  // Shed requests poison nothing: the connection keeps answering, and the
  // counters surfaced through the service (satellite of this PR) agree.
  const std::string text = "NEAREST 5 r TO #walk0";
  net::ExecRequest request;
  request.text = text;
  Result<QueryResult> answer = client.ExecAll(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectSameAnswer(answer.value(), Oracle(&fixture.service, text));
  EXPECT_EQ(fixture.service.stats().net.requests_shed, 2);
  EXPECT_EQ(fixture.server->stats().requests_shed, 2);
}

TEST(NetProtocolTest, CancelKillsPendingAndInflightThenRecovers) {
  net::NetServerOptions options;
  options.exec_threads = 1;
  TestServer fixture(options, /*count=*/200, /*length=*/64);

  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  std::vector<uint8_t> wire = ExecFrame(1, kSlowQuery);
  const std::vector<uint8_t> queued = ExecFrame(2, kSlowQuery);
  wire.insert(wire.end(), queued.begin(), queued.end());
  const std::vector<uint8_t> cancel =
      net::BuildFrame(net::Opcode::kCancel, 3, {});
  wire.insert(wire.end(), cancel.begin(), cancel.end());
  ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());

  bool saw_ack = false;
  bool saw_pending_cancelled = false;
  bool saw_first_response = false;
  std::vector<Frame> frames;
  ASSERT_TRUE(ReadFrames(&client, 3, &frames));
  for (const Frame& f : frames) {
    switch (f.header.request_id) {
      case 1:
        // The in-flight execution either observed the cancel or won the
        // race and completed; both are legal, wedging is not.
        saw_first_response = true;
        if (f.header.opcode == static_cast<uint8_t>(net::Opcode::kError)) {
          EXPECT_EQ(ErrorCodeOf(f), Code(StatusCode::kCancelled));
        } else {
          EXPECT_EQ(f.header.opcode,
                    static_cast<uint8_t>(net::Opcode::kResult));
        }
        break;
      case 2:
        saw_pending_cancelled = true;
        EXPECT_EQ(ErrorCodeOf(f), Code(StatusCode::kCancelled));
        break;
      case 3:
        saw_ack = true;
        EXPECT_EQ(f.header.opcode,
                  static_cast<uint8_t>(net::Opcode::kCancelAck));
        break;
      default:
        ADD_FAILURE() << "unexpected request id " << f.header.request_id;
    }
  }
  EXPECT_TRUE(saw_ack);
  EXPECT_TRUE(saw_pending_cancelled);
  EXPECT_TRUE(saw_first_response);

  // The cancel flag is reset: the same session executes again.
  const std::string text = "NEAREST 5 r TO #walk0";
  net::ExecRequest request;
  request.text = text;
  Result<QueryResult> answer = client.ExecAll(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectSameAnswer(answer.value(), Oracle(&fixture.service, text));
}

TEST(NetProtocolTest, WireDeadlineSurfacesAsTimeout) {
  TestServer fixture({}, /*count=*/200, /*length=*/64);
  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  net::ExecRequest request;
  request.text = kSlowQuery;
  request.deadline_ms = 0.001;  // expired by the time the check runs
  Result<QueryResult> answer = client.ExecAll(request);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kTimeout)
      << answer.status().ToString();
  // The connection survives its own timeout.
  request.deadline_ms = 0.0;
  request.text = "NEAREST 5 r TO #walk0";
  EXPECT_TRUE(client.ExecAll(request).ok());
}

// --- prepared statements, cursors, stats --------------------------------

TEST(NetProtocolTest, PreparedStatementsBindParametersOverTheWire) {
  TestServer fixture;
  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  Result<uint64_t> prepared =
      client.Prepare("RANGE r WITHIN 1.0 OF #walk0");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  net::ExecRequest request;
  request.prepared = true;
  request.statement_id = prepared.value();
  Result<QueryResult> plain = client.ExecAll(request);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ExpectSameAnswer(plain.value(),
                   Oracle(&fixture.service, "RANGE r WITHIN 1.0 OF #walk0"));

  request.epsilon = 3.0;  // rebinding widens the answer set
  Result<QueryResult> rebound = client.ExecAll(request);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  ExpectSameAnswer(rebound.value(),
                   Oracle(&fixture.service, "RANGE r WITHIN 3.0 OF #walk0"));

  // Executing a statement id that was never prepared is a typed error.
  request.statement_id = prepared.value() + 999;
  request.epsilon.reset();
  Result<QueryResult> missing = client.ExecAll(request);
  EXPECT_FALSE(missing.ok());
}

TEST(NetProtocolTest, CursorsPaginateEvictAndClose) {
  net::NetServerOptions options;
  options.default_page_rows = 8;
  options.max_cursors_per_connection = 2;
  TestServer fixture(options);
  const std::string text = "NEAREST 30 r TO #walk0";
  const QueryResult oracle = Oracle(&fixture.service, text);
  ASSERT_EQ(oracle.matches.size(), 30u);

  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());

  // ExecAll drains through the server's 8-row default pages.
  net::ExecRequest request;
  request.text = text;
  Result<QueryResult> drained = client.ExecAll(request);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ExpectSameAnswer(drained.value(), oracle);

  // Manual pagination: first page of 7, then the remainder in one fetch.
  request.page_rows = 7;
  Result<net::ResultPage> first = client.Exec(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.value().has_more);
  EXPECT_NE(first.value().cursor_id, 0u);
  EXPECT_EQ(first.value().total_rows, 30u);
  ASSERT_EQ(first.value().matches.size(), 7u);
  Result<net::ResultPage> rest =
      client.Fetch(first.value().cursor_id, 100);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_FALSE(rest.value().has_more);
  ASSERT_EQ(rest.value().matches.size(), 23u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(first.value().matches[i].name, oracle.matches[i].name);
    EXPECT_EQ(first.value().matches[i].distance,
              oracle.matches[i].distance);
  }
  for (size_t i = 0; i < 23; ++i) {
    EXPECT_EQ(rest.value().matches[i].name, oracle.matches[i + 7].name);
    EXPECT_EQ(rest.value().matches[i].distance,
              oracle.matches[i + 7].distance);
  }
  // The drained cursor is gone.
  Result<net::ResultPage> gone = client.Fetch(first.value().cursor_id, 10);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

  // Eviction: the third open cursor evicts the oldest.
  request.page_rows = 1;
  Result<net::ResultPage> a = client.Exec(request);
  Result<net::ResultPage> b = client.Exec(request);
  Result<net::ResultPage> c = client.Exec(request);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(client.Fetch(a.value().cursor_id, 100).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(client.Fetch(b.value().cursor_id, 100).ok());
  EXPECT_TRUE(client.Fetch(c.value().cursor_id, 100).ok());

  // Unknown-cursor fetch is typed; close is idempotent.
  EXPECT_EQ(client.Fetch(0xDEAD, 10).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.CloseCursor(0xDEAD).ok());
}

TEST(NetProtocolTest, StatsFrameCarriesConnectionCounters) {
  TestServer fixture;
  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  net::ExecRequest request;
  request.text = "NEAREST 5 r TO #walk0";
  ASSERT_TRUE(client.ExecAll(request).ok());

  Result<net::WireStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().queries, 1u);
  EXPECT_GE(stats.value().connections_accepted, 1u);
  EXPECT_GE(stats.value().connections_active, 1u);
  EXPECT_GT(stats.value().bytes_in, 0u);
  EXPECT_GT(stats.value().bytes_out, 0u);
}

// --- timeouts, backpressure, goodbye ------------------------------------

TEST(NetProtocolTest, IdleConnectionsAreReaped) {
  net::NetServerOptions options;
  options.read_idle_ms = 100.0;
  TestServer fixture(options);
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fixture.port(),
                             ClientOptions(true, 5000.0))
                  .ok());
  // Say nothing; the slow-loris defense closes us within ~read_idle_ms.
  std::vector<Frame> frames;
  EXPECT_EQ(DrainUntilClose(&client, &frames).code(), StatusCode::kIoError);
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(fixture.service.stats().net.connections_timed_out, 1);
  ExpectServerStillAnswers(&fixture);
}

TEST(NetProtocolTest, SlowReaderUnderBackpressureStillGetsEveryAnswer) {
  net::NetServerOptions options;
  options.output_buffer_limit = 32 * 1024;
  options.default_page_rows = 65536;  // big single-page responses
  TestServer fixture(options, /*count=*/128, /*length=*/32);
  const std::string text = "PAIRS r WITHIN 100.0";  // ~all pairs match
  const QueryResult oracle = Oracle(&fixture.service, text);
  ASSERT_GT(oracle.pairs.size(), 1000u);

  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
  constexpr int kPipelined = 5;
  std::vector<uint8_t> wire;
  for (uint32_t rid = 1; rid <= kPipelined; ++rid) {
    const std::vector<uint8_t> frame = ExecFrame(rid, text);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());
  // Don't read: let the responses pile up past output_buffer_limit so the
  // server's backpressure path (read interest dropped, dispatch deferred)
  // engages, then drain. Every answer must arrive intact and in order.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::vector<Frame> frames;
  ASSERT_TRUE(ReadFrames(&client, kPipelined, &frames));
  for (int i = 0; i < kPipelined; ++i) {
    EXPECT_EQ(frames[i].header.request_id, static_cast<uint32_t>(i + 1));
    const net::ResultPage page = PageOf(frames[i]);
    EXPECT_FALSE(page.has_more);
    ExpectSameAnswer(QueryResult{page.matches, page.pairs, {}}, oracle);
  }
  // Read interest was restored once we drained.
  net::ExecRequest request;
  request.text = "NEAREST 5 r TO #walk0";
  EXPECT_TRUE(client.ExecAll(request).ok());
}

TEST(NetProtocolTest, GoodbyeIsOrderlyInBothDirections) {
  TestServer fixture;
  {
    net::NetClient client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", fixture.port(), ClientOptions()).ok());
    net::ExecRequest request;
    request.text = "NEAREST 5 r TO #walk0";
    ASSERT_TRUE(client.ExecAll(request).ok());
    EXPECT_TRUE(client.Goodbye().ok());
  }
  // Server-initiated: shutdown drains connected clients with a goodbye.
  net::NetClient lingering;
  ASSERT_TRUE(lingering
                  .Connect("127.0.0.1", fixture.port(),
                           ClientOptions(true, 5000.0))
                  .ok());
  fixture.server->Shutdown();
  std::vector<Frame> frames;
  EXPECT_EQ(DrainUntilClose(&lingering, &frames).code(),
            StatusCode::kIoError);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.opcode,
            static_cast<uint8_t>(net::Opcode::kGoodbye));
  fixture.loop.join();
}

// --- the crash schedule -------------------------------------------------

// Child half of the net crash schedule: serve a durable relation until
// the armed net.write failpoint SIGKILLs us at a socket-write boundary.
// Exit codes: 2 = harness breakage (test fails), 3 = the failpoint never
// fired (test fails via the WIFSIGNALED assertion).
void CrashChildServe(int port_pipe_fd, const std::string& snapshot,
                     const std::string& wal) {
  Result<Database> opened =
      OpenDurableDatabase(FeatureConfig(), snapshot, wal, nullptr);
  if (!opened.ok()) _exit(2);
  ServiceOptions service_options;
  service_options.snapshot_path = snapshot;
  service_options.wal_path = wal;
  QueryService service(std::move(opened).value(), service_options);
  if (!service.CreateRelation("r").ok()) _exit(2);
  if (!service.BulkLoad("r", workload::RandomWalkSeries(32, 16, 5)).ok()) {
    _exit(2);
  }
  // Write #1 is the hello ack; write #2 (the first result) dies. Arming
  // happens only in this child, so the parent's sockets are unaffected.
  if (!Failpoints::Global()
           .ConfigureFromSpec("net.write=kill:after-1")
           .ok()) {
    _exit(2);
  }
  net::NetServerOptions options;
  options.exec_threads = 1;
  net::NetServer server(&service, options);
  if (!server.Start().ok()) _exit(2);
  const uint16_t port = server.port();
  if (::write(port_pipe_fd, &port, sizeof(port)) !=
      static_cast<ssize_t>(sizeof(port))) {
    _exit(2);
  }
  ::close(port_pipe_fd);
  server.Run();
  _exit(3);
}

TEST(NetCrashTest, MidWriteKillLeavesRecoverableStateAndCleanClientError) {
  const std::string snapshot = TempPath("net_crash.snapshot");
  const std::string wal = TempPath("net_crash.wal");
  std::remove(snapshot.c_str());
  std::remove(wal.c_str());

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(port_pipe[0]);
    CrashChildServe(port_pipe[1], snapshot, wal);  // never returns
  }
  ::close(port_pipe[1]);
  uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);

  // Every mutation was durably acknowledged before the port was
  // published, so whatever the kill interrupts, the relation survives.
  net::NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", port, ClientOptions(true, 10000.0)).ok());
  net::ExecRequest request;
  request.text = "NEAREST 5 r TO #walk0";
  Result<QueryResult> over_wire = client.ExecAll(request);
  ASSERT_FALSE(over_wire.ok());  // the server died before the result write
  EXPECT_TRUE(over_wire.status().code() == StatusCode::kIoError ||
              over_wire.status().code() == StatusCode::kTimeout)
      << over_wire.status().ToString();
  client.Close();

  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "child exited with "
      << (WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1);
  EXPECT_EQ(WTERMSIG(wait_status), SIGKILL);

  // Restart: recovery replays the WAL and the answers are bit-identical
  // to a never-crashed service over the same data.
  Result<Database> recovered =
      OpenDurableDatabase(FeatureConfig(), snapshot, wal, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  QueryService after(std::move(recovered).value());

  Database oracle_db;
  ASSERT_TRUE(oracle_db.CreateRelation("r").ok());
  ASSERT_TRUE(
      oracle_db.BulkLoad("r", workload::RandomWalkSeries(32, 16, 5)).ok());
  QueryService oracle(std::move(oracle_db));
  for (const char* text :
       {"NEAREST 5 r TO #walk0", "RANGE r WITHIN 2.0 OF #walk3",
        "PAIRS r WITHIN 1.0"}) {
    SCOPED_TRACE(text);
    ExpectSameAnswer(Oracle(&after, text), Oracle(&oracle, text));
  }
  std::remove(snapshot.c_str());
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace simq
