// Serving-layer tests: protocol round-trips, strict KGC_SERVE_* parsing,
// the malformed-input corpus (typed error or clean close, never a crash),
// end-to-end bit-identity of served top-K / classification replies against
// locally recomputed results, admission-control shedding, typed deadline
// replies, drain-on-shutdown, and rotation pickup mid-serve.
//
// The server runs in-process (it is a library; kgc_serve is a thin main),
// so FaultInjector sites arm directly and the tests are fast enough for
// the tier-1 list — including the ASan leg, which is the point for the
// malformed corpus.

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/topk.h"
#include "eval/triple_classification.h"
#include "kg/dataset.h"
#include "obs/metrics.h"
#include "serve/bounded_queue.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "snapshot/snapshot_registry.h"
#include "snapshot/stream_ingestor.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/string_util.h"

namespace kgc {
namespace {

namespace fs = std::filesystem;
using serve::BoundedQueue;
using serve::ConnectUnix;
using serve::ReadFrame;
using serve::Reply;
using serve::ReplyStatus;
using serve::Request;
using serve::RequestType;
using serve::ServeOptions;
using serve::Server;
using serve::WriteFrame;

TEST(ServeProtocolTest, RoundTripsEveryRequestType) {
  Request topk;
  topk.type = RequestType::kTopK;
  topk.id = 0xdeadbeefcafef00dULL;
  topk.deadline_ms = 250;
  topk.tails = false;
  topk.filtered = true;
  topk.relation = 7;
  topk.anchor = 123;
  topk.k = 10;
  Request decoded;
  ASSERT_TRUE(serve::DecodeRequest(serve::EncodeRequest(topk), &decoded).ok());
  EXPECT_EQ(decoded.type, RequestType::kTopK);
  EXPECT_EQ(decoded.id, topk.id);
  EXPECT_EQ(decoded.deadline_ms, topk.deadline_ms);
  EXPECT_EQ(decoded.tails, topk.tails);
  EXPECT_EQ(decoded.filtered, topk.filtered);
  EXPECT_EQ(decoded.relation, topk.relation);
  EXPECT_EQ(decoded.anchor, topk.anchor);
  EXPECT_EQ(decoded.k, topk.k);

  Request classify;
  classify.type = RequestType::kClassify;
  classify.id = 42;
  classify.triple = Triple{3, 1, 9};
  ASSERT_TRUE(
      serve::DecodeRequest(serve::EncodeRequest(classify), &decoded).ok());
  EXPECT_EQ(decoded.type, RequestType::kClassify);
  EXPECT_EQ(decoded.triple, (Triple{3, 1, 9}));

  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 1;
  ASSERT_TRUE(
      serve::DecodeRequest(serve::EncodeRequest(ping), &decoded).ok());
  EXPECT_EQ(decoded.type, RequestType::kPing);
}

TEST(ServeProtocolTest, RoundTripsRepliesBitExactly) {
  Reply reply;
  reply.status = ReplyStatus::kOk;
  reply.flags = serve::kReplyFlagDegraded;
  reply.id = 77;
  reply.generation = 3;
  reply.type = RequestType::kTopK;
  reply.entries = {{1.5f, 4}, {-0.25f, 2}, {0.0f, 9}};
  const std::string payload = serve::EncodeReply(reply);
  Reply decoded;
  ASSERT_TRUE(serve::DecodeReply(payload, RequestType::kTopK, &decoded).ok());
  EXPECT_EQ(decoded.status, ReplyStatus::kOk);
  EXPECT_EQ(decoded.flags, serve::kReplyFlagDegraded);
  EXPECT_EQ(decoded.id, 77u);
  EXPECT_EQ(decoded.generation, 3);
  ASSERT_EQ(decoded.entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.entries[i].entity, reply.entries[i].entity);
    EXPECT_EQ(decoded.entries[i].score, reply.entries[i].score);
  }

  Reply classify;
  classify.status = ReplyStatus::kOk;
  classify.id = 5;
  classify.generation = 0;
  classify.type = RequestType::kClassify;
  classify.score = -3.75f;
  classify.label = true;
  classify.threshold = -4.0f;
  ASSERT_TRUE(serve::DecodeReply(serve::EncodeReply(classify),
                                 RequestType::kClassify, &decoded)
                  .ok());
  EXPECT_EQ(decoded.score, -3.75f);
  EXPECT_TRUE(decoded.label);
  EXPECT_EQ(decoded.threshold, -4.0f);
}

TEST(ServeProtocolTest, DecodeRejectsCorruptPayloads) {
  Request request;
  // Truncated header.
  EXPECT_FALSE(serve::DecodeRequest("\x01", &request).ok());
  // Wrong version.
  std::string wrong_version = serve::EncodeRequest(Request{});
  wrong_version[0] = 9;
  EXPECT_FALSE(serve::DecodeRequest(wrong_version, &request).ok());
  // Unknown type.
  std::string bad_type = serve::EncodeRequest(Request{});
  bad_type[1] = 99;
  EXPECT_FALSE(serve::DecodeRequest(bad_type, &request).ok());
  // Trailing garbage.
  std::string trailing = serve::EncodeRequest(Request{});
  trailing += '\0';
  EXPECT_FALSE(serve::DecodeRequest(trailing, &request).ok());
  // Truncated top-K body.
  Request topk;
  topk.type = RequestType::kTopK;
  std::string short_body = serve::EncodeRequest(topk);
  short_body.resize(short_body.size() - 3);
  EXPECT_FALSE(serve::DecodeRequest(short_body, &request).ok());
  // Empty payload.
  EXPECT_FALSE(serve::DecodeRequest("", &request).ok());
}

TEST(ServeBoundedQueueTest, ShedsAtCapacityAndDrainsAfterClose) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: admission control says no
  queue.Close();
  EXPECT_FALSE(queue.TryPush(4));  // closed
  auto batch = queue.PopBatch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(queue.PopBatch(8).empty());
}

TEST(ServeOptionsTest, FromEnvParsesStrictlyAndKeepsDefaultsOnBadValues) {
  const char* const kVars[] = {
      "KGC_SERVE_MAX_CONNECTIONS",  "KGC_SERVE_QUEUE",
      "KGC_SERVE_MAX_BATCH",        "KGC_SERVE_DEADLINE_MS",
      "KGC_SERVE_WRITE_TIMEOUT_MS", "KGC_SERVE_MAX_K"};
  const auto unset_all = [&] {
    for (const char* name : kVars) ::unsetenv(name);
  };
  // Each case sets the variables, parses, and returns the options plus the
  // number of warning lines FromEnv printed.
  const auto parse =
      [&](std::vector<std::pair<const char*, const char*>> vars) {
        unset_all();
        for (const auto& [name, value] : vars) ::setenv(name, value, 1);
        ::testing::internal::CaptureStderr();
        const ServeOptions options = ServeOptions::FromEnv();
        const std::string err = ::testing::internal::GetCapturedStderr();
        unset_all();
        return std::make_pair(
            options, static_cast<int>(std::count(err.begin(), err.end(),
                                                 '\n')));
      };
  const ServeOptions defaults;

  {
    const auto [options, warnings] = parse({});
    EXPECT_EQ(warnings, 0);
    EXPECT_EQ(options.max_connections, defaults.max_connections);
    EXPECT_EQ(options.queue_capacity, defaults.queue_capacity);
    EXPECT_EQ(options.max_batch, defaults.max_batch);
    EXPECT_EQ(options.default_deadline_ms, defaults.default_deadline_ms);
    EXPECT_EQ(options.write_timeout_ms, defaults.write_timeout_ms);
    EXPECT_EQ(options.max_k, defaults.max_k);
  }
  {
    const auto [options, warnings] = parse({{"KGC_SERVE_MAX_CONNECTIONS", "3"},
                                            {"KGC_SERVE_QUEUE", "2"},
                                            {"KGC_SERVE_MAX_BATCH", "4"},
                                            {"KGC_SERVE_DEADLINE_MS", "250"},
                                            {"KGC_SERVE_WRITE_TIMEOUT_MS", "1"},
                                            {"KGC_SERVE_MAX_K", "10"}});
    EXPECT_EQ(warnings, 0);
    EXPECT_EQ(options.max_connections, 3);
    EXPECT_EQ(options.queue_capacity, 2);
    EXPECT_EQ(options.max_batch, 4);
    EXPECT_EQ(options.default_deadline_ms, 250);
    EXPECT_EQ(options.write_timeout_ms, 1);
    EXPECT_EQ(options.max_k, 10);
  }
  {
    // The boundary itself is accepted.
    const auto [options, warnings] = parse({{"KGC_SERVE_MAX_BATCH", "1"}});
    EXPECT_EQ(warnings, 0);
    EXPECT_EQ(options.max_batch, 1);
  }
  {
    // "abc" used to read as 0 connections. Every bad value keeps its
    // default and warns once.
    const auto [options, warnings] =
        parse({{"KGC_SERVE_MAX_CONNECTIONS", "abc"},
               {"KGC_SERVE_QUEUE", "0"},
               {"KGC_SERVE_MAX_BATCH", "-4"},
               {"KGC_SERVE_DEADLINE_MS", "12ms"},
               {"KGC_SERVE_WRITE_TIMEOUT_MS", " 5"},
               {"KGC_SERVE_MAX_K", "99999999999"}});
    EXPECT_EQ(warnings, 6);
    EXPECT_EQ(options.max_connections, defaults.max_connections);
    EXPECT_EQ(options.queue_capacity, defaults.queue_capacity);
    EXPECT_EQ(options.max_batch, defaults.max_batch);
    EXPECT_EQ(options.default_deadline_ms, defaults.default_deadline_ms);
    EXPECT_EQ(options.write_timeout_ms, defaults.write_timeout_ms);
    EXPECT_EQ(options.max_k, defaults.max_k);
  }
  {
    // A set-but-empty variable means unset, silently.
    const auto [options, warnings] = parse({{"KGC_SERVE_QUEUE", ""}});
    EXPECT_EQ(warnings, 0);
    EXPECT_EQ(options.queue_capacity, defaults.queue_capacity);
  }
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Get().DisarmAllForTest();
    const std::string name = ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    root_ = (fs::temp_directory_path() / ("kgc_serve_" + name)).string();
    fs::remove_all(root_);
    fs::create_directories(root_);
    socket_path_ = root_ + "/serve.sock";
  }
  void TearDown() override {
    server_.reset();
    FaultInjector::Get().DisarmAllForTest();
    fs::remove_all(root_);
  }

  static Dataset MakeBase() {
    Vocab vocab;
    TripleList train, valid, test;
    const auto add = [&vocab](TripleList& dst, const std::string& h,
                              const std::string& r, const std::string& t) {
      dst.push_back(Triple{vocab.InternEntity(h), vocab.InternRelation(r),
                           vocab.InternEntity(t)});
    };
    for (int i = 0; i < 12; ++i) {
      const std::string a = StrFormat("e%d", i);
      const std::string b = StrFormat("e%d", (i + 1) % 12);
      add(train, a, "r0", b);
      add(train, b, "r1", a);
    }
    for (int i = 0; i < 6; ++i) {
      add(valid, StrFormat("e%d", i), "r0", StrFormat("e%d", (i + 3) % 12));
      add(test, StrFormat("e%d", i + 6), "r1", StrFormat("e%d", i));
    }
    return Dataset("serve-base", std::move(vocab), std::move(train),
                   std::move(valid), std::move(test));
  }

  /// Publishes generation 0 into root_/registry and opens the registry.
  void BootstrapRegistry() {
    auto opened = SnapshotRegistry::Open(root_ + "/registry");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    registry_ = std::move(*opened);
    StreamIngestorOptions options;
    options.bootstrap_epochs = 3;
    options.train_seed = 21;
    options.threads = 1;
    StreamIngestor ingestor(*registry_, options);
    auto report = ingestor.Bootstrap(MakeBase());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  void StartServer(ServeOptions options = {}) {
    options.socket_path = socket_path_;
    server_ = std::make_unique<Server>(*registry_, options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  int MustConnect() {
    auto fd = ConnectUnix(socket_path_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.ok() ? *fd : -1;
  }

  /// One request/reply round-trip on an existing connection.
  StatusOr<Reply> Call(int fd, const Request& request,
                       int timeout_ms = 5000) {
    KGC_RETURN_IF_ERROR(
        WriteFrame(fd, serve::EncodeRequest(request), timeout_ms));
    auto payload = ReadFrame(fd, timeout_ms);
    if (!payload.ok()) return payload.status();
    Reply reply;
    KGC_RETURN_IF_ERROR(serve::DecodeReply(*payload, request.type, &reply));
    return reply;
  }

  std::string root_;
  std::string socket_path_;
  std::unique_ptr<SnapshotRegistry> registry_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, ServesTopKClassifyAndPingBitIdentically) {
  BootstrapRegistry();
  StartServer();
  const auto gen = registry_->current();
  ASSERT_NE(gen, nullptr);
  const int fd = MustConnect();
  ASSERT_GE(fd, 0);

  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 1;
  auto pong = Call(fd, ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->status, ReplyStatus::kOk);
  EXPECT_EQ(pong->id, 1u);
  EXPECT_EQ(pong->generation, 0);

  // Top-K (both directions, raw and filtered) must equal the full-sweep
  // oracle bit for bit: an independent path from the server's blocked
  // sweep.
  for (const bool tails : {true, false}) {
    for (const bool filtered : {true, false}) {
      Request request;
      request.type = RequestType::kTopK;
      request.id = 2;
      request.tails = tails;
      request.filtered = filtered;
      request.relation = 0;
      request.anchor = 3;
      request.k = 5;
      auto reply = Call(fd, request);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply->status, ReplyStatus::kOk);
      EXPECT_EQ(reply->flags & serve::kReplyFlagDegraded, 0);

      TopKQuery query;
      query.tails = tails;
      query.relation = 0;
      query.anchor = 3;
      const TopKResult local = TopKEngine::OracleTopK(
          *gen->model, query, 5, &gen->dataset.all_store());
      const auto& expect = filtered ? local.filtered : local.raw;
      ASSERT_EQ(reply->entries.size(), expect.size());
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(reply->entries[i].entity, expect[i].entity);
        EXPECT_EQ(reply->entries[i].score, expect[i].score);
      }
    }
  }

  // Classification must match locally fitted thresholds bit for bit.
  Request classify;
  classify.type = RequestType::kClassify;
  classify.id = 3;
  classify.triple = gen->dataset.test()[0];
  auto reply = Call(fd, classify);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->status, ReplyStatus::kOk);
  const ClassificationThresholds thresholds =
      FitClassificationThresholds(*gen->model, gen->dataset, {});
  const std::vector<Triple> one = {classify.triple};
  const auto local = ClassifyTriples(*gen->model, thresholds, one);
  EXPECT_EQ(reply->score, static_cast<float>(local[0].score));
  EXPECT_EQ(reply->label, local[0].label);
  EXPECT_EQ(reply->threshold, static_cast<float>(local[0].threshold));
  ::close(fd);
}

TEST_F(ServeTest, MalformedInputCorpusGetsTypedErrorsNeverCrashes) {
  BootstrapRegistry();
  StartServer();

  const auto expect_malformed_then_close = [&](int fd) {
    auto payload = ReadFrame(fd, 5000);
    if (payload.ok()) {
      Reply reply;
      ASSERT_TRUE(
          serve::DecodeReply(*payload, RequestType::kPing, &reply).ok());
      EXPECT_EQ(reply.status, ReplyStatus::kMalformed);
      // After the typed reply the server closes the connection.
      auto next = ReadFrame(fd, 5000);
      EXPECT_FALSE(next.ok());
    }
    // else: clean close without a reply is also within contract.
    ::close(fd);
  };

  {  // Oversized length prefix.
    const int fd = MustConnect();
    const uint32_t huge = serve::kMaxFrameBytes + 1;
    char prefix[4];
    std::memcpy(prefix, &huge, 4);
    ASSERT_EQ(::send(fd, prefix, 4, MSG_NOSIGNAL), 4);
    expect_malformed_then_close(fd);
  }
  {  // Garbage bytes (with embedded NULs) in a well-framed payload.
    const int fd = MustConnect();
    std::string garbage(64, '\0');
    for (size_t i = 0; i < garbage.size(); i += 3) garbage[i] = '\xff';
    ASSERT_TRUE(WriteFrame(fd, garbage, 5000).ok());
    expect_malformed_then_close(fd);
  }
  {  // Empty payload frame.
    const int fd = MustConnect();
    ASSERT_TRUE(WriteFrame(fd, "", 5000).ok());
    expect_malformed_then_close(fd);
  }
  {  // Wrong protocol version.
    const int fd = MustConnect();
    std::string payload = serve::EncodeRequest(Request{});
    payload[0] = 2;
    ASSERT_TRUE(WriteFrame(fd, payload, 5000).ok());
    expect_malformed_then_close(fd);
  }
  {  // Unknown request type.
    const int fd = MustConnect();
    std::string payload = serve::EncodeRequest(Request{});
    payload[1] = 0x7f;
    ASSERT_TRUE(WriteFrame(fd, payload, 5000).ok());
    expect_malformed_then_close(fd);
  }
  {  // Truncated frame: promise 100 bytes, send 10, disconnect abruptly.
    const int fd = MustConnect();
    const uint32_t promised = 100;
    char prefix[4];
    std::memcpy(prefix, &promised, 4);
    ASSERT_EQ(::send(fd, prefix, 4, MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(fd, "0123456789", 10, MSG_NOSIGNAL), 10);
    ::close(fd);
  }
  {  // Abrupt disconnect mid-length-prefix.
    const int fd = MustConnect();
    ASSERT_EQ(::send(fd, "\x08", 1, MSG_NOSIGNAL), 1);
    ::close(fd);
  }
  {  // Semantically invalid ids decode fine but must earn typed MALFORMED.
    const int fd = MustConnect();
    Request request;
    request.type = RequestType::kTopK;
    request.id = 9;
    request.relation = 999;  // out of range
    request.anchor = 0;
    request.k = 5;
    auto reply = Call(fd, request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status, ReplyStatus::kMalformed);
    ::close(fd);
  }

  // The server must still answer a well-formed request after the corpus.
  const int fd = MustConnect();
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 99;
  auto pong = Call(fd, ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->status, ReplyStatus::kOk);
  ::close(fd);
}

TEST_F(ServeTest, ShedsLoadWithTypedOverloadReplies) {
  BootstrapRegistry();
  ServeOptions options;
  options.queue_capacity = 1;
  options.max_batch = 1;
  StartServer(options);
  // Stall every batch so the queue (capacity 1) backs up immediately.
  FaultInjector::Get().ArmSite("serve:batch", FaultKind::kStall,
                               /*times=*/1000, /*skip=*/0, /*payload=*/30);

  const int fd = MustConnect();
  // Pipeline a burst without reading replies: admission control must shed.
  for (int i = 0; i < 16; ++i) {
    Request request;
    request.type = RequestType::kClassify;
    request.id = 100 + static_cast<uint64_t>(i);
    request.triple = Triple{0, 0, 1};
    ASSERT_TRUE(
        WriteFrame(fd, serve::EncodeRequest(request), 5000).ok());
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < 16; ++i) {
    auto payload = ReadFrame(fd, 10000);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    Reply reply;
    ASSERT_TRUE(
        serve::DecodeReply(*payload, RequestType::kClassify, &reply).ok());
    if (reply.status == ReplyStatus::kOk) ++ok;
    if (reply.status == ReplyStatus::kOverloaded) ++shed;
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(ok + shed, 16);
  ::close(fd);
}

TEST_F(ServeTest, ExpiredDeadlinesGetTypedRepliesWithoutScoring) {
  BootstrapRegistry();
  StartServer();
  FaultInjector::Get().ArmSite("serve:batch", FaultKind::kStall,
                               /*times=*/4, /*skip=*/0, /*payload=*/80);
  const int fd = MustConnect();
  Request request;
  request.type = RequestType::kTopK;
  request.id = 7;
  request.relation = 0;
  request.anchor = 1;
  request.k = 3;
  request.deadline_ms = 1;  // expires during the injected stall
  auto reply = Call(fd, request, 10000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, ReplyStatus::kDeadlineExceeded);
  EXPECT_EQ(reply->id, 7u);
  ::close(fd);
}

TEST_F(ServeTest, ShutdownDrainsQueuedRequestsBeforeExit) {
  BootstrapRegistry();
  ServeOptions options;
  options.max_batch = 1;
  StartServer(options);
  // Slow batches so requests queue up behind the first one.
  FaultInjector::Get().ArmSite("serve:batch", FaultKind::kStall,
                               /*times=*/8, /*skip=*/0, /*payload=*/60);
  const int fd = MustConnect();
  constexpr int kQueued = 4;
  for (int i = 0; i < kQueued; ++i) {
    Request request;
    request.type = RequestType::kClassify;
    request.id = 200 + static_cast<uint64_t>(i);
    request.triple = Triple{1, 0, 2};
    ASSERT_TRUE(WriteFrame(fd, serve::EncodeRequest(request), 5000).ok());
  }
  // Give the reader a moment to enqueue, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread shutdown([&] { server_->Shutdown(); });
  int answered = 0;
  for (int i = 0; i < kQueued; ++i) {
    auto payload = ReadFrame(fd, 10000);
    if (!payload.ok()) break;  // EOF after the last queued reply
    Reply reply;
    ASSERT_TRUE(
        serve::DecodeReply(*payload, RequestType::kClassify, &reply).ok());
    if (reply.status == ReplyStatus::kOk) ++answered;
  }
  shutdown.join();
  // Every request the server admitted before the drain must be answered.
  EXPECT_GT(answered, 0);
  ::close(fd);
}

TEST_F(ServeTest, RepinPicksUpRotationBetweenBatches) {
  BootstrapRegistry();
  StartServer();
  const int fd = MustConnect();
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 1;
  auto before = Call(fd, ping);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->generation, 0);

  // Publish generation 1 while the server is live.
  StreamIngestorOptions options;
  options.epochs = 2;
  options.train_seed = 21;
  options.threads = 1;
  options.epsilon = 1.0;  // generous gate: tiny models jitter
  StreamIngestor ingestor(*registry_, options);
  const std::vector<std::string> lines = {"e0\tr0\te7", "e3\tr1\te9",
                                          "e5\tr0\te11"};
  auto report = ingestor.IngestBatch(lines, "batch-000", 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->published()) << report->outcome;

  // The batch loop repins between batches, so a scored request must reach
  // the new generation (ping replies echo whatever is currently pinned).
  Request request;
  request.type = RequestType::kClassify;
  request.id = 2;
  request.triple = Triple{0, 0, 1};
  auto after = Call(fd, request, 10000);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->status, ReplyStatus::kOk);
  EXPECT_EQ(after->generation, 1);
  ::close(fd);
}

TEST_F(ServeTest, ConnectionCapRejectsExtraConnections) {
  BootstrapRegistry();
  ServeOptions options;
  options.max_connections = 1;
  StartServer(options);
  const int first = MustConnect();
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 1;
  ASSERT_TRUE(Call(first, ping).ok());  // first connection is live
  const int second = MustConnect();     // beyond the cap: closed by server
  auto reply = Call(second, ping, 3000);
  EXPECT_FALSE(reply.ok());
  ::close(second);
  ::close(first);
}

}  // namespace
}  // namespace kgc
