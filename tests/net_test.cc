// Integration tests for the seqserved network layer (net/server.h,
// net/remote_session.h, net/wire.h): remote results byte-identical to
// local execution, concurrent clients sweeping prepared statements
// through the plan cache, disconnect-cancels-in-flight, and
// malformed-frame robustness — a hostile or broken peer gets a clean
// protocol error or connection close, never a crash.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/session.h"
#include "exec/scheduler.h"
#include "net/remote_session.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "parser/parser.h"
#include "workload/generators.h"

namespace seq {
namespace {

using Clock = std::chrono::steady_clock;

// Exact row equality. Doubles cross the wire as bit patterns, so remote
// answers must compare equal with ==, not approximately.
void ExpectRowsEqual(const std::vector<PosRecord>& want,
                     const std::vector<PosRecord>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].pos, got[i].pos) << "row " << i;
    ASSERT_EQ(want[i].rec.size(), got[i].rec.size()) << "row " << i;
    for (size_t j = 0; j < want[i].rec.size(); ++j) {
      const Value& a = want[i].rec[j];
      const Value& b = got[i].rec[j];
      ASSERT_EQ(a.type(), b.type()) << "row " << i << " col " << j;
      switch (a.type()) {
        case TypeId::kInt64:
          EXPECT_EQ(a.int64(), b.int64()) << "row " << i << " col " << j;
          break;
        case TypeId::kDouble:
          EXPECT_EQ(a.dbl(), b.dbl()) << "row " << i << " col " << j;
          break;
        case TypeId::kBool:
          EXPECT_EQ(a.boolean(), b.boolean()) << "row " << i << " col " << j;
          break;
        case TypeId::kString:
          EXPECT_EQ(a.str(), b.str()) << "row " << i << " col " << j;
          break;
      }
    }
  }
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SeqServer>();
    LocalSession seed(&server_->engine(), &server_->gate());
    auto gen = seed.Command({"gen", "ibm", "1", "400", "1.0", "7"});
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    auto port = server_->Start("127.0.0.1", 0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  void TearDown() override {
    server_->Stop();
    server_->Stop();  // idempotent
  }

  std::unique_ptr<RemoteSession> Dial() {
    auto session = RemoteSession::Connect("127.0.0.1", port_);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    return session.ok() ? std::move(*session) : nullptr;
  }

  // Local execution against the very same engine, for parity checks.
  std::vector<PosRecord> RunLocal(const std::string& source) {
    LocalSession local(&server_->engine(), &server_->gate());
    auto reply = local.Execute(source);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? std::move(reply->rows) : std::vector<PosRecord>{};
  }

  // Raw client socket for malformed-frame probes.
  int RawConnect() {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval tv{};
    tv.tv_sec = 10;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << strerror(errno);
    return fd;
  }

  static void SendRaw(int fd, const std::string& bytes) {
    ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  // Drains the socket until the server closes it. Returns false if the
  // receive timeout fired first (server failed to close).
  static bool DrainUntilClose(int fd) {
    char buf[4096];
    while (true) {
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  // Performs the HELLO exchange on a raw socket.
  void RawHello(int fd) {
    WireWriter frame(1, Opcode::kHello);
    frame.U32(kWireProtocolVersion);
    frame.Str("net_test-raw");
    ASSERT_TRUE(WriteFrame(fd, &frame).ok());
    bool done = false;
    while (!done) {
      Frame frame;
      bool clean_eof = false;
      auto s = ReadFrame(fd, &frame, &clean_eof);
      ASSERT_TRUE(s.ok()) << s.ToString();
      if (frame.opcode == static_cast<uint8_t>(Opcode::kReplyDone)) {
        WireCursor cursor(frame.body);
        DoneReply reply;
        ASSERT_TRUE(DecodeDone(&cursor, &reply).ok());
        ASSERT_TRUE(DoneToStatus(reply).ok()) << DoneToStatus(reply).ToString();
        done = true;
      }
    }
  }

  // Reads reply frames for one request until DONE; returns its status.
  static Status ReadDone(int fd) {
    while (true) {
      Frame frame;
      bool clean_eof = false;
      Status s = ReadFrame(fd, &frame, &clean_eof);
      if (!s.ok()) return s;
      if (frame.opcode == static_cast<uint8_t>(Opcode::kReplyDone)) {
        WireCursor cursor(frame.body);
        DoneReply reply;
        SEQ_RETURN_IF_ERROR(DecodeDone(&cursor, &reply));
        return DoneToStatus(reply);
      }
    }
  }

  std::unique_ptr<SeqServer> server_;
  int port_ = 0;
};

constexpr const char* kQuery = "q = select(ibm, close > 100.0);";

TEST_F(NetTest, HelloAssignsServerSessionId) {
  auto session = Dial();
  ASSERT_NE(session, nullptr);
  EXPECT_GT(session->id(), 0u);

  auto other = Dial();
  ASSERT_NE(other, nullptr);
  EXPECT_NE(session->id(), other->id());
}

TEST_F(NetTest, VersionMismatchRejected) {
  int fd = RawConnect();
  WireWriter frame(1, Opcode::kHello);
  frame.U32(kWireProtocolVersion + 1);
  frame.Str("net_test-bad-version");
  ASSERT_TRUE(WriteFrame(fd, &frame).ok());
  Status s = ReadDone(fd);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
  EXPECT_TRUE(DrainUntilClose(fd));
  close(fd);
}

TEST_F(NetTest, RemoteRowsAreByteIdenticalToLocal) {
  const std::vector<PosRecord> want = RunLocal(kQuery);
  ASSERT_FALSE(want.empty());

  auto session = Dial();
  ASSERT_NE(session, nullptr);
  auto reply = session->Execute(kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->is_rows);
  ASSERT_NE(reply->schema, nullptr);
  ExpectRowsEqual(want, reply->rows);

  // Bare-name shortcut and EXPLAIN text work identically over the wire.
  auto rerun = session->Execute("q;");
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  ExpectRowsEqual(want, rerun->rows);
  auto explain = session->Execute("explain q;");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_FALSE(explain->is_rows);
  EXPECT_FALSE(explain->text.empty());
}

// The net.* byte counters against the frame layout: every frame costs
// 4 (length prefix) + 9 (request id, opcode) + its body, counted once.
TEST_F(NetTest, ByteCountersMatchTheFrameLayout) {
  constexpr size_t kFrameOverhead = 4 + 9;
  const std::string source = "ibm;";
  LocalSession local(&server_->engine(), &server_->gate());
  auto want = local.Execute(source);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(want->is_rows);
  ASSERT_NE(want->schema, nullptr);
  ASSERT_GT(want->rows.size(), kRowBatchRows);  // more than one ROWS frame

  // The reply: ROWS frames of at most kRowBatchRows rows, then SCHEMA,
  // then a DONE with an empty message and no stats.
  int64_t reply_bytes = 0;
  size_t batch_rows = 0;
  size_t batch_bytes = 0;
  auto close_batch = [&] {
    reply_bytes += static_cast<int64_t>(kFrameOverhead + 4 + batch_bytes);
    batch_rows = 0;
    batch_bytes = 0;
  };
  for (const PosRecord& row : want->rows) {
    batch_bytes += 8 + 4;
    for (const Value& v : row.rec) {
      switch (v.type()) {
        case TypeId::kInt64:
        case TypeId::kDouble:
          batch_bytes += 1 + 8;
          break;
        case TypeId::kBool:
          batch_bytes += 1 + 1;
          break;
        case TypeId::kString:
          batch_bytes += 1 + 4 + v.str().size();
          break;
      }
    }
    if (++batch_rows == kRowBatchRows) close_batch();
  }
  if (batch_rows > 0) close_batch();
  ASSERT_TRUE(want->text.empty());
  size_t schema_body = 4;
  for (const Field& f : want->schema->fields()) {
    schema_body += 4 + f.name.size() + 1;
  }
  reply_bytes += static_cast<int64_t>(kFrameOverhead + schema_body);
  reply_bytes += static_cast<int64_t>(kFrameOverhead + 1 + 4 + 8 + 1 + 1);

  // The server counts a frame after its send returns, so a client can
  // read a DONE before it is counted. It counts the request once every
  // reply frame is sent and counted: waiting on net.requests makes the
  // counters quiet.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t requests = metrics.Get("net.requests");
  auto wait_for_requests = [&](int64_t n) {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (metrics.Get("net.requests") - requests < n &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(metrics.Get("net.requests") - requests, n);
  };
  auto session = Dial();
  ASSERT_NE(session, nullptr);
  wait_for_requests(1);  // HELLO
  WireWriter request;
  EncodeRunOptions(CaptureWireRunOptions(session->options(), false),
                   &request);
  request.U8(0);  // no range
  request.Str(source);

  const int64_t frames_in = metrics.Get("net.frames_in");
  const int64_t bytes_in = metrics.Get("net.bytes_in");
  const int64_t bytes_out = metrics.Get("net.bytes_out");
  auto reply = session->Execute(source);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->rows.size(), want->rows.size());
  wait_for_requests(2);

  EXPECT_EQ(metrics.Get("net.frames_in") - frames_in, 1);
  EXPECT_EQ(metrics.Get("net.bytes_in") - bytes_in,
            static_cast<int64_t>(kFrameOverhead + request.size()));
  EXPECT_EQ(metrics.Get("net.bytes_out") - bytes_out, reply_bytes);
}

TEST_F(NetTest, RemoteSinkStreamsRowBatches) {
  const std::vector<PosRecord> want = RunLocal(kQuery);
  auto session = Dial();
  ASSERT_NE(session, nullptr);

  std::vector<PosRecord> streamed;
  session->options().sink = [&streamed](Position pos, const Record& rec) {
    streamed.push_back({pos, rec});
  };
  auto reply = session->Execute(kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->rows.empty());
  ExpectRowsEqual(want, streamed);
}

TEST_F(NetTest, SessionViewsDoNotCollideAcrossConnections) {
  auto a = Dial();
  auto b = Dial();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  auto ra = a->Execute("w = select(ibm, close > 100.0);");
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rb = b->Execute("w = select(ibm, close <= 100.0);");
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra->rows.size() + rb->rows.size(), 400u);

  // Disconnecting a session frees its views; a fresh connection cannot
  // see them.
  a->Close();
  auto c = Dial();
  ASSERT_NE(c, nullptr);
  auto rc = c->Execute("w;");
  ASSERT_FALSE(rc.ok());
  EXPECT_EQ(rc.status().code(), StatusCode::kNotFound);
}

TEST_F(NetTest, ConcurrentClientsSweepPreparedStatements) {
  constexpr int kClients = 8;
  constexpr int kRepeats = 5;
  constexpr const char* kPrepared = "p = avg(ibm, close, over 10, as m);";

  const std::vector<PosRecord> want = RunLocal(kPrepared);
  ASSERT_FALSE(want.empty());

  // Warm the parameterized plan cache so every client's Prepare is a
  // repeat shape.
  {
    LocalSession warm(&server_->engine(), &server_->gate());
    auto cmd = warm.Command({"plancache", "on"});
    ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
    auto id = warm.Prepare(kPrepared);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  const int64_t hits_before =
      MetricsRegistry::Global().Get("engine.plan_cache.hits");

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, &want, &failures] {
      auto session = RemoteSession::Connect("127.0.0.1", port_);
      if (!session.ok()) {
        ++failures;
        return;
      }
      auto id = (*session)->Prepare(kPrepared);
      if (!id.ok()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRepeats; ++r) {
        auto reply = (*session)->ExecutePrepared(*id);
        if (!reply.ok() || !reply->is_rows ||
            reply->rows.size() != want.size()) {
          ++failures;
          return;
        }
        for (size_t i = 0; i < want.size(); ++i) {
          if (want[i].pos != reply->rows[i].pos ||
              want[i].rec.size() != reply->rows[i].rec.size()) {
            ++failures;
            return;
          }
          for (size_t j = 0; j < want[i].rec.size(); ++j) {
            const Value& a = want[i].rec[j];
            const Value& b = reply->rows[i].rec[j];
            if (a.type() != b.type()) {
              ++failures;
              return;
            }
            bool equal = true;
            switch (a.type()) {
              case TypeId::kInt64:
                equal = a.int64() == b.int64();
                break;
              case TypeId::kDouble:
                equal = a.dbl() == b.dbl();
                break;
              case TypeId::kBool:
                equal = a.boolean() == b.boolean();
                break;
              case TypeId::kString:
                equal = a.str() == b.str();
                break;
            }
            if (!equal) {
              ++failures;
              return;
            }
          }
        }
      }
      if (!(*session)->CloseStatement(*id).ok()) ++failures;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // All eight Prepares after the warmup hit the cached template — also
  // under SEQ_PLAN_CACHE=0, since `plancache on` above is the cache's one
  // switch.
  const int64_t hits_after =
      MetricsRegistry::Global().Get("engine.plan_cache.hits");
  EXPECT_GE(hits_after - hits_before, kClients);
}

TEST_F(NetTest, DisconnectCancelsInFlightQueryAndReleasesSlot) {
  {
    LocalSession seed(&server_->engine(), &server_->gate());
    auto gen = seed.Command({"gen", "big", "1", "1500000", "1.0", "3"});
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  }

  auto session = Dial();
  ASSERT_NE(session, nullptr);
  // Ask for parallel execution so the run holds a scheduler admission
  // slot that the cancel must release.
  session->options().exec.parallelism = 2;
  const uint64_t sid = session->id();

  std::atomic<bool> finished{false};
  Status run_status = Status::OK();
  std::thread runner([&] {
    auto reply = session->Execute(
        "h = avg(avg(big, close, over 500, as a), a, over 500, as b);");
    run_status = reply.status();
    finished.store(true);
  });

  // Wait until the registry shows the query live under this session.
  bool seen_live = false;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline && !finished.load()) {
    for (const LiveQueryInfo& q : QueryRegistry::Global().Live()) {
      if (q.session_id == sid) {
        seen_live = true;
        break;
      }
    }
    if (seen_live) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(seen_live) << "query never appeared live (finished="
                         << finished.load()
                         << " status=" << run_status.ToString() << ")";

  // Drop the connection mid-query: the server's reader closes the
  // session, which trips the cooperative cancel.
  session->Close();
  runner.join();
  EXPECT_FALSE(run_status.ok());

  // The run must complete as Cancelled and leave the live registry.
  bool cancelled = false;
  bool drained = false;
  const auto finish_deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < finish_deadline && !(cancelled && drained)) {
    cancelled = false;
    for (const CompletedQueryInfo& q : QueryRegistry::Global().Recent()) {
      if (q.session_id == sid && q.status == "Cancelled") {
        cancelled = true;
        break;
      }
    }
    drained = true;
    for (const LiveQueryInfo& q : QueryRegistry::Global().Live()) {
      if (q.session_id == sid) drained = false;
    }
    if (!(cancelled && drained)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(cancelled) << "no Cancelled completion for session " << sid;
  EXPECT_TRUE(drained) << "query still live after disconnect";

  // The admission slot released with the run.
  const auto slot_deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < slot_deadline &&
         QueryScheduler::Global().Stats().running > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(QueryScheduler::Global().Stats().running, 0);
}

TEST_F(NetTest, BudgetsTravelOverTheWire) {
  auto session = Dial();
  ASSERT_NE(session, nullptr);
  session->options().exec.guards.max_rows = 5;
  auto reply = session->Execute("ibm;");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted)
      << reply.status().ToString();

  // The same connection keeps working once the budget is lifted.
  session->options().exec.guards.max_rows = 0;
  auto ok = session->Execute("ibm;");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), 400u);
}

TEST_F(NetTest, TelemetryAndCommandsOverTheWire) {
  auto session = Dial();
  ASSERT_NE(session, nullptr);

  auto metrics = session->Telemetry("metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("net.connections"), std::string::npos);
  EXPECT_NE(metrics->find("net.requests"), std::string::npos);

  auto sched = session->Telemetry("sched");
  ASSERT_TRUE(sched.ok());
  EXPECT_FALSE(sched->empty());

  auto bogus = session->Telemetry("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);

  auto list = session->Command({"list"});
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_NE(list->find("ibm"), std::string::npos);

  // Registry attribution is visible remotely under the server session id.
  ASSERT_TRUE(session->Execute("ibm;").ok());
  auto queries = session->Telemetry("queries");
  ASSERT_TRUE(queries.ok());
  EXPECT_NE(queries->find("s" + std::to_string(session->id())),
            std::string::npos);
}

TEST_F(NetTest, MalformedFramesNeverCrashTheServer) {
  const int64_t errors_before =
      MetricsRegistry::Global().Get("net.protocol_errors");

  // Truncated length prefix, then EOF: the server just drops the
  // connection.
  {
    int fd = RawConnect();
    SendRaw(fd, std::string("\x02\x00", 2));
    close(fd);
  }

  // Oversized declared length: unrecoverable, server closes.
  {
    int fd = RawConnect();
    WireWriter prefix;
    prefix.U32(kMaxFrameBytes + 1);
    SendRaw(fd, std::string(prefix.data(), prefix.size()));
    EXPECT_TRUE(DrainUntilClose(fd)) << "server kept oversized-frame conn";
    close(fd);
  }

  // Payload shorter than the request header (9 bytes): framing error,
  // server closes after an error DONE.
  {
    int fd = RawConnect();
    WireWriter frame;
    frame.U32(5);
    frame.U32(0xdeadbeef);
    frame.U8(0x7f);
    SendRaw(fd, std::string(frame.data(), frame.size()));
    EXPECT_TRUE(DrainUntilClose(fd)) << "server kept short-payload conn";
    close(fd);
  }

  // Truncated body: declared 100 bytes, sent 10, then EOF.
  {
    int fd = RawConnect();
    WireWriter frame;
    frame.U32(100);
    SendRaw(fd, std::string(frame.data(), frame.size()));
    SendRaw(fd, std::string(10, 'x'));
    close(fd);
  }

  // Unknown opcode on an established session: error DONE, but the
  // connection survives and keeps serving.
  {
    int fd = RawConnect();
    RawHello(fd);
    WireWriter unknown(2, static_cast<Opcode>(42));
    ASSERT_TRUE(WriteFrame(fd, &unknown).ok());
    Status bad = ReadDone(fd);
    EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument) << bad.ToString();

    WireWriter telemetry(3, Opcode::kTelemetry);
    telemetry.Str("metrics");
    ASSERT_TRUE(WriteFrame(fd, &telemetry).ok());
    Status after = ReadDone(fd);
    EXPECT_TRUE(after.ok()) << after.ToString();
    close(fd);
  }

  // Garbage body for a known opcode: decode error DONE, connection
  // survives.
  {
    int fd = RawConnect();
    RawHello(fd);
    WireWriter garbage(2, Opcode::kQuery);
    garbage.Bytes("\x01\x02\x03", 3);
    ASSERT_TRUE(WriteFrame(fd, &garbage).ok());
    Status bad = ReadDone(fd);
    EXPECT_FALSE(bad.ok());

    WireWriter telemetry(3, Opcode::kTelemetry);
    telemetry.Str("metrics");
    ASSERT_TRUE(WriteFrame(fd, &telemetry).ok());
    EXPECT_TRUE(ReadDone(fd).ok());
    close(fd);
  }

  EXPECT_GT(MetricsRegistry::Global().Get("net.protocol_errors"),
            errors_before);

  // After every probe the server still accepts and serves new sessions.
  auto session = Dial();
  ASSERT_NE(session, nullptr);
  auto reply = session->Execute("ibm;");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->rows.size(), 400u);
}

TEST_F(NetTest, ServerStopDisconnectsClients) {
  auto session = Dial();
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(session->Execute("ibm;").ok());

  server_->Stop();

  auto reply = session->Execute("ibm;");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
      << reply.status().ToString();

  // A closed remote session reports Cancelled on further use.
  auto again = session->Execute("ibm;");
  ASSERT_FALSE(again.ok());
}

}  // namespace
}  // namespace seq
