#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>

#include "core/session.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace seq {

namespace {

/// The net.* metrics, resolved once so that no frame takes the registry
/// mutex or looks a name up.
struct NetMetrics {
  MetricCounter& connections;
  MetricCounter& disconnects;
  MetricCounter& requests;
  MetricCounter& protocol_errors;
  MetricCounter& frames_in;
  MetricCounter& bytes_in;
  MetricCounter& bytes_out;
  MetricCounter& rows_streamed;
  Histogram& request_us;

  static NetMetrics& Get() {
    static NetMetrics metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return NetMetrics{r.Counter("net.connections"),
                        r.Counter("net.disconnects"),
                        r.Counter("net.requests"),
                        r.Counter("net.protocol_errors"),
                        r.Counter("net.frames_in"),
                        r.Counter("net.bytes_in"),
                        r.Counter("net.bytes_out"),
                        r.Counter("net.rows_streamed"),
                        r.GetHistogram("net.request_us")};
    }();
    return metrics;
  }
};

/// Sole writer for one connection: frames out, net.bytes_out accounting,
/// and sticky failure — after one failed write nothing else is attempted,
/// the connection tears down.
class ReplyWriter {
 public:
  explicit ReplyWriter(int fd) : fd_(fd) {}

  /// Sends `frame`, built in place by the frame constructor of WireWriter.
  bool Send(WireWriter* frame) {
    if (failed_) return false;
    if (!WriteFrame(fd_, frame).ok()) {
      failed_ = true;
      return false;
    }
    NetMetrics::Get().bytes_out.Add(static_cast<int64_t>(frame->size()));
    return true;
  }

  bool SendDone(uint64_t request_id, const Status& status, uint64_t value = 0,
                bool is_rows = false, const AccessStats* stats = nullptr) {
    WireWriter frame(request_id, Opcode::kReplyDone);
    EncodeDone(status, value, is_rows, stats, &frame);
    return Send(&frame);
  }

  bool SendText(uint64_t request_id, const std::string& text) {
    WireWriter frame(request_id, Opcode::kReplyText);
    frame.Str(text);
    return Send(&frame);
  }

  bool failed() const { return failed_; }

 private:
  int fd_;
  bool failed_ = false;
};

/// Accumulates streamed rows into ROWS frames, flushing on the batch
/// thresholds so a large result leaves the server incrementally instead
/// of materializing. Installed as the session's RowSink for QUERY and
/// EXECUTE-PREPARED (except checkpoint-enabled runs, where sink execution
/// is invalid and the server falls back to materialized delivery).
///
/// Rows are encoded straight into one frame buffer behind a placeholder
/// row count; a flush patches the count, sends, and cuts the buffer back
/// to its header, so the buffer is reused for the next batch.
class RowStreamer {
 public:
  RowStreamer(ReplyWriter* out, uint64_t request_id)
      : out_(out),
        frame_(request_id, Opcode::kReplyRows),
        count_at_(frame_.size()) {
    frame_.U32(0);
  }

  void Add(Position pos, const Record& rec) {
    if (out_->failed()) return;
    EncodeRow(pos, rec, &frame_);
    ++rows_;
    ++total_;
    if (rows_ >= kRowBatchRows ||
        frame_.size() - (count_at_ + 4) >= kRowBatchBytes) {
      Flush();
    }
  }

  void Flush() {
    if (rows_ == 0 || out_->failed()) return;
    frame_.PatchU32(count_at_, static_cast<uint32_t>(rows_));
    if (out_->Send(&frame_)) {
      NetMetrics::Get().rows_streamed.Add(static_cast<int64_t>(rows_));
    }
    rows_ = 0;
    frame_.Truncate(count_at_ + 4);
  }

  uint64_t total() const { return total_; }

 private:
  ReplyWriter* out_;
  WireWriter frame_;
  size_t count_at_;  ///< offset of the u32 row count in frame_
  size_t rows_ = 0;
  uint64_t total_ = 0;
};

/// Materialized-row delivery (RESUME, checkpoint-enabled runs): same
/// frames as RowStreamer, fed from the reply vector.
void SendRows(ReplyWriter* out, uint64_t request_id,
              const std::vector<PosRecord>& rows) {
  RowStreamer streamer(out, request_id);
  for (const PosRecord& row : rows) streamer.Add(row.pos, row.rec);
  streamer.Flush();
}

/// Decodes an options blob + range prefix and installs both as the
/// session's defaults for this and subsequent requests.
Status ApplySessionOptions(WireCursor* c, LocalSession* session) {
  WireRunOptions wire;
  SEQ_RETURN_IF_ERROR(DecodeRunOptions(c, &wire));
  ApplyWireRunOptions(wire, &session->options().exec);
  session->set_collect_stats(wire.collect_stats);
  return Status::OK();
}

Status ApplyRange(WireCursor* c, LocalSession* session) {
  uint8_t has_range = 0;
  SEQ_RETURN_IF_ERROR(c->U8(&has_range));
  if (has_range != 0) {
    int64_t start = 0;
    int64_t end = 0;
    SEQ_RETURN_IF_ERROR(c->I64(&start));
    SEQ_RETURN_IF_ERROR(c->I64(&end));
    session->range() = Span::Of(start, end);
  } else {
    session->range().reset();
  }
  return Status::OK();
}

/// Sends the reply tail shared by every row-bearing request: TEXT (view
/// definitions, EXPLAIN output), ROWS already streamed or sent here,
/// SCHEMA, then DONE with the row count and optional stats blob.
void FinishRowReply(ReplyWriter* out, uint64_t request_id,
                    const ExecuteReply& reply, uint64_t streamed_rows,
                    bool streamed) {
  if (!reply.text.empty()) out->SendText(request_id, reply.text);
  uint64_t row_count = 0;
  if (reply.is_rows) {
    if (streamed) {
      row_count = streamed_rows;
    } else {
      SendRows(out, request_id, reply.rows);
      row_count = reply.rows.size();
    }
    if (reply.schema != nullptr) {
      WireWriter frame(request_id, Opcode::kReplySchema);
      EncodeSchema(*reply.schema, &frame);
      out->Send(&frame);
    }
  }
  out->SendDone(request_id, Status::OK(), row_count, reply.is_rows,
                reply.has_stats ? &reply.stats : nullptr);
}

/// Frames read off the socket by the connection's reader thread, consumed
/// in order by the worker. `eof` marks a disconnect (clean or mid-frame);
/// `error` a recoverable-socket / unrecoverable-framing protocol error
/// that the worker reports before closing.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frame> frames;
  bool eof = false;
  bool has_error = false;
  Status error;
};

}  // namespace

struct SeqServer::Conn {
  int fd = -1;
  std::thread worker;
  std::atomic<bool> finished{false};
};

SeqServer::SeqServer()
    : owned_(std::make_unique<Engine>()),
      own_gate_(std::make_unique<std::shared_mutex>()),
      engine_(owned_.get()),
      gate_(own_gate_.get()) {}

SeqServer::SeqServer(Engine* engine, std::shared_mutex* gate)
    : engine_(engine), gate_(gate) {}

SeqServer::~SeqServer() { Stop(); }

Result<int> SeqServer::Start(const std::string& host, int port) {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already started");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string bind_host = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, bind_host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse host address '" + bind_host +
                                   "' (IPv4 dotted quad expected)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("bind " + bind_host + ":" +
                               std::to_string(port) + ": " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("getsockname: " + err);
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void SeqServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    // Unblocks the connection's reader; its session closes, cancelling
    // any in-flight query cooperatively.
    ::shutdown(conn->fd, SHUT_RDWR);
    if (conn->worker.joinable()) conn->worker.join();
    ::close(conn->fd);
  }
}

void SeqServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by Stop()
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Reap connections that already tore themselves down, so a
      // long-lived server does not accumulate dead entries.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->finished.load(std::memory_order_acquire)) {
          if ((*it)->worker.joinable()) (*it)->worker.join();
          ::close((*it)->fd);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      conns_.push_back(std::move(conn));
    }
    raw->worker = std::thread([this, raw] { RunConnection(raw); });
  }
}

namespace {

/// Dispatches one request frame. Returns false when the connection must
/// close (GOODBYE, HELLO mismatch, write failure, protocol misuse).
bool HandleFrame(LocalSession* session, ReplyWriter* out, const Frame& frame,
                 bool* hello_done) {
  NetMetrics& metrics = NetMetrics::Get();
  const uint64_t rid = frame.request_id;
  const Opcode op = static_cast<Opcode>(frame.opcode);
  WireCursor c(frame.body);

  if (!*hello_done && op != Opcode::kHello) {
    metrics.protocol_errors.Add();
    out->SendDone(rid, Status::FailedPrecondition(
                           "first request must be HELLO"));
    return false;
  }

  switch (op) {
    case Opcode::kHello: {
      uint32_t version = 0;
      std::string client;
      Status s = c.U32(&version);
      if (s.ok()) s = c.Str(&client);
      if (!s.ok()) {
        metrics.protocol_errors.Add();
        out->SendDone(rid, s);
        return false;
      }
      if (version != kWireProtocolVersion) {
        out->SendDone(
            rid, Status::InvalidArgument(
                     "protocol version mismatch: client v" +
                     std::to_string(version) + ", server v" +
                     std::to_string(kWireProtocolVersion)));
        return false;
      }
      WireWriter hello(rid, Opcode::kReplyHello);
      hello.U32(kWireProtocolVersion);
      hello.U64(session->id());
      hello.Str("seqserved");
      out->Send(&hello);
      out->SendDone(rid, Status::OK());
      *hello_done = true;
      return !out->failed();
    }

    case Opcode::kQuery:
    case Opcode::kExecutePrepared: {
      Status s = ApplySessionOptions(&c, session);
      std::string source;
      uint64_t statement_id = 0;
      if (s.ok() && op == Opcode::kQuery) s = ApplyRange(&c, session);
      if (s.ok()) {
        s = op == Opcode::kQuery ? c.Str(&source) : c.U64(&statement_id);
      }
      if (!s.ok()) {
        metrics.protocol_errors.Add();
        out->SendDone(rid, s);
        return !out->failed();
      }
      // Stream through the sink unless the run checkpoints (sink +
      // checkpoint execution is invalid — Engine materializes there).
      const bool stream = !session->options().exec.checkpoint.enabled;
      RowStreamer streamer(out, rid);
      if (stream) {
        session->options().sink = [&streamer](Position pos,
                                              const Record& rec) {
          streamer.Add(pos, rec);
        };
      }
      Result<ExecuteReply> result =
          op == Opcode::kQuery ? session->Execute(source)
                               : session->ExecutePrepared(statement_id);
      session->options().sink = RowSink{};
      if (!result.ok()) {
        streamer.Flush();
        out->SendDone(rid, result.status());
        return !out->failed();
      }
      streamer.Flush();
      FinishRowReply(out, rid, *result, streamer.total(), stream);
      return !out->failed();
    }

    case Opcode::kPrepare: {
      Status s = ApplySessionOptions(&c, session);
      std::string source;
      if (s.ok()) s = ApplyRange(&c, session);
      if (s.ok()) s = c.Str(&source);
      if (!s.ok()) {
        metrics.protocol_errors.Add();
        out->SendDone(rid, s);
        return !out->failed();
      }
      Result<uint64_t> id = session->Prepare(source);
      if (!id.ok()) {
        out->SendDone(rid, id.status());
      } else {
        out->SendDone(rid, Status::OK(), *id);
      }
      return !out->failed();
    }

    case Opcode::kCloseStatement:
    case Opcode::kSuspend: {
      uint64_t id = 0;
      Status s = c.U64(&id);
      if (!s.ok()) {
        metrics.protocol_errors.Add();
        out->SendDone(rid, s);
        return !out->failed();
      }
      out->SendDone(rid, op == Opcode::kCloseStatement
                             ? session->CloseStatement(id)
                             : session->Suspend(id));
      return !out->failed();
    }

    case Opcode::kResume: {
      Status s = ApplySessionOptions(&c, session);
      std::string path;
      if (s.ok()) s = c.Str(&path);
      if (!s.ok()) {
        metrics.protocol_errors.Add();
        out->SendDone(rid, s);
        return !out->failed();
      }
      Result<ExecuteReply> result = session->Resume(path);
      if (!result.ok()) {
        out->SendDone(rid, result.status());
        return !out->failed();
      }
      FinishRowReply(out, rid, *result, 0, /*streamed=*/false);
      return !out->failed();
    }

    case Opcode::kTelemetry: {
      std::string kind;
      Status s = c.Str(&kind);
      if (!s.ok()) {
        metrics.protocol_errors.Add();
        out->SendDone(rid, s);
        return !out->failed();
      }
      Result<std::string> text = session->Telemetry(kind);
      if (!text.ok()) {
        out->SendDone(rid, text.status());
      } else {
        out->SendText(rid, *text);
        out->SendDone(rid, Status::OK());
      }
      return !out->failed();
    }

    case Opcode::kCommand: {
      uint32_t argc = 0;
      Status s = c.U32(&argc);
      if (s.ok() && argc > 1024) {
        s = Status::InvalidArgument("command argument count " +
                                    std::to_string(argc) + " is implausible");
      }
      std::vector<std::string> args;
      for (uint32_t i = 0; s.ok() && i < argc; ++i) {
        std::string arg;
        s = c.Str(&arg);
        if (s.ok()) args.push_back(std::move(arg));
      }
      if (!s.ok()) {
        metrics.protocol_errors.Add();
        out->SendDone(rid, s);
        return !out->failed();
      }
      Result<std::string> text = session->Command(args);
      if (!text.ok()) {
        out->SendDone(rid, text.status());
      } else {
        out->SendText(rid, *text);
        out->SendDone(rid, Status::OK());
      }
      return !out->failed();
    }

    case Opcode::kGoodbye:
      out->SendDone(rid, Status::OK());
      return false;

    default:
      metrics.protocol_errors.Add();
      out->SendDone(rid, Status::InvalidArgument(
                             "unknown opcode " +
                             std::to_string(frame.opcode)));
      return !out->failed();
  }
}

}  // namespace

void SeqServer::RunConnection(Conn* conn) {
  NetMetrics& metrics = NetMetrics::Get();
  metrics.connections.Add();

  LocalSession session(engine_, gate_);
  Inbox inbox;

  // Reader: frames in, strictly ordered into the inbox. On disconnect it
  // closes the session first — that flips the cooperative-cancel flag
  // wired into every run's guards, so an in-flight query aborts and its
  // admission slot releases while the worker is still inside Execute().
  std::thread reader([conn, &session, &inbox, &metrics] {
    for (;;) {
      Frame frame;
      bool clean_eof = false;
      Status s = ReadFrame(conn->fd, &frame, &clean_eof);
      if (s.ok()) {
        metrics.frames_in.Add();
        metrics.bytes_in.Add(static_cast<int64_t>(13 + frame.body.size()));
        std::lock_guard<std::mutex> lock(inbox.mu);
        inbox.frames.push_back(std::move(frame));
        inbox.cv.notify_one();
        continue;
      }
      const bool disconnect = clean_eof ||
                              s.code() == StatusCode::kDataLoss ||
                              s.code() == StatusCode::kUnavailable;
      if (s.code() == StatusCode::kDataLoss) {
        metrics.protocol_errors.Add();
      }
      if (disconnect) session.Close();
      std::lock_guard<std::mutex> lock(inbox.mu);
      if (disconnect) {
        inbox.eof = true;
      } else {
        inbox.has_error = true;
        inbox.error = s;
      }
      inbox.cv.notify_one();
      return;
    }
  });

  ReplyWriter out(conn->fd);
  bool hello_done = false;
  for (;;) {
    Frame frame;
    bool have_frame = false;
    bool protocol_error = false;
    Status error;
    {
      std::unique_lock<std::mutex> lock(inbox.mu);
      inbox.cv.wait(lock, [&inbox] {
        return !inbox.frames.empty() || inbox.eof || inbox.has_error;
      });
      if (!inbox.frames.empty()) {
        frame = std::move(inbox.frames.front());
        inbox.frames.pop_front();
        have_frame = true;
      } else if (inbox.has_error) {
        protocol_error = true;
        error = inbox.error;
      }
    }
    if (!have_frame) {
      if (protocol_error) {
        // Unrecoverable framing (oversized/short declared length): report
        // once with request id 0, count it, close.
        metrics.protocol_errors.Add();
        out.SendDone(0, error);
      }
      break;
    }
    const auto start = std::chrono::steady_clock::now();
    const bool keep = HandleFrame(&session, &out, frame, &hello_done);
    metrics.requests.Add();
    metrics.request_us.Record(static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
    if (!keep || out.failed()) break;
  }

  // Teardown: close the session (idempotent), unblock the reader, join.
  // The fd itself is closed by the acceptor's reap or by Stop(), after
  // the worker is joined — never here, to keep fd reuse race-free.
  session.Close();
  ::shutdown(conn->fd, SHUT_RDWR);
  if (reader.joinable()) reader.join();
  metrics.disconnects.Add();
  conn->finished.store(true, std::memory_order_release);
}

}  // namespace seq
