#include "net/remote_session.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/allocator.h"

namespace seq {

namespace {

void AppendRange(const std::optional<Span>& range, WireWriter* w) {
  w->U8(range.has_value() ? 1 : 0);
  if (range.has_value()) {
    w->I64(range->start);
    w->I64(range->end);
  }
}

}  // namespace

Result<std::unique_ptr<RemoteSession>> RemoteSession::Connect(
    const std::string& host, int port) {
  ConfigureAllocator();
  const std::string dial = (host.empty() || host == "localhost")
                               ? std::string("127.0.0.1")
                               : host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, dial.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host address '" + dial +
                                   "' (IPv4 dotted quad expected)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect " + dial + ":" + std::to_string(port) +
                               ": " + err);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto session = std::unique_ptr<RemoteSession>(new RemoteSession());
  session->fd_ = fd;
  WireWriter hello;
  hello.U32(kWireProtocolVersion);
  hello.Str("seqsh");
  Result<ExecuteReply> reply = session->RoundTrip(Opcode::kHello, hello);
  if (!reply.ok()) return reply.status();
  return session;
}

RemoteSession::~RemoteSession() {
  Close();
  if (fd_ >= 0) ::close(fd_);
}

void RemoteSession::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Best-effort GOODBYE when no request is in flight; if one is, the
  // shutdown below unblocks it and the server treats the drop as a
  // disconnect, cancelling the query server-side.
  if (mu_.try_lock()) {
    WireWriter goodbye(next_request_++, Opcode::kGoodbye);
    WriteFrame(fd_, &goodbye);
    mu_.unlock();
  }
  ::shutdown(fd_, SHUT_RDWR);
}

void RemoteSession::AppendOptions(WireWriter* w) const {
  EncodeRunOptions(CaptureWireRunOptions(options_, collect_stats_), w);
}

Result<ExecuteReply> RemoteSession::RoundTrip(Opcode opcode,
                                              const WireWriter& body,
                                              uint64_t* value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Cancelled("session " + std::to_string(id_) + " is closed");
  }
  const uint64_t rid = next_request_++;
  WireWriter request(rid, opcode);
  request.Bytes(body.data(), body.size());
  Status sent = WriteFrame(fd_, &request);
  if (!sent.ok()) {
    closed_.store(true, std::memory_order_release);
    return sent;
  }
  ExecuteReply reply;
  Frame frame;
  PosRecord sink_row;  // reused: a sink run allocates nothing per row
  for (;;) {
    bool clean_eof = false;
    Status s = ReadFrame(fd_, &frame, &clean_eof);
    if (!s.ok()) {
      closed_.store(true, std::memory_order_release);
      return Status::Unavailable("server connection lost: " + s.message());
    }
    if (frame.request_id != rid) continue;  // stale reply; skip
    WireCursor c(frame.body);
    switch (static_cast<Opcode>(frame.opcode)) {
      case Opcode::kReplyHello: {
        uint32_t version = 0;
        uint64_t session_id = 0;
        std::string banner;
        SEQ_RETURN_IF_ERROR(c.U32(&version));
        SEQ_RETURN_IF_ERROR(c.U64(&session_id));
        SEQ_RETURN_IF_ERROR(c.Str(&banner));
        // Adopt the server's id so `.queries` attribution (s<id>) matches
        // what this client prints.
        id_ = session_id;
        break;
      }
      case Opcode::kReplyText: {
        std::string text;
        SEQ_RETURN_IF_ERROR(c.Str(&text));
        reply.text += text;
        break;
      }
      case Opcode::kReplySchema: {
        SEQ_ASSIGN_OR_RETURN(reply.schema, DecodeSchema(&c));
        break;
      }
      case Opcode::kReplyRows: {
        uint32_t n = 0;
        SEQ_RETURN_IF_ERROR(c.U32(&n));
        for (uint32_t i = 0; i < n; ++i) {
          if (options_.sink) {
            SEQ_RETURN_IF_ERROR(DecodeRow(&c, &sink_row));
            options_.sink(sink_row.pos, sink_row.rec);
          } else {
            SEQ_RETURN_IF_ERROR(DecodeRow(&c, &reply.rows.emplace_back()));
          }
        }
        break;
      }
      case Opcode::kReplyDone: {
        DoneReply done;
        SEQ_RETURN_IF_ERROR(DecodeDone(&c, &done));
        SEQ_RETURN_IF_ERROR(DoneToStatus(done));
        if (value != nullptr) *value = done.value;
        reply.is_rows = done.is_rows;
        reply.has_stats = done.has_stats;
        reply.stats = done.stats;
        return reply;
      }
      default:
        return Status::Internal("unexpected reply opcode " +
                                std::to_string(frame.opcode));
    }
  }
}

Result<ExecuteReply> RemoteSession::Execute(const std::string& source) {
  WireWriter w;
  AppendOptions(&w);
  AppendRange(range_, &w);
  w.Str(source);
  return RoundTrip(Opcode::kQuery, w);
}

Result<uint64_t> RemoteSession::Prepare(const std::string& source) {
  WireWriter w;
  AppendOptions(&w);
  AppendRange(range_, &w);
  w.Str(source);
  uint64_t statement_id = 0;
  Result<ExecuteReply> reply = RoundTrip(Opcode::kPrepare, w, &statement_id);
  if (!reply.ok()) return reply.status();
  return statement_id;
}

Result<ExecuteReply> RemoteSession::ExecutePrepared(uint64_t statement_id) {
  WireWriter w;
  AppendOptions(&w);
  w.U64(statement_id);
  return RoundTrip(Opcode::kExecutePrepared, w);
}

Status RemoteSession::CloseStatement(uint64_t statement_id) {
  WireWriter w;
  w.U64(statement_id);
  return RoundTrip(Opcode::kCloseStatement, w).status();
}

Status RemoteSession::Suspend(uint64_t query_id) {
  WireWriter w;
  w.U64(query_id);
  return RoundTrip(Opcode::kSuspend, w).status();
}

Result<ExecuteReply> RemoteSession::Resume(const std::string& checkpoint_path) {
  WireWriter w;
  AppendOptions(&w);
  w.Str(checkpoint_path);
  return RoundTrip(Opcode::kResume, w);
}

Result<std::string> RemoteSession::Telemetry(const std::string& kind) {
  WireWriter w;
  w.Str(kind);
  Result<ExecuteReply> reply = RoundTrip(Opcode::kTelemetry, w);
  if (!reply.ok()) return reply.status();
  return reply->text;
}

Result<std::string> RemoteSession::Command(
    const std::vector<std::string>& args) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(args.size()));
  for (const std::string& arg : args) w.Str(arg);
  Result<ExecuteReply> reply = RoundTrip(Opcode::kCommand, w);
  if (!reply.ok()) return reply.status();
  return reply->text;
}

}  // namespace seq
