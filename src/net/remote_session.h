#ifndef SEQ_NET_REMOTE_SESSION_H_
#define SEQ_NET_REMOTE_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/session.h"
#include "net/wire.h"

namespace seq {

/// A Session speaking the wire protocol to a seqserved instance — the
/// engine behind seqsh --connect. Every Session call becomes one request
/// frame and blocks until its DONE reply; row batches stream into
/// `options().sink` when set, otherwise they accumulate in the reply, so
/// a remote query behaves exactly like LocalSession from the caller's
/// side. id() reports the server-assigned session id (what `.queries`
/// shows as s<id>).
///
/// Thread contract: requests are serialized on an internal mutex; Close()
/// may be called from any thread and unblocks an in-flight request by
/// shutting the socket down (the server sees the disconnect and cancels
/// the query).
class RemoteSession : public Session {
 public:
  /// Dials `host:port` (IPv4 dotted quad or "localhost") and performs the
  /// HELLO exchange; fails on unreachable server or version mismatch.
  static Result<std::unique_ptr<RemoteSession>> Connect(
      const std::string& host, int port);

  ~RemoteSession() override;

  Result<ExecuteReply> Execute(const std::string& source) override;
  Result<uint64_t> Prepare(const std::string& source) override;
  Result<ExecuteReply> ExecutePrepared(uint64_t statement_id) override;
  Status CloseStatement(uint64_t statement_id) override;
  Status Suspend(uint64_t query_id) override;
  Result<ExecuteReply> Resume(const std::string& checkpoint_path) override;
  Result<std::string> Telemetry(const std::string& kind) override;
  Result<std::string> Command(const std::vector<std::string>& args) override;
  void Close() override;

 private:
  RemoteSession() = default;

  /// Sends one request and consumes reply frames until DONE. `value`
  /// receives the DONE value field (statement id / row count).
  Result<ExecuteReply> RoundTrip(Opcode opcode, const WireWriter& body,
                                 uint64_t* value = nullptr);
  /// Appends the session options + stats toggle blob that prefixes
  /// query-bearing requests.
  void AppendOptions(WireWriter* w) const;

  int fd_ = -1;
  uint64_t next_request_ = 1;
  std::mutex mu_;
  std::atomic<bool> closed_{false};
};

}  // namespace seq

#endif  // SEQ_NET_REMOTE_SESSION_H_
