#ifndef SEQ_NET_WIRE_H_
#define SEQ_NET_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "core/engine.h"
#include "storage/access_stats.h"
#include "types/record.h"
#include "types/schema.h"
#include "types/span.h"
#include "types/value.h"

namespace seq {

// ---------------------------------------------------------------------------
// The seqserved wire protocol (docs/server.md).
//
// Every frame is a 4-byte little-endian payload length followed by the
// payload: u64 request id, u8 opcode, opcode-specific body. Request ids
// are chosen by the client and echoed on every reply; each request is
// terminated by exactly one DONE frame (row-batch / schema / text frames
// may precede it). All integers are little-endian; strings are u32 length
// + bytes. The protocol version is exchanged in HELLO and must match
// exactly — there is no cross-version negotiation.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kWireProtocolVersion = 1;

/// Upper bound on a declared payload length. A length above this is a
/// protocol error and closes the connection — it is far more likely a
/// desynchronized or malicious stream than a real frame, and accepting it
/// would let one client commit the server to an arbitrary allocation.
inline constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

/// Row-batch flush thresholds for streaming result delivery.
inline constexpr size_t kRowBatchRows = 256;
inline constexpr size_t kRowBatchBytes = 64 * 1024;

enum class Opcode : uint8_t {
  // Requests.
  kHello = 1,
  kQuery = 2,
  kPrepare = 3,
  kExecutePrepared = 4,
  kCloseStatement = 5,
  kSuspend = 6,
  kResume = 7,
  kTelemetry = 8,
  kCommand = 9,
  kGoodbye = 10,
  // Replies.
  kReplyHello = 64,
  kReplyText = 65,
  kReplySchema = 66,
  kReplyRows = 67,
  kReplyDone = 68,
};

/// The remote-safe execution options carried on every query-bearing
/// request: the subset of ExecOptions a client may set per session
/// (budgets, driving mode, parallelism share, priority, checkpointing).
/// Pointer-valued knobs (sinks, fault injectors, telemetry, cancel flags)
/// never cross the wire — the server owns those.
struct WireRunOptions {
  bool use_batch = true;
  uint64_t batch_capacity = 0;  ///< 0 = server default
  int64_t max_rows = 0;
  int64_t max_pages = 0;
  int64_t max_wall_ms = 0;
  int64_t max_cache_bytes = 0;
  int32_t parallelism = 1;
  uint8_t priority = 1;  ///< QueryPriority enum value
  int64_t admission_timeout_ms = 0;
  bool use_plan_cache = true;
  bool checkpoint_enabled = false;
  int64_t checkpoint_chunk = 0;
  int64_t checkpoint_every = 0;
  std::string checkpoint_path;
  bool collect_stats = false;
};

/// Captures the wire-transportable subset of `opts` (and the session's
/// stats toggle); ApplyWireRunOptions rebuilds ExecOptions server-side.
WireRunOptions CaptureWireRunOptions(const RunOptions& opts,
                                     bool collect_stats);
void ApplyWireRunOptions(const WireRunOptions& wire, ExecOptions* exec);

// ---------------------------------------------------------------------------
// Payload encoding. A WireWriter accumulates one frame (or one request
// body); a WireCursor decodes one with bounds-checked reads — every
// malformed or truncated body surfaces as a Status, never as
// out-of-bounds access.
//
// Fixed-width values are copied in host byte order, one memcpy each. The
// protocol is little-endian, so this holds only on a little-endian host.
// ---------------------------------------------------------------------------

static_assert(std::endian::native == std::endian::little,
              "the wire codec copies integers and doubles in host byte "
              "order; protocol v1 is little-endian");

class WireWriter {
 public:
  /// A bare writer: request bodies and hand-built test bytes.
  WireWriter() = default;
  /// A frame writer. The buffer starts with the u32 length prefix (left
  /// zero; WriteFrame patches it) and the request id + opcode header, so
  /// the body is appended in place and the frame leaves in one send.
  WireWriter(uint64_t request_id, Opcode opcode);

  void U8(uint8_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void I64(int64_t v) { Put(v); }
  /// The 8-byte IEEE-754 bit pattern: the client reassembles the exact
  /// double, so remote rows stay byte-identical to local execution.
  void F64(double v) { Put(v); }
  void Bytes(const char* data, size_t size);
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Value(const class Value& v);
  void Stats(const AccessStats& stats);

  /// Overwrites the u32 at `offset`, a length or count written earlier as
  /// a placeholder.
  void PatchU32(size_t offset, uint32_t v) {
    SEQ_DCHECK(offset + sizeof(v) <= len_);
    std::memcpy(buf_.data() + offset, &v, sizeof(v));
  }
  /// Drops every byte past the first `size`, keeping the allocation.
  void Truncate(size_t size) {
    SEQ_DCHECK(size <= len_);
    len_ = size;
  }

  const char* data() const { return buf_.data(); }
  size_t size() const { return len_; }

 private:
  template <typename T>
  void Put(T v) {
    if (buf_.size() - len_ < sizeof(T)) Grow(sizeof(T));
    std::memcpy(buf_.data() + len_, &v, sizeof(T));
    len_ += sizeof(T);
  }
  /// A value's type tag and fixed-width payload under one capacity check.
  template <typename T>
  void PutTagged(uint8_t tag, T v) {
    if (buf_.size() - len_ < 1 + sizeof(T)) Grow(1 + sizeof(T));
    buf_[len_] = static_cast<char>(tag);
    std::memcpy(buf_.data() + len_ + 1, &v, sizeof(T));
    len_ += 1 + sizeof(T);
  }
  void Grow(size_t need);

  std::string buf_;  ///< storage; only the first len_ bytes are written
  size_t len_ = 0;
};

class WireCursor {
 public:
  explicit WireCursor(const std::string& payload)
      : data_(payload.data()), size_(payload.size()) {}
  WireCursor(const char* data, size_t size) : data_(data), size_(size) {}

  Status U8(uint8_t* v) { return Fixed(v); }
  Status U32(uint32_t* v) { return Fixed(v); }
  Status U64(uint64_t* v) { return Fixed(v); }
  Status I64(int64_t* v) { return Fixed(v); }
  Status F64(double* v) { return Fixed(v); }
  Status Str(std::string* s);
  Status Value(class Value* v);
  Status Stats(AccessStats* stats);

  /// Appends an int64 or double value to `rec`, with one bounds check
  /// covering its tag and 8-byte payload. Returns false, consuming
  /// nothing, for any other tag or a body too short for it; Value() then
  /// takes the checked path.
  bool FixedValue(Record* rec) {
    if (size_ - off_ < 9) return false;
    const uint8_t tag = static_cast<uint8_t>(data_[off_]);
    if (tag == static_cast<uint8_t>(TypeId::kInt64)) {
      int64_t i = 0;
      std::memcpy(&i, data_ + off_ + 1, sizeof(i));
      rec->push_back(seq::Value::Int64(i));
    } else if (tag == static_cast<uint8_t>(TypeId::kDouble)) {
      double d = 0;
      std::memcpy(&d, data_ + off_ + 1, sizeof(d));
      rec->push_back(seq::Value::Double(d));
    } else {
      return false;
    }
    off_ += 9;
    return true;
  }

  size_t remaining() const { return size_ - off_; }
  bool Exhausted() const { return off_ == size_; }

 private:
  template <typename T>
  Status Fixed(T* v) {
    if (size_ - off_ < sizeof(T)) return Truncated(sizeof(T));
    std::memcpy(v, data_ + off_, sizeof(T));
    off_ += sizeof(T);
    return Status::OK();
  }
  Status Truncated(size_t need) const;

  const char* data_;
  size_t size_;
  size_t off_ = 0;
};

/// Options blob used inside request bodies.
void EncodeRunOptions(const WireRunOptions& o, WireWriter* w);
Status DecodeRunOptions(WireCursor* c, WireRunOptions* o);

/// Schema frame body.
void EncodeSchema(const Schema& schema, WireWriter* w);
Result<SchemaPtr> DecodeSchema(WireCursor* c);

/// One row inside a ROWS frame: i64 position, u32 field count, values.
void EncodeRow(Position pos, const Record& rec, WireWriter* w);
Status DecodeRow(WireCursor* c, PosRecord* row);

/// The DONE frame body terminating every request: u8 status code, str
/// message, u64 value (statement id for PREPARE, row count for
/// row-bearing requests, else 0), u8 is_rows, u8 has_stats [+ stats].
struct DoneReply {
  uint8_t code = 0;
  std::string message;
  uint64_t value = 0;
  bool is_rows = false;
  bool has_stats = false;
  AccessStats stats;
};

void EncodeDone(const Status& status, uint64_t value, bool is_rows,
                const AccessStats* stats, WireWriter* w);
Status DecodeDone(WireCursor* c, DoneReply* done);

/// Reconstructs the request's Status from a decoded DONE body.
Status DoneToStatus(const DoneReply& done);

// ---------------------------------------------------------------------------
// Framed socket I/O. Both sides block; short reads/writes are retried
// until complete. Writes use MSG_NOSIGNAL so a dead peer surfaces as a
// Status, not SIGPIPE.
// ---------------------------------------------------------------------------

struct Frame {
  uint64_t request_id = 0;
  uint8_t opcode = 0;
  std::string body;  ///< payload after the request id + opcode header
};

/// Patches the length prefix of `frame` (built by the frame constructor of
/// WireWriter) and writes it with one send.
Status WriteFrame(int fd, WireWriter* frame);

/// Reads one frame; the payload is copied once, straight into
/// `frame->body`. Distinguishes the three failure shapes the server
/// cares about: clean EOF between frames (`*clean_eof` set, NotFound
/// status), a truncated prefix or body (DataLoss), and an oversized
/// declared length (InvalidArgument — the connection must close, the
/// stream cannot be resynchronized).
Status ReadFrame(int fd, Frame* frame, bool* clean_eof);

}  // namespace seq

#endif  // SEQ_NET_WIRE_H_
