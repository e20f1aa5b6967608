#include "net/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "exec/scheduler.h"

namespace seq {

WireRunOptions CaptureWireRunOptions(const RunOptions& opts,
                                     bool collect_stats) {
  WireRunOptions w;
  w.use_batch = opts.exec.use_batch;
  w.batch_capacity = opts.exec.batch_capacity;
  w.max_rows = opts.exec.guards.max_rows;
  w.max_pages = opts.exec.guards.max_pages;
  w.max_wall_ms = opts.exec.guards.max_wall_ms;
  w.max_cache_bytes = opts.exec.guards.max_cache_bytes;
  w.parallelism = opts.exec.parallelism;
  w.priority = static_cast<uint8_t>(opts.exec.priority);
  w.admission_timeout_ms = opts.exec.admission_timeout_ms;
  w.use_plan_cache = opts.exec.use_plan_cache;
  w.checkpoint_enabled = opts.exec.checkpoint.enabled;
  w.checkpoint_chunk = opts.exec.checkpoint.chunk;
  w.checkpoint_every = opts.exec.checkpoint.suspend_every_chunks;
  w.checkpoint_path = opts.exec.checkpoint.path;
  w.collect_stats = collect_stats;
  return w;
}

void ApplyWireRunOptions(const WireRunOptions& wire, ExecOptions* exec) {
  exec->use_batch = wire.use_batch;
  if (wire.batch_capacity > 0) {
    exec->batch_capacity = static_cast<size_t>(wire.batch_capacity);
  }
  exec->guards.max_rows = wire.max_rows;
  exec->guards.max_pages = wire.max_pages;
  exec->guards.max_wall_ms = wire.max_wall_ms;
  exec->guards.max_cache_bytes = wire.max_cache_bytes;
  // Clamp instead of trusting the peer: a negative or absurd share cap
  // must not reach the scheduler.
  exec->parallelism = wire.parallelism < 1 ? 1 : wire.parallelism;
  exec->priority = wire.priority <= static_cast<uint8_t>(QueryPriority::kHigh)
                       ? static_cast<QueryPriority>(wire.priority)
                       : QueryPriority::kNormal;
  exec->admission_timeout_ms = wire.admission_timeout_ms;
  exec->use_plan_cache = wire.use_plan_cache;
  exec->checkpoint.enabled = wire.checkpoint_enabled;
  exec->checkpoint.chunk = wire.checkpoint_chunk < 0 ? 0 : wire.checkpoint_chunk;
  exec->checkpoint.suspend_every_chunks =
      wire.checkpoint_every < 0 ? 0 : wire.checkpoint_every;
  exec->checkpoint.path = wire.checkpoint_path;
}

// --------------------------------------------------------------------------
// WireWriter
// --------------------------------------------------------------------------

WireWriter::WireWriter(uint64_t request_id, Opcode opcode) {
  U32(0);  // payload length, patched by WriteFrame
  U64(request_id);
  U8(static_cast<uint8_t>(opcode));
}

void WireWriter::Grow(size_t need) {
  buf_.resize(std::max({buf_.size() * 2, len_ + need, size_t{64}}));
}

void WireWriter::Bytes(const char* data, size_t size) {
  if (buf_.size() - len_ < size) Grow(size);
  if (size > 0) std::memcpy(buf_.data() + len_, data, size);
  len_ += size;
}

void WireWriter::Value(const seq::Value& v) {
  const uint8_t tag = static_cast<uint8_t>(v.type());
  switch (v.type()) {
    case TypeId::kInt64:
      PutTagged(tag, v.int64());
      break;
    case TypeId::kDouble:
      PutTagged(tag, v.dbl());
      break;
    case TypeId::kBool:
      PutTagged(tag, static_cast<uint8_t>(v.boolean() ? 1 : 0));
      break;
    case TypeId::kString:
      U8(tag);
      Str(v.str());
      break;
  }
}

void WireWriter::Stats(const AccessStats& stats) {
  I64(stats.stream_records);
  I64(stats.stream_pages);
  I64(stats.probes);
  I64(stats.probe_pages);
  I64(stats.cache_stores);
  I64(stats.cache_hits);
  I64(stats.predicate_evals);
  I64(stats.agg_steps);
  I64(stats.records_output);
  F64(stats.simulated_cost);
}

// --------------------------------------------------------------------------
// WireCursor
// --------------------------------------------------------------------------

Status WireCursor::Truncated(size_t need) const {
  return Status::DataLoss("truncated frame body: need " +
                          std::to_string(need) + " more bytes, have " +
                          std::to_string(size_ - off_));
}

Status WireCursor::Str(std::string* s) {
  uint32_t len = 0;
  SEQ_RETURN_IF_ERROR(U32(&len));
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("string length " + std::to_string(len) +
                                   " exceeds the frame limit");
  }
  if (size_ - off_ < len) return Truncated(len);
  s->assign(data_ + off_, len);
  off_ += len;
  return Status::OK();
}

Status WireCursor::Value(seq::Value* v) {
  uint8_t tag = 0;
  SEQ_RETURN_IF_ERROR(U8(&tag));
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kInt64: {
      int64_t i = 0;
      SEQ_RETURN_IF_ERROR(I64(&i));
      *v = seq::Value::Int64(i);
      return Status::OK();
    }
    case TypeId::kDouble: {
      double d = 0;
      SEQ_RETURN_IF_ERROR(F64(&d));
      *v = seq::Value::Double(d);
      return Status::OK();
    }
    case TypeId::kBool: {
      uint8_t b = 0;
      SEQ_RETURN_IF_ERROR(U8(&b));
      *v = seq::Value::Bool(b != 0);
      return Status::OK();
    }
    case TypeId::kString: {
      std::string s;
      SEQ_RETURN_IF_ERROR(Str(&s));
      *v = seq::Value::String(std::move(s));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown value type tag " +
                                 std::to_string(tag));
}

Status WireCursor::Stats(AccessStats* stats) {
  SEQ_RETURN_IF_ERROR(I64(&stats->stream_records));
  SEQ_RETURN_IF_ERROR(I64(&stats->stream_pages));
  SEQ_RETURN_IF_ERROR(I64(&stats->probes));
  SEQ_RETURN_IF_ERROR(I64(&stats->probe_pages));
  SEQ_RETURN_IF_ERROR(I64(&stats->cache_stores));
  SEQ_RETURN_IF_ERROR(I64(&stats->cache_hits));
  SEQ_RETURN_IF_ERROR(I64(&stats->predicate_evals));
  SEQ_RETURN_IF_ERROR(I64(&stats->agg_steps));
  SEQ_RETURN_IF_ERROR(I64(&stats->records_output));
  SEQ_RETURN_IF_ERROR(F64(&stats->simulated_cost));
  return Status::OK();
}

// --------------------------------------------------------------------------
// Blob helpers
// --------------------------------------------------------------------------

void EncodeRunOptions(const WireRunOptions& o, WireWriter* w) {
  w->U8(o.use_batch ? 1 : 0);
  w->U64(o.batch_capacity);
  w->I64(o.max_rows);
  w->I64(o.max_pages);
  w->I64(o.max_wall_ms);
  w->I64(o.max_cache_bytes);
  w->I64(o.parallelism);
  w->U8(o.priority);
  w->I64(o.admission_timeout_ms);
  w->U8(o.use_plan_cache ? 1 : 0);
  w->U8(o.checkpoint_enabled ? 1 : 0);
  w->I64(o.checkpoint_chunk);
  w->I64(o.checkpoint_every);
  w->Str(o.checkpoint_path);
  w->U8(o.collect_stats ? 1 : 0);
}

Status DecodeRunOptions(WireCursor* c, WireRunOptions* o) {
  uint8_t b = 0;
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  o->use_batch = b != 0;
  SEQ_RETURN_IF_ERROR(c->U64(&o->batch_capacity));
  SEQ_RETURN_IF_ERROR(c->I64(&o->max_rows));
  SEQ_RETURN_IF_ERROR(c->I64(&o->max_pages));
  SEQ_RETURN_IF_ERROR(c->I64(&o->max_wall_ms));
  SEQ_RETURN_IF_ERROR(c->I64(&o->max_cache_bytes));
  int64_t parallelism = 0;
  SEQ_RETURN_IF_ERROR(c->I64(&parallelism));
  o->parallelism = static_cast<int32_t>(parallelism);
  SEQ_RETURN_IF_ERROR(c->U8(&o->priority));
  SEQ_RETURN_IF_ERROR(c->I64(&o->admission_timeout_ms));
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  o->use_plan_cache = b != 0;
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  o->checkpoint_enabled = b != 0;
  SEQ_RETURN_IF_ERROR(c->I64(&o->checkpoint_chunk));
  SEQ_RETURN_IF_ERROR(c->I64(&o->checkpoint_every));
  SEQ_RETURN_IF_ERROR(c->Str(&o->checkpoint_path));
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  o->collect_stats = b != 0;
  return Status::OK();
}

void EncodeSchema(const Schema& schema, WireWriter* w) {
  w->U32(static_cast<uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    w->Str(f.name);
    w->U8(static_cast<uint8_t>(f.type));
  }
}

Result<SchemaPtr> DecodeSchema(WireCursor* c) {
  uint32_t n = 0;
  SEQ_RETURN_IF_ERROR(c->U32(&n));
  // The count is untrusted. A field takes at least 5 bytes (an empty
  // name's u32 length and the type tag), so a count the rest of the body
  // cannot hold is a truncated frame, rejected before anything is
  // reserved for it.
  if (n > c->remaining() / 5) {
    return Status::DataLoss("schema field count " + std::to_string(n) +
                            " needs at least " + std::to_string(5ull * n) +
                            " bytes, have " + std::to_string(c->remaining()));
  }
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Field f;
    SEQ_RETURN_IF_ERROR(c->Str(&f.name));
    uint8_t type = 0;
    SEQ_RETURN_IF_ERROR(c->U8(&type));
    if (type > static_cast<uint8_t>(TypeId::kString)) {
      return Status::InvalidArgument("unknown field type tag " +
                                     std::to_string(type));
    }
    f.type = static_cast<TypeId>(type);
    fields.push_back(std::move(f));
  }
  // Schema::Make aborts on a repeated name; a peer's frame must not.
  SEQ_RETURN_IF_ERROR(Schema::CheckDistinctNames(fields));
  return Schema::Make(std::move(fields));
}

void EncodeRow(Position pos, const Record& rec, WireWriter* w) {
  w->I64(pos);
  w->U32(static_cast<uint32_t>(rec.size()));
  for (const seq::Value& v : rec) w->Value(v);
}

Status DecodeRow(WireCursor* c, PosRecord* row) {
  SEQ_RETURN_IF_ERROR(c->I64(&row->pos));
  uint32_t n = 0;
  SEQ_RETURN_IF_ERROR(c->U32(&n));
  // The count is untrusted. A value takes at least 2 bytes (a bool's tag
  // and byte), so a count the rest of the body cannot hold is a truncated
  // frame, rejected before anything is reserved for it.
  if (n > c->remaining() / 2) {
    return Status::DataLoss("row field count " + std::to_string(n) +
                            " needs at least " + std::to_string(2ull * n) +
                            " bytes, have " + std::to_string(c->remaining()));
  }
  row->rec.clear();
  row->rec.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (c->FixedValue(&row->rec)) continue;
    seq::Value v;
    SEQ_RETURN_IF_ERROR(c->Value(&v));
    row->rec.push_back(std::move(v));
  }
  return Status::OK();
}

void EncodeDone(const Status& status, uint64_t value, bool is_rows,
                const AccessStats* stats, WireWriter* w) {
  w->U8(static_cast<uint8_t>(status.code()));
  w->Str(status.ok() ? std::string() : status.message());
  w->U64(value);
  w->U8(is_rows ? 1 : 0);
  w->U8(stats != nullptr ? 1 : 0);
  if (stats != nullptr) w->Stats(*stats);
}

Status DecodeDone(WireCursor* c, DoneReply* done) {
  SEQ_RETURN_IF_ERROR(c->U8(&done->code));
  SEQ_RETURN_IF_ERROR(c->Str(&done->message));
  SEQ_RETURN_IF_ERROR(c->U64(&done->value));
  uint8_t b = 0;
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  done->is_rows = b != 0;
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  done->has_stats = b != 0;
  if (done->has_stats) SEQ_RETURN_IF_ERROR(c->Stats(&done->stats));
  return Status::OK();
}

Status DoneToStatus(const DoneReply& done) {
  if (done.code == 0) return Status::OK();
  if (done.code > static_cast<uint8_t>(StatusCode::kFailedPrecondition)) {
    return Status::Internal("server sent unknown status code " +
                            std::to_string(done.code) + ": " + done.message);
  }
  return Status(static_cast<StatusCode>(done.code), done.message);
}

// --------------------------------------------------------------------------
// Framed socket I/O
// --------------------------------------------------------------------------

namespace {

/// Request id (u64) + opcode (u8): the payload bytes before the body.
constexpr size_t kRequestHeaderBytes = 9;

Status WriteAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("socket write failed: ") +
                                 std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. `*got` reports how many arrived before an
/// EOF, so the caller can tell "closed between frames" from "truncated
/// mid-frame".
Status ReadAll(int fd, char* data, size_t size, size_t* got) {
  *got = 0;
  while (*got < size) {
    const ssize_t n = ::recv(fd, data + *got, size - *got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("socket read failed: ") +
                                 std::strerror(errno));
    }
    if (n == 0) {
      return Status::DataLoss("connection closed mid-read");
    }
    *got += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Fills both `parts` completely, retrying short reads. The parts follow
/// a length prefix already read, so an EOF here is always a truncation.
Status ReadAllV(int fd, iovec (&parts)[2]) {
  size_t next = 0;
  while (next < 2) {
    const ssize_t n = ::readv(fd, parts + next, static_cast<int>(2 - next));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("socket read failed: ") +
                                 std::strerror(errno));
    }
    if (n == 0) return Status::DataLoss("connection closed mid-read");
    size_t left = static_cast<size_t>(n);
    while (next < 2 && left >= parts[next].iov_len) {
      left -= parts[next].iov_len;
      ++next;
    }
    if (next < 2) {
      parts[next].iov_base = static_cast<char*>(parts[next].iov_base) + left;
      parts[next].iov_len -= left;
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, WireWriter* frame) {
  frame->PatchU32(0, static_cast<uint32_t>(frame->size() - 4));
  return WriteAll(fd, frame->data(), frame->size());
}

Status ReadFrame(int fd, Frame* frame, bool* clean_eof) {
  *clean_eof = false;
  char prefix[4];
  size_t got = 0;
  Status r = ReadAll(fd, prefix, 4, &got);
  if (!r.ok()) {
    if (got == 0 && r.code() == StatusCode::kDataLoss) {
      // EOF on a frame boundary: the peer hung up cleanly.
      *clean_eof = true;
      return Status::NotFound("connection closed");
    }
    if (r.code() == StatusCode::kDataLoss) {
      return Status::DataLoss("truncated length prefix (" +
                              std::to_string(got) + " of 4 bytes)");
    }
    return r;
  }
  uint32_t length = 0;
  std::memcpy(&length, prefix, sizeof(length));
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "declared frame length " + std::to_string(length) +
        " exceeds the limit (" + std::to_string(kMaxFrameBytes) +
        "); closing desynchronized stream");
  }
  if (length < kRequestHeaderBytes) {
    return Status::InvalidArgument("frame too short for request id + opcode (" +
                                   std::to_string(length) + " bytes)");
  }
  // One scattered read: the request header into a local, the body
  // straight into its final place.
  char header[kRequestHeaderBytes];
  frame->body.resize(length - kRequestHeaderBytes);
  iovec parts[2] = {{header, kRequestHeaderBytes},
                    {frame->body.data(), frame->body.size()}};
  SEQ_RETURN_IF_ERROR(ReadAllV(fd, parts));
  std::memcpy(&frame->request_id, header, sizeof(frame->request_id));
  frame->opcode = static_cast<uint8_t>(header[8]);
  return Status::OK();
}

}  // namespace seq
