// Codec tests for the seqserved wire protocol (net/wire.h), no server
// involved: golden bytes that pin protocol v1's byte order and layout, so
// the memcpy encoder and decoder cannot silently change the protocol;
// untrusted counts that must fail before anything is reserved for them;
// and a truncation and tag-corruption sweep of ROWS bodies through the
// fixed-width decode path. Every malformed input must end in a Status,
// never an abort or an over-read (the sanitizer build checks the latter:
// each input sits in a heap buffer of exactly its own size).

#include <sys/socket.h>
#include <unistd.h>

#include <climits>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"

namespace seq {
namespace {

std::string Hex(const char* data, size_t size) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < size; ++i) {
    const auto b = static_cast<unsigned char>(data[i]);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::string Hex(const WireWriter& w) { return Hex(w.data(), w.size()); }

double FromBits(uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t ToBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Exact equality, doubles compared by bit pattern (so -0.0 and NaN
/// payloads count).
void ExpectSameRecord(const Record& want, const Record& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].type(), got[i].type()) << "value " << i;
    switch (want[i].type()) {
      case TypeId::kInt64:
        EXPECT_EQ(want[i].int64(), got[i].int64()) << "value " << i;
        break;
      case TypeId::kDouble:
        EXPECT_EQ(ToBits(want[i].dbl()), ToBits(got[i].dbl()))
            << "value " << i;
        break;
      case TypeId::kBool:
        EXPECT_EQ(want[i].boolean(), got[i].boolean()) << "value " << i;
        break;
      case TypeId::kString:
        EXPECT_EQ(want[i].str(), got[i].str()) << "value " << i;
        break;
    }
  }
}

/// Decodes a ROWS body the way RemoteSession does: u32 count, then rows.
Status DecodeRowsBody(const char* data, size_t size,
                      std::vector<PosRecord>* rows) {
  WireCursor c(data, size);
  uint32_t n = 0;
  SEQ_RETURN_IF_ERROR(c.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    SEQ_RETURN_IF_ERROR(DecodeRow(&c, &rows->emplace_back()));
  }
  return Status::OK();
}

/// A heap copy of exactly `size` bytes, so reading one byte past the end
/// is a sanitizer error rather than a silent read of spare capacity.
std::unique_ptr<char[]> ExactCopy(const char* data, size_t size) {
  std::unique_ptr<char[]> copy(new char[size]);
  if (size > 0) std::memcpy(copy.get(), data, size);
  return copy;
}

/// Writes `frame` into one end of a socket pair and returns the raw
/// bytes that arrive at the other.
std::string SendThroughSocket(WireWriter* frame) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(WriteFrame(fds[0], frame).ok());
  close(fds[0]);
  std::string bytes;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fds[1], buf, sizeof(buf), 0);
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[1]);
  return bytes;
}

/// Reads one frame back from raw bytes through ReadFrame.
Frame ReadBack(const std::string& bytes) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_EQ(send(fds[0], bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  close(fds[0]);
  Frame frame;
  bool clean_eof = false;
  Status s = ReadFrame(fds[1], &frame, &clean_eof);
  EXPECT_TRUE(s.ok()) << s.ToString();
  close(fds[1]);
  return frame;
}

// ---------------------------------------------------------------------------
// Golden bytes for protocol v1. The hex strings were produced by the
// byte-at-a-time encoder this codec replaced.
// ---------------------------------------------------------------------------

TEST(WireGoldenTest, RowEncodesToProtocolV1Bytes) {
  const Record rec = {Value::Int64(INT64_MIN),
                      Value::Int64(INT64_MAX),
                      Value::Double(-0.0),
                      Value::Double(FromBits(0x7ff80000deadbeefull)),
                      Value::Double(FromBits(1)),  // smallest denormal
                      Value::Bool(true),
                      Value::Bool(false),
                      Value::String("")};
  WireWriter w;
  EncodeRow(-7, rec, &w);
  EXPECT_EQ(Hex(w),
            "f9ffffffffffffff"    // position -7
            "08000000"            // 8 values
            "000000000000000080"  // int64 INT64_MIN
            "00ffffffffffffff7f"  // int64 INT64_MAX
            "010000000000000080"  // double -0.0
            "01efbeadde0000f87f"  // double NaN, payload 0xdeadbeef
            "010100000000000000"  // double 4.9e-324
            "0201"                // bool true
            "0200"                // bool false
            "0300000000");        // string ""

  WireCursor c(w.data(), w.size());
  PosRecord row;
  ASSERT_TRUE(DecodeRow(&c, &row).ok());
  EXPECT_TRUE(c.Exhausted());
  EXPECT_EQ(row.pos, -7);
  ExpectSameRecord(rec, row.rec);
}

TEST(WireGoldenTest, LongStringEncodesLengthThenBytes) {
  std::string big(70 * 1024, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  const Record rec = {Value::String(big)};
  WireWriter w;
  EncodeRow(3, rec, &w);
  ASSERT_EQ(w.size(), 17 + big.size());
  EXPECT_EQ(Hex(w.data(), 17),
            "0300000000000000"  // position 3
            "01000000"          // 1 value
            "0300180100");      // string of 71,680 bytes
  EXPECT_EQ(std::string(w.data() + 17, big.size()), big);

  WireCursor c(w.data(), w.size());
  PosRecord row;
  ASSERT_TRUE(DecodeRow(&c, &row).ok());
  EXPECT_TRUE(c.Exhausted());
  ExpectSameRecord(rec, row.rec);
}

TEST(WireGoldenTest, RowsFrameBuiltInPlaceMatchesProtocolV1Bytes) {
  // The server's construction: a frame writer, a placeholder row count
  // patched once the rows are in, and WriteFrame patching the length.
  WireWriter frame(0x0102030405060708ull, Opcode::kReplyRows);
  const size_t count_at = frame.size();
  frame.U32(0);
  const Record first = {Value::Int64(5), Value::Double(1.5)};
  const Record second = {Value::Bool(true), Value::String("ab")};
  EncodeRow(1, first, &frame);
  EncodeRow(2, second, &frame);
  frame.PatchU32(count_at, 2);

  const std::string bytes = SendThroughSocket(&frame);
  EXPECT_EQ(Hex(bytes.data(), bytes.size()),
            "40000000"                    // payload length 64
            "0807060504030201"            // request id
            "43"                          // REPLY_ROWS
            "02000000"                    // 2 rows
            "0100000000000000" "02000000"  // row at 1, 2 values
            "000500000000000000"          // int64 5
            "01000000000000f83f"          // double 1.5
            "0200000000000000" "02000000"  // row at 2, 2 values
            "0201"                        // bool true
            "03020000006162");            // string "ab"

  const Frame back = ReadBack(bytes);
  EXPECT_EQ(back.request_id, 0x0102030405060708ull);
  EXPECT_EQ(back.opcode, static_cast<uint8_t>(Opcode::kReplyRows));
  std::vector<PosRecord> rows;
  ASSERT_TRUE(DecodeRowsBody(back.body.data(), back.body.size(), &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].pos, 1);
  ExpectSameRecord(first, rows[0].rec);
  EXPECT_EQ(rows[1].pos, 2);
  ExpectSameRecord(second, rows[1].rec);
}

TEST(WireGoldenTest, DoneFrameWithStatsMatchesProtocolV1Bytes) {
  AccessStats stats;
  stats.stream_records = 1;
  stats.stream_pages = 2;
  stats.probes = 3;
  stats.probe_pages = 4;
  stats.cache_stores = 5;
  stats.cache_hits = 6;
  stats.predicate_evals = 7;
  stats.agg_steps = 8;
  stats.records_output = 9;
  stats.simulated_cost = 12.5;
  WireWriter frame(9, Opcode::kReplyDone);
  EncodeDone(Status::InvalidArgument("bad"), 7, /*is_rows=*/true, &stats,
             &frame);

  const std::string bytes = SendThroughSocket(&frame);
  EXPECT_EQ(Hex(bytes.data(), bytes.size()),
            "6b000000"             // payload length 107
            "0900000000000000"     // request id 9
            "44"                   // REPLY_DONE
            "01"                   // InvalidArgument
            "03000000626164"       // "bad"
            "0700000000000000"     // value 7
            "01"                   // is_rows
            "01"                   // has_stats
            "0100000000000000"     // stream_records
            "0200000000000000"     // stream_pages
            "0300000000000000"     // probes
            "0400000000000000"     // probe_pages
            "0500000000000000"     // cache_stores
            "0600000000000000"     // cache_hits
            "0700000000000000"     // predicate_evals
            "0800000000000000"     // agg_steps
            "0900000000000000"     // records_output
            "0000000000002940");   // simulated_cost 12.5

  const Frame back = ReadBack(bytes);
  EXPECT_EQ(back.request_id, 9u);
  EXPECT_EQ(back.opcode, static_cast<uint8_t>(Opcode::kReplyDone));
  WireCursor c(back.body);
  DoneReply done;
  ASSERT_TRUE(DecodeDone(&c, &done).ok());
  EXPECT_TRUE(c.Exhausted());
  const Status status = DoneToStatus(done);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad");
  EXPECT_EQ(done.value, 7u);
  EXPECT_TRUE(done.is_rows);
  ASSERT_TRUE(done.has_stats);
  EXPECT_EQ(done.stats.records_output, 9);
  EXPECT_EQ(ToBits(done.stats.simulated_cost), ToBits(12.5));
}

// ---------------------------------------------------------------------------
// Untrusted counts.
// ---------------------------------------------------------------------------

TEST(WireDecodeTest, UntrustedCountsFailBeforeReserving) {
  // A 12-byte row header claiming 8,388,607 fields: before the bound,
  // the decoder reserved 320 MiB for it and only then failed.
  WireWriter w;
  w.I64(1);
  w.U32(8388607);
  ASSERT_EQ(w.size(), 12u);
  auto bytes = ExactCopy(w.data(), w.size());
  WireCursor c(bytes.get(), w.size());
  PosRecord row;
  Status s = DecodeRow(&c, &row);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("field count"), std::string::npos)
      << s.ToString();
  EXPECT_LT(row.rec.capacity(), 16u);

  WireWriter schema;
  schema.U32(kMaxFrameBytes / 5);
  WireCursor sc(schema.data(), schema.size());
  Result<SchemaPtr> decoded = DecodeSchema(&sc);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("field count"), std::string::npos)
      << decoded.status().ToString();
}

TEST(WireDecodeTest, CountsThatExactlyFitStillDecode) {
  // Every value at its smallest encoding: the bounds are not off by one.
  WireWriter w;
  EncodeRow(4, {Value::Bool(true), Value::Bool(false), Value::Bool(true)},
            &w);
  WireCursor c(w.data(), w.size());
  PosRecord row;
  ASSERT_TRUE(DecodeRow(&c, &row).ok());
  EXPECT_EQ(row.rec.size(), 3u);

  WireWriter schema;
  EncodeSchema(*Schema::Make({{"", TypeId::kInt64}}), &schema);
  ASSERT_EQ(schema.size(), 4u + 5);
  WireCursor sc(schema.data(), schema.size());
  Result<SchemaPtr> got = DecodeSchema(&sc);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ((*got)->num_fields(), 1u);
}

TEST(WireDecodeTest, DuplicateSchemaFieldNamesFailWithAStatus) {
  // Schema::Make aborts on a duplicate name, so the decoder must reject
  // one from the peer first.
  WireWriter schema;
  schema.U32(2);
  schema.Str("a");
  schema.U8(static_cast<uint8_t>(TypeId::kInt64));
  schema.Str("a");
  schema.U8(static_cast<uint8_t>(TypeId::kDouble));
  WireCursor c(schema.data(), schema.size());
  Result<SchemaPtr> got = DecodeSchema(&c);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
      << got.status().ToString();
}

// ---------------------------------------------------------------------------
// Truncation and corruption sweep of a mixed-type multi-row ROWS body.
// ---------------------------------------------------------------------------

struct RowsBody {
  WireWriter bytes;
  std::vector<size_t> tag_offsets;  ///< where each value's type tag sits
  std::vector<PosRecord> rows;
};

RowsBody MixedRowsBody() {
  RowsBody body;
  body.rows = {
      {1, {Value::Int64(-5), Value::Double(2.25), Value::Bool(true),
           Value::String("abc")}},
      {2, {Value::String(""), Value::Bool(false), Value::Int64(INT64_MAX)}},
      {5, {Value::Double(-0.0), Value::Int64(7)}},
  };
  body.bytes.U32(static_cast<uint32_t>(body.rows.size()));
  for (const PosRecord& row : body.rows) {
    body.bytes.I64(row.pos);
    body.bytes.U32(static_cast<uint32_t>(row.rec.size()));
    for (const Value& v : row.rec) {
      body.tag_offsets.push_back(body.bytes.size());
      body.bytes.Value(v);
    }
  }
  return body;
}

TEST(WireDecodeTest, MixedRowsBodyRoundTrips) {
  const RowsBody body = MixedRowsBody();
  auto bytes = ExactCopy(body.bytes.data(), body.bytes.size());
  std::vector<PosRecord> rows;
  ASSERT_TRUE(DecodeRowsBody(bytes.get(), body.bytes.size(), &rows).ok());
  ASSERT_EQ(rows.size(), body.rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].pos, body.rows[i].pos);
    ExpectSameRecord(body.rows[i].rec, rows[i].rec);
  }
}

TEST(WireDecodeTest, EveryTruncatedRowsBodyEndsInDataLoss) {
  const RowsBody body = MixedRowsBody();
  for (size_t len = 0; len < body.bytes.size(); ++len) {
    auto bytes = ExactCopy(body.bytes.data(), len);
    std::vector<PosRecord> rows;
    Status s = DecodeRowsBody(bytes.get(), len, &rows);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "prefix of " << len << " bytes: " << s.ToString();
  }
}

TEST(WireDecodeTest, EveryUnknownValueTagEndsInInvalidArgument) {
  const RowsBody body = MixedRowsBody();
  ASSERT_EQ(body.tag_offsets.size(), 9u);
  for (size_t offset : body.tag_offsets) {
    for (int tag = 4; tag <= 255; ++tag) {
      auto bytes = ExactCopy(body.bytes.data(), body.bytes.size());
      bytes[offset] = static_cast<char>(tag);
      std::vector<PosRecord> rows;
      Status s = DecodeRowsBody(bytes.get(), body.bytes.size(), &rows);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
          << "tag " << tag << " at offset " << offset << ": " << s.ToString();
      EXPECT_NE(s.message().find("unknown value type tag"), std::string::npos)
          << s.ToString();
    }
  }
}

}  // namespace
}  // namespace seq
