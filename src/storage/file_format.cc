#include "storage/file_format.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <variant>
#include <vector>

namespace seq {
namespace {

constexpr char kMagic[4] = {'S', 'E', 'Q', '1'};
constexpr uint32_t kMaxStringLen = 1u << 20;
constexpr uint32_t kMaxFields = 1u << 10;
constexpr uint32_t kMaxRecordsPerPage = 1u << 20;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Reads a file front to back through a fixed-size buffer, so a load decodes
// values with memcpy from memory instead of one stream read per value, and
// never holds more than kBufferBytes of the file at once. Every read is
// checked against the bytes that remain, so a read past the end of a
// truncated file fails instead of returning garbage.
class BufferedReader {
 public:
  static constexpr size_t kBufferBytes = size_t{1} << 20;

  explicit BufferedReader(std::ifstream* in) : in_(in) {
    in_->seekg(0, std::ios::end);
    const std::streamoff size = in_->tellg();
    in_->seekg(0, std::ios::beg);
    unread_ = size > 0 ? static_cast<uint64_t>(size) : 0;
    buffer_.resize(std::min<uint64_t>(unread_, kBufferBytes));
  }

  /// Bytes of the file not yet consumed.
  uint64_t remaining() const { return unread_ + (end_ - next_); }

  bool Read(void* out, size_t n) {
    if (end_ - next_ >= n) {
      std::memcpy(out, buffer_.data() + next_, n);
      next_ += n;
      return true;
    }
    return ReadSlow(static_cast<char*>(out), n);
  }

  template <typename T>
  bool Pod(T* value) {
    return Read(value, sizeof(T));
  }

  bool String(std::string* s) {
    uint32_t len = 0;
    if (!Pod(&len) || len > kMaxStringLen || len > remaining()) return false;
    s->resize(len);
    return Read(s->data(), len);
  }

 private:
  // Drains the buffer into `out`, then refills it until `n` bytes are read.
  bool ReadSlow(char* out, size_t n) {
    if (n > remaining()) return false;
    while (n > 0) {
      if (next_ == end_ && !Refill()) return false;
      const size_t take = std::min(n, end_ - next_);
      std::memcpy(out, buffer_.data() + next_, take);
      next_ += take;
      out += take;
      n -= take;
    }
    return true;
  }

  bool Refill() {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(unread_, buffer_.size()));
    if (want == 0) return false;
    in_->read(buffer_.data(), static_cast<std::streamsize>(want));
    if (static_cast<size_t>(in_->gcount()) != want) return false;
    unread_ -= want;
    next_ = 0;
    end_ = want;
    return true;
  }

  std::ifstream* in_;
  std::vector<char> buffer_;
  size_t next_ = 0;      // first unconsumed byte of buffer_
  size_t end_ = 0;       // one past the last valid byte of buffer_
  uint64_t unread_ = 0;  // file bytes not yet copied into buffer_
};

// Smallest encoding of one record: its position plus each value, with
// strings empty. Bounds how many records the rest of a file can hold.
uint64_t MinRecordBytes(const Schema& schema) {
  uint64_t bytes = sizeof(int64_t);
  for (const Field& f : schema.fields()) {
    switch (f.type) {
      case TypeId::kInt64:
      case TypeId::kDouble:
        bytes += sizeof(int64_t);
        break;
      case TypeId::kBool:
        bytes += sizeof(uint8_t);
        break;
      case TypeId::kString:
        bytes += sizeof(uint32_t);
        break;
    }
  }
  return bytes;
}

// Decodes one value onto the end of its column; false if the file ends
// first. A bool byte is stored normalized to 0 or 1.
template <typename T>
bool ReadValue(BufferedReader& in, std::vector<T>& values) {
  T v{};
  if (!in.Pod(&v)) return false;
  if constexpr (std::is_same_v<T, uint8_t>) v = v != 0 ? 1 : 0;
  values.push_back(v);
  return true;
}

bool ReadValue(BufferedReader& in, std::vector<std::string>& values) {
  std::string v;
  if (!in.String(&v)) return false;
  values.push_back(std::move(v));
  return true;
}

}  // namespace

Status SaveSequence(const BaseSequenceStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  out.write(kMagic, 4);
  WritePod<uint32_t>(out, static_cast<uint32_t>(store.records_per_page()));
  WritePod<double>(out, store.costs().page_cost);
  WritePod<double>(out, store.costs().probe_cost);
  WritePod<uint8_t>(out, store.costs().clustered ? 1 : 0);
  WritePod<int64_t>(out, store.span().start);
  WritePod<int64_t>(out, store.span().end);
  const Schema& schema = *store.schema();
  WritePod<uint32_t>(out, static_cast<uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    WriteString(out, f.name);
    WritePod<uint8_t>(out, static_cast<uint8_t>(f.type));
  }
  WritePod<uint64_t>(out, static_cast<uint64_t>(store.num_records()));
  BaseSequenceStore::StreamCursor cursor =
      store.OpenStream(store.span(), nullptr);
  RecordBatch batch;
  while (cursor.FillBatch(&batch) > 0) {
    for (size_t r = 0; r < batch.size(); ++r) {
      WritePod<int64_t>(out, batch.pos(r));
      for (const Value& v : batch.rec(r)) {
        switch (v.type()) {
          case TypeId::kInt64:
            WritePod<int64_t>(out, v.int64());
            break;
          case TypeId::kDouble:
            WritePod<double>(out, v.dbl());
            break;
          case TypeId::kBool:
            WritePod<uint8_t>(out, v.boolean() ? 1 : 0);
            break;
          case TypeId::kString:
            WriteString(out, v.str());
            break;
        }
      }
    }
  }
  out.flush();
  if (!out) {
    return Status::Internal("write to '" + path + "' failed");
  }
  return Status::OK();
}

Result<BaseSequencePtr> LoadSequence(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  BufferedReader in(&file);
  char magic[4];
  if (!in.Read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a SEQ1 file");
  }
  uint32_t records_per_page = 0;
  AccessCosts costs;
  uint8_t clustered = 1;
  int64_t span_start = 0;
  int64_t span_end = 0;
  if (!in.Pod(&records_per_page) || records_per_page == 0 ||
      !in.Pod(&costs.page_cost) || !in.Pod(&costs.probe_cost) ||
      !in.Pod(&clustered) || !in.Pod(&span_start) || !in.Pod(&span_end)) {
    return Status::DataLoss("'" + path + "': truncated header");
  }
  // The store takes records_per_page as a positive int; a corrupt value
  // above INT_MAX would otherwise wrap negative and trip its invariant
  // check (an abort — never acceptable on file input).
  if (records_per_page > kMaxRecordsPerPage) {
    return Status::DataLoss("'" + path + "': implausible records_per_page " +
                            std::to_string(records_per_page));
  }
  costs.clustered = clustered != 0;
  uint32_t num_fields = 0;
  if (!in.Pod(&num_fields) || num_fields == 0 || num_fields > kMaxFields) {
    return Status::DataLoss("'" + path + "': bad field count");
  }
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint32_t i = 0; i < num_fields; ++i) {
    Field f;
    uint8_t type = 0;
    if (!in.String(&f.name) || !in.Pod(&type) ||
        type > static_cast<uint8_t>(TypeId::kString)) {
      return Status::DataLoss("'" + path + "': bad field header");
    }
    f.type = static_cast<TypeId>(type);
    fields.push_back(std::move(f));
  }
  // Schema::Make treats duplicate names as a programming error (abort);
  // reject them here so a corrupt file cannot reach it.
  if (Status s = Schema::CheckDistinctNames(fields); !s.ok()) {
    return Status::DataLoss("'" + path + "': " + s.message());
  }
  SchemaPtr schema = Schema::Make(std::move(fields));
  auto store = std::make_shared<BaseSequenceStore>(
      schema, static_cast<int>(records_per_page), costs);
  uint64_t num_records = 0;
  if (!in.Pod(&num_records)) {
    return Status::DataLoss("'" + path + "': truncated record count");
  }
  // A corrupt count must not size an allocation: the rest of the file
  // bounds how many records it can really hold.
  if (num_records > in.remaining() / MinRecordBytes(*schema)) {
    return Status::DataLoss("'" + path + "': truncated records");
  }
  store->Reserve(static_cast<size_t>(num_records));
  for (uint64_t r = 0; r < num_records; ++r) {
    int64_t pos = 0;
    if (!in.Pod(&pos)) {
      return Status::DataLoss("'" + path + "': truncated records");
    }
    for (Column& column : store->columns_) {
      if (!std::visit([&in](auto& values) { return ReadValue(in, values); },
                      column)) {
        return Status::DataLoss("'" + path + "': truncated value");
      }
    }
    SEQ_RETURN_IF_ERROR(store->CheckOrder(pos));
    store->PushPosition(pos);
  }
  if (!Span::Of(span_start, span_end).IsEmpty()) {
    SEQ_RETURN_IF_ERROR(store->DeclareSpan(Span::Of(span_start, span_end)));
  }
  return store;
}

}  // namespace seq
