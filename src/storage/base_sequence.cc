#include "storage/base_sequence.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <type_traits>
#include <variant>

#include "common/logging.h"

namespace seq {

BaseSequenceStore::BaseSequenceStore(SchemaPtr schema, int records_per_page,
                                     AccessCosts costs)
    : schema_(std::move(schema)),
      records_per_page_(records_per_page),
      costs_(costs) {
  SEQ_CHECK(schema_ != nullptr);
  SEQ_CHECK_MSG(records_per_page_ > 0, "records_per_page must be positive");
  columns_.reserve(schema_->num_fields());
  for (const Field& f : schema_->fields()) {
    columns_.push_back(MakeColumn(f.type));
  }
}

Status BaseSequenceStore::CheckOrder(Position pos) const {
  if (!positions_.empty() && pos <= positions_.back()) {
    return Status::InvalidArgument(
        "records must be appended in strictly increasing position order "
        "(got " +
        std::to_string(pos) + " after " + std::to_string(positions_.back()) +
        ")");
  }
  return Status::OK();
}

void BaseSequenceStore::PushPosition(Position pos) {
  positions_.push_back(pos);
  if (!span_declared_) span_ = Span::Of(positions_.front(), pos);
  stats_fresh_ = false;
}

Status BaseSequenceStore::Append(Position pos, const Record& rec) {
  SEQ_RETURN_IF_ERROR(CheckOrder(pos));
  if (!RecordMatchesSchema(rec, *schema_)) {
    return Status::TypeError("record does not match schema " +
                             schema_->ToString());
  }
  if (span_declared_ && !span_.Contains(pos)) {
    return Status::OutOfRange("appended position " + std::to_string(pos) +
                              " outside declared span " + span_.ToString());
  }
  for (size_t f = 0; f < columns_.size(); ++f) {
    const Value& v = rec[f];
    std::visit(
        [&v](auto& values) {
          using T = typename std::decay_t<decltype(values)>::value_type;
          if constexpr (std::is_same_v<T, int64_t>) {
            values.push_back(v.int64());
          } else if constexpr (std::is_same_v<T, double>) {
            values.push_back(v.dbl());
          } else if constexpr (std::is_same_v<T, uint8_t>) {
            values.push_back(v.boolean() ? 1 : 0);
          } else {
            values.push_back(v.str());
          }
        },
        columns_[f]);
  }
  PushPosition(pos);
  return Status::OK();
}

void BaseSequenceStore::Reserve(size_t n) {
  positions_.reserve(n);
  for (Column& c : columns_) {
    std::visit([n](auto& values) { values.reserve(n); }, c);
  }
}

Result<std::shared_ptr<BaseSequenceStore>> BaseSequenceStore::FromRecords(
    SchemaPtr schema, std::vector<PosRecord> records, int records_per_page,
    AccessCosts costs) {
  auto store = std::make_shared<BaseSequenceStore>(std::move(schema),
                                                   records_per_page, costs);
  store->Reserve(records.size());
  for (const PosRecord& pr : records) {
    SEQ_RETURN_IF_ERROR(store->Append(pr.pos, pr.rec));
  }
  return store;
}

Status BaseSequenceStore::DeclareSpan(Span span) {
  if (!positions_.empty()) {
    Span hull = Span::Of(positions_.front(), positions_.back());
    if (span.Intersect(hull) != hull) {
      return Status::InvalidArgument("declared span " + span.ToString() +
                                     " does not cover stored records " +
                                     hull.ToString());
    }
  }
  span_ = span;
  span_declared_ = true;
  return Status::OK();
}

double BaseSequenceStore::density() const {
  if (span_.IsEmpty() || positions_.empty()) return 0.0;
  if (span_.IsUnbounded()) return 0.0;
  return static_cast<double>(positions_.size()) /
         static_cast<double>(span_.Length());
}

int64_t BaseSequenceStore::num_pages() const {
  return (num_records() + records_per_page_ - 1) / records_per_page_;
}

const std::vector<ColumnStats>& BaseSequenceStore::column_stats() const {
  if (!stats_fresh_) {
    column_stats_ = ComputeColumnStats(columns_);
    stats_fresh_ = true;
  }
  return column_stats_;
}

size_t BaseSequenceStore::LowerBound(Position pos) const {
  return static_cast<size_t>(
      std::lower_bound(positions_.begin(), positions_.end(), pos) -
      positions_.begin());
}

template <typename RowAt>
void BaseSequenceStore::Gather(size_t first, size_t count, RowAt row) const {
  for (size_t k = 0; k < count; ++k) row(k).resize(columns_.size());
  for (size_t f = 0; f < columns_.size(); ++f) {
    std::visit(
        [&](const auto& values) {
          for (size_t k = 0; k < count; ++k) {
            row(k)[f] = ToValue(values[first + k]);
          }
        },
        columns_[f]);
  }
}

std::vector<PosRecord> BaseSequenceStore::records() const {
  std::vector<PosRecord> out(positions_.size());
  for (size_t i = 0; i < out.size(); ++i) out[i].pos = positions_[i];
  Gather(0, out.size(), [&out](size_t k) -> Record& { return out[k].rec; });
  return out;
}

BaseSequenceStore::StreamCursor BaseSequenceStore::OpenStream(
    Span range, AccessStats* stats) const {
  Span effective = range.Intersect(span_);
  if (effective.IsEmpty()) {
    return StreamCursor(this, 0, 0, stats);
  }
  size_t begin = LowerBound(effective.start);
  size_t end = LowerBound(effective.end + 1);
  return StreamCursor(this, begin, end, stats);
}

BaseSequenceStore::StreamCursor BaseSequenceStore::OpenStreamResumed(
    Span range, Position covered_from, AccessStats* stats) const {
  StreamCursor cursor = OpenStream(range, stats);
  // If the record just before this cursor's first was streamed by the
  // preceding cursor (its position is inside the covered prefix), that
  // record's page has been charged already: seed last_page_ with it so a
  // shared page boundary is not paid twice. Unclustered layouts charge per
  // record, so the seeded page never matches the first record's and the
  // behavior is unchanged there.
  if (cursor.index_ > 0 && cursor.index_ < cursor.end_ &&
      positions_[cursor.index_ - 1] >= covered_from) {
    const int64_t prev = static_cast<int64_t>(cursor.index_) - 1;
    cursor.last_page_ = costs_.clustered ? prev / records_per_page_ : prev;
  }
  return cursor;
}

size_t BaseSequenceStore::StreamCursor::Advance() {
  const size_t index = index_++;
  const int64_t page = store_->costs_.clustered
                           ? static_cast<int64_t>(index) /
                                 store_->records_per_page_
                           : static_cast<int64_t>(index);
  if (stats_ != nullptr) {
    ++stats_->stream_records;
    if (page != last_page_) {
      ++stats_->stream_pages;
      stats_->simulated_cost += store_->costs_.page_cost;
    }
  }
  last_page_ = page;
  return index;
}

std::optional<PosRecord> BaseSequenceStore::StreamCursor::Next() {
  if (index_ >= end_) return std::nullopt;
  const size_t index = Advance();
  PosRecord pr{store_->positions_[index], Record{}};
  store_->Gather(index, 1, [&pr](size_t) -> Record& { return pr.rec; });
  return pr;
}

size_t BaseSequenceStore::StreamCursor::FillBatch(RecordBatch* out) {
  return FillBatchUpTo(std::numeric_limits<Position>::max(), out);
}

size_t BaseSequenceStore::StreamCursor::FillBatchUpTo(Position limit,
                                                      RecordBatch* out) {
  out->Clear();
  const size_t first = index_;
  while (!out->full() && index_ < end_) {
    const Position pos = store_->positions_[Advance()];
    out->Append(pos);
    if (pos > limit) break;  // overshoot included, then stop
  }
  store_->Gather(first, out->size(),
                 [out](size_t k) -> Record& { return out->rec(k); });
  return out->size();
}

std::optional<Position> BaseSequenceStore::StreamCursor::PeekPosition() const {
  if (index_ >= end_) return std::nullopt;
  return store_->positions_[index_];
}

std::optional<size_t> BaseSequenceStore::FindProbed(Position pos,
                                                    AccessStats* stats) const {
  if (stats != nullptr) {
    ++stats->probes;
    ++stats->probe_pages;
    stats->simulated_cost += costs_.probe_cost;
  }
  if (!span_.Contains(pos)) return std::nullopt;
  const size_t index = LowerBound(pos);
  if (index < positions_.size() && positions_[index] == pos) return index;
  return std::nullopt;
}

std::optional<Record> BaseSequenceStore::Probe(Position pos,
                                               AccessStats* stats) const {
  const std::optional<size_t> index = FindProbed(pos, stats);
  if (!index.has_value()) return std::nullopt;
  Record rec;
  Gather(*index, 1, [&rec](size_t) -> Record& { return rec; });
  return rec;
}

bool BaseSequenceStore::ProbeInto(Position pos, AccessStats* stats,
                                  RecordBatch* out) const {
  const std::optional<size_t> index = FindProbed(pos, stats);
  if (!index.has_value()) return false;
  Record& slot = out->Append(pos);
  Gather(*index, 1, [&slot](size_t) -> Record& { return slot; });
  return true;
}

std::string BaseSequenceStore::DescribeMeta() const {
  std::ostringstream oss;
  oss << "span=" << span_.ToString() << " records=" << num_records()
      << " density=" << density() << " pages=" << num_pages();
  return oss.str();
}

}  // namespace seq
