#include "storage/base_sequence.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace seq {

BaseSequenceStore::BaseSequenceStore(SchemaPtr schema, int records_per_page,
                                     AccessCosts costs)
    : schema_(std::move(schema)),
      records_per_page_(records_per_page),
      costs_(costs) {
  SEQ_CHECK(schema_ != nullptr);
  SEQ_CHECK_MSG(records_per_page_ > 0, "records_per_page must be positive");
}

Status BaseSequenceStore::Append(Position pos, Record rec) {
  if (!records_.empty() && pos <= records_.back().pos) {
    return Status::InvalidArgument(
        "records must be appended in strictly increasing position order "
        "(got " +
        std::to_string(pos) + " after " +
        std::to_string(records_.back().pos) + ")");
  }
  if (!RecordMatchesSchema(rec, *schema_)) {
    return Status::TypeError("record does not match schema " +
                             schema_->ToString());
  }
  records_.push_back(PosRecord{pos, std::move(rec)});
  if (!span_declared_) {
    span_ = Span::Of(records_.front().pos, records_.back().pos);
  } else if (!span_.Contains(pos)) {
    return Status::OutOfRange("appended position " + std::to_string(pos) +
                              " outside declared span " + span_.ToString());
  }
  stats_fresh_ = false;
  return Status::OK();
}

Result<std::shared_ptr<BaseSequenceStore>> BaseSequenceStore::FromRecords(
    SchemaPtr schema, std::vector<PosRecord> records, int records_per_page,
    AccessCosts costs) {
  auto store = std::make_shared<BaseSequenceStore>(std::move(schema),
                                                   records_per_page, costs);
  store->Reserve(records.size());
  for (PosRecord& pr : records) {
    SEQ_RETURN_IF_ERROR(store->Append(pr.pos, std::move(pr.rec)));
  }
  return store;
}

Status BaseSequenceStore::DeclareSpan(Span span) {
  if (!records_.empty()) {
    Span hull = Span::Of(records_.front().pos, records_.back().pos);
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
  if (span_.IsEmpty() || records_.empty()) return 0.0;
  if (span_.IsUnbounded()) return 0.0;
  return static_cast<double>(records_.size()) /
         static_cast<double>(span_.Length());
}

int64_t BaseSequenceStore::num_pages() const {
  return (num_records() + records_per_page_ - 1) / records_per_page_;
}

const std::vector<ColumnStats>& BaseSequenceStore::column_stats() const {
  if (!stats_fresh_) {
    column_stats_ = ComputeColumnStats(records_, *schema_);
    stats_fresh_ = true;
  }
  return column_stats_;
}

size_t BaseSequenceStore::LowerBound(Position pos) const {
  return static_cast<size_t>(
      std::lower_bound(records_.begin(), records_.end(), pos,
                       [](const PosRecord& pr, Position p) {
                         return pr.pos < p;
                       }) -
      records_.begin());
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
      records_[cursor.index_ - 1].pos >= covered_from) {
    const int64_t prev = static_cast<int64_t>(cursor.index_) - 1;
    cursor.last_page_ = costs_.clustered ? prev / records_per_page_ : prev;
  }
  return cursor;
}

std::optional<PosRecord> BaseSequenceStore::StreamCursor::Next() {
  if (index_ >= end_) return std::nullopt;
  const PosRecord& pr = store_->records_[index_];
  // Unclustered layouts pay one page fetch per record (§3.4 fn. 8).
  int64_t page = store_->costs_.clustered
                     ? static_cast<int64_t>(index_) /
                           store_->records_per_page_
                     : static_cast<int64_t>(index_);
  ++index_;
  if (stats_ != nullptr) {
    ++stats_->stream_records;
    if (page != last_page_) {
      ++stats_->stream_pages;
      stats_->simulated_cost += store_->costs_.page_cost;
    }
  }
  last_page_ = page;
  return pr;
}

size_t BaseSequenceStore::StreamCursor::FillBatch(RecordBatch* out) {
  out->Clear();
  if (stats_ == nullptr) {
    // No accounting requested for this cursor's lifetime: skip the page
    // bookkeeping entirely (last_page_ is only read when charging).
    const std::vector<PosRecord>& records = store_->records_;
    while (!out->full() && index_ < end_) {
      const PosRecord& pr = records[index_];
      ++index_;
      AssignRecord(out->Append(pr.pos), pr.rec);
    }
    return out->size();
  }
  const bool clustered = store_->costs_.clustered;
  const int64_t rpp = store_->records_per_page_;
  while (!out->full() && index_ < end_) {
    const PosRecord& pr = store_->records_[index_];
    int64_t page = clustered ? static_cast<int64_t>(index_) / rpp
                             : static_cast<int64_t>(index_);
    ++index_;
    ++stats_->stream_records;
    if (page != last_page_) {
      ++stats_->stream_pages;
      stats_->simulated_cost += store_->costs_.page_cost;
    }
    last_page_ = page;
    AssignRecord(out->Append(pr.pos), pr.rec);
  }
  return out->size();
}

size_t BaseSequenceStore::StreamCursor::FillBatchUpTo(Position limit,
                                                      RecordBatch* out) {
  out->Clear();
  const bool clustered = store_->costs_.clustered;
  const int64_t rpp = store_->records_per_page_;
  while (!out->full() && index_ < end_) {
    const PosRecord& pr = store_->records_[index_];
    int64_t page = clustered ? static_cast<int64_t>(index_) / rpp
                             : static_cast<int64_t>(index_);
    ++index_;
    if (stats_ != nullptr) {
      ++stats_->stream_records;
      if (page != last_page_) {
        ++stats_->stream_pages;
        stats_->simulated_cost += store_->costs_.page_cost;
      }
    }
    last_page_ = page;
    AssignRecord(out->Append(pr.pos), pr.rec);
    if (pr.pos > limit) break;  // overshoot included, then stop
  }
  return out->size();
}

std::optional<Position> BaseSequenceStore::StreamCursor::PeekPosition() const {
  if (index_ >= end_) return std::nullopt;
  return store_->records_[index_].pos;
}

std::optional<Record> BaseSequenceStore::Probe(Position pos,
                                               AccessStats* stats) const {
  if (stats != nullptr) {
    ++stats->probes;
    ++stats->probe_pages;
    stats->simulated_cost += costs_.probe_cost;
  }
  if (!span_.Contains(pos)) return std::nullopt;
  size_t idx = LowerBound(pos);
  if (idx < records_.size() && records_[idx].pos == pos) {
    return records_[idx].rec;
  }
  return std::nullopt;
}

std::string BaseSequenceStore::DescribeMeta() const {
  std::ostringstream oss;
  oss << "span=" << span_.ToString() << " records=" << num_records()
      << " density=" << density() << " pages=" << num_pages();
  return oss.str();
}

}  // namespace seq
