#include "interval/interval_set.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace seq {

IntervalSet::IntervalSet(SchemaPtr schema) : schema_(std::move(schema)) {
  SEQ_CHECK(schema_ != nullptr);
}

Status IntervalSet::Add(Position start, Position end, Record rec) {
  if (start > end) {
    return Status::InvalidArgument("interval start " + std::to_string(start) +
                                   " exceeds end " + std::to_string(end));
  }
  if (!RecordMatchesSchema(rec, *schema_)) {
    return Status::TypeError("interval record does not match schema " +
                             schema_->ToString());
  }
  IntervalRecord ir{start, end, std::move(rec)};
  auto it = std::upper_bound(records_.begin(), records_.end(), ir,
                             [](const IntervalRecord& a,
                                const IntervalRecord& b) {
                               return a.start < b.start ||
                                      (a.start == b.start && a.end < b.end);
                             });
  records_.insert(it, std::move(ir));
  return Status::OK();
}

Span IntervalSet::Hull() const {
  if (records_.empty()) return Span::Empty();
  Position lo = records_.front().start;
  Position hi = records_.front().end;
  for (const IntervalRecord& ir : records_) {
    hi = std::max(hi, ir.end);
  }
  return Span::Of(lo, hi);
}

Result<IntervalSet> IntervalSet::FromSequence(
    const BaseSequenceStore& store) {
  IntervalSet out(store.schema());
  BaseSequenceStore::StreamCursor cursor =
      store.OpenStream(store.span(), nullptr);
  while (std::optional<PosRecord> pr = cursor.Next()) {
    SEQ_RETURN_IF_ERROR(out.Add(pr->pos, pr->pos, std::move(pr->rec)));
  }
  return out;
}

IntervalSet IntervalSet::Coalesce(int64_t max_gap) const {
  IntervalSet out(schema_);
  if (records_.empty()) return out;
  IntervalRecord current = records_.front();
  for (size_t i = 1; i < records_.size(); ++i) {
    const IntervalRecord& next = records_[i];
    if (next.start <= current.end + max_gap + 1) {
      current.end = std::max(current.end, next.end);
    } else {
      out.records_.push_back(current);
      current = next;
    }
  }
  out.records_.push_back(std::move(current));
  return out;
}

Result<BaseSequencePtr> IntervalSet::ToSequence(int records_per_page) const {
  auto store =
      std::make_shared<BaseSequenceStore>(schema_, records_per_page);
  if (records_.empty()) return store;
  // Sweep: at each covered position pick the latest-starting (then
  // longest) covering interval.
  Span hull = Hull();
  size_t next_idx = 0;
  std::vector<const IntervalRecord*> active;
  for (Position p = hull.start; p <= hull.end; ++p) {
    while (next_idx < records_.size() && records_[next_idx].start <= p) {
      active.push_back(&records_[next_idx]);
      ++next_idx;
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const IntervalRecord* ir) {
                                  return ir->end < p;
                                }),
                 active.end());
    if (active.empty()) continue;
    const IntervalRecord* best = active.front();
    for (const IntervalRecord* ir : active) {
      if (ir->start > best->start ||
          (ir->start == best->start && ir->end > best->end)) {
        best = ir;
      }
    }
    SEQ_RETURN_IF_ERROR(store->Append(p, best->rec));
  }
  return store;
}

std::string IntervalSet::ToString(size_t limit) const {
  std::ostringstream oss;
  size_t shown = std::min(limit, records_.size());
  for (size_t i = 0; i < shown; ++i) {
    const IntervalRecord& ir = records_[i];
    oss << "[" << ir.start << "," << ir.end << "] "
        << RecordToString(ir.rec, *schema_) << "\n";
  }
  if (records_.size() > shown) {
    oss << "... (" << records_.size() << " intervals total)\n";
  }
  return oss.str();
}

}  // namespace seq
