#ifndef SEQ_EXEC_SCAN_OPS_H_
#define SEQ_EXEC_SCAN_OPS_H_

#include <optional>
#include <span>
#include <utility>

#include "exec/operator.h"
#include "storage/base_sequence.h"

namespace seq {

/// Access to a base sequence in either mode: stream access is a single
/// cursor scan of the required range in position order; probed access is
/// the store's positional index. Both batch entry points loop the store's
/// non-virtual access paths directly.
///
/// Robustness hooks live at this leaf: every record fetch and every probe
/// polls the page-read fault site (record granularity — the simulator's
/// unit of storage access), and every batch refill runs the cooperative
/// budget check (LeafShouldStop), so a blocking parent that never returns
/// to the driver still observes cancellation and budgets.
class BaseScan : public SeqOp {
 public:
  /// `resume_covered_from`, when set, marks this scan as a morsel clip of a
  /// larger serial scan whose coverage starts there: the stream cursor
  /// opens resumed so a page shared with the preceding morsel's clip is
  /// not charged twice (see BaseSequenceStore::OpenStreamResumed).
  BaseScan(const BaseSequenceStore* store, Span range,
           std::optional<Position> resume_covered_from = std::nullopt)
      : store_(store),
        range_(range),
        resume_covered_from_(resume_covered_from) {}

  Status Open(ExecContext* ctx) override {
    SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("BaseScan"));
    ctx_ = ctx;
    if (resume_covered_from_.has_value()) {
      cursor_.emplace(store_->OpenStreamResumed(range_, *resume_covered_from_,
                                                ctx->stats));
    } else {
      cursor_.emplace(store_->OpenStream(range_, ctx->stats));
    }
    return Status::OK();
  }

  std::optional<PosRecord> Next() override {
    std::optional<PosRecord> r = cursor_->Next();
    if (r.has_value() &&
        ctx_->PollFaultRaise(FaultSite::kPageRead, "BaseScan", r->pos)) {
      return std::nullopt;
    }
    return r;
  }

  size_t NextBatch(RecordBatch* out) override {
    if (LeafShouldStop(ctx_)) {
      out->Clear();
      return 0;
    }
    if (!ctx_->FaultArmed(FaultSite::kPageRead)) {
      return cursor_->FillBatch(out);
    }
    return FaultedFill(kMaxPosition, out);
  }

  size_t NextBatchUpTo(Position limit, RecordBatch* out) override {
    if (LeafShouldStop(ctx_)) {
      out->Clear();
      return 0;
    }
    if (!ctx_->FaultArmed(FaultSite::kPageRead)) {
      return cursor_->FillBatchUpTo(limit, out);
    }
    return FaultedFill(limit, out);
  }

  std::optional<Record> Probe(Position p) override {
    if (ctx_->failed()) return std::nullopt;
    std::optional<Record> r = store_->Probe(p, ctx_->stats);
    if (ctx_->PollFaultRaise(FaultSite::kPageRead, "BaseScan", p)) {
      return std::nullopt;
    }
    return r;
  }

  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override {
    out->Clear();
    if (LeafShouldStop(ctx_)) return 0;
    AccessStats* stats = ctx_->stats;
    for (Position p : positions) {
      const size_t kept = out->size();
      store_->ProbeInto(p, stats, out);
      if (ctx_->PollFaultRaise(FaultSite::kPageRead, "BaseScan", p)) {
        out->Truncate(kept);  // the faulted read delivers no row
        break;
      }
    }
    return out->size();
  }

 private:
  // Per-record refill used only when the page-read fault site is armed:
  // mirrors FillBatch/FillBatchUpTo (include-overshoot) but polls the
  // injector per record so "fail the k-th read" is deterministic in both
  // driving modes.
  size_t FaultedFill(Position limit, RecordBatch* out) {
    out->Clear();
    while (!out->full()) {
      std::optional<PosRecord> r = cursor_->Next();
      if (!r.has_value()) break;
      if (ctx_->PollFaultRaise(FaultSite::kPageRead, "BaseScan", r->pos)) {
        break;
      }
      Position p = r->pos;
      out->Append(p) = std::move(r->rec);
      if (p > limit) break;
    }
    return out->size();
  }

  const BaseSequenceStore* store_;
  Span range_;
  std::optional<Position> resume_covered_from_;
  ExecContext* ctx_ = nullptr;
  std::optional<BaseSequenceStore::StreamCursor> cursor_;
};

/// A constant sequence: the same record at every position, with no access
/// cost (§4.1.1). Stream access is bounded by the required range;
/// probed access answers at ANY position (a constant is everywhere).
/// Overrides NextAtOrAfter so lock-step joins skip over it in O(1).
class ConstantOp : public SeqOp {
 public:
  ConstantOp(Record value, Span range)
      : value_(std::move(value)), range_(range) {}

  Status Open(ExecContext* ctx) override {
    SEQ_RETURN_IF_ERROR(ctx->PollOpenFault("Constant"));
    ctx_ = ctx;
    next_pos_ = range_.start;
    return Status::OK();
  }

  std::optional<PosRecord> Next() override {
    if (range_.IsEmpty() || next_pos_ > range_.end) return std::nullopt;
    return PosRecord{next_pos_++, value_};
  }

  std::optional<PosRecord> NextAtOrAfter(Position p) override {
    if (p > next_pos_) next_pos_ = p;
    return Next();
  }

  size_t NextBatch(RecordBatch* out) override {
    out->Clear();
    if (LeafShouldStop(ctx_)) return 0;
    if (range_.IsEmpty()) return 0;
    while (!out->full() && next_pos_ <= range_.end) {
      AssignRecord(out->Append(next_pos_++), value_);
    }
    return out->size();
  }

  std::optional<Record> Probe(Position) override { return value_; }

  size_t ProbeBatch(std::span<const Position> positions,
                    RecordBatch* out) override {
    out->Clear();
    if (LeafShouldStop(ctx_)) return 0;
    for (Position p : positions) AssignRecord(out->Append(p), value_);
    return out->size();
  }

 private:
  Record value_;
  Span range_;
  ExecContext* ctx_ = nullptr;
  Position next_pos_ = 0;
};

}  // namespace seq

#endif  // SEQ_EXEC_SCAN_OPS_H_
