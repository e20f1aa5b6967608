#ifndef SEQ_STORAGE_BASE_SEQUENCE_H_
#define SEQ_STORAGE_BASE_SEQUENCE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/access_stats.h"
#include "storage/column.h"
#include "storage/statistics.h"
#include "types/record.h"
#include "types/schema.h"
#include "types/span.h"

namespace seq {

/// Simulated per-access-path prices of a stored sequence (paper §3:
/// "available access paths to base sequences, and the costs of access
/// along these paths"). Units are abstract; defaults model a clustered
/// sequential file plus a positional index.
struct AccessCosts {
  double page_cost = 10.0;   ///< cost of streaming one page
  double probe_cost = 12.0;  ///< cost of one positional probe (index descent)

  /// Whether the physical layout is clustered by position (§3.4, fn. 8:
  /// "a relation with an unclustered index on a position attribute does
  /// not particularly favor stream access"). Unclustered stores charge a
  /// page fetch per *record* streamed, so probed plans win more often.
  bool clustered = true;
};

/// A materialized base sequence (paper §2: "an explicit materialized
/// association of positions with records"). Records are stored sorted by
/// position, column-wise: one position array plus one typed array per
/// field (see Column), so a record costs its fixed-size values and no heap
/// block of its own. Records are grouped into fixed-capacity simulated
/// pages by their index; the two access paths the paper reasons about are
/// exposed directly:
///
///  * stream access — "get the next non-Null record", in position order,
///    charging `page_cost` per page entered;
///  * probed access — "get the record at a specific position", charging
///    `probe_cost` per call.
///
/// Every access is counted into the caller-provided AccessStats so tests
/// and benchmarks can observe exactly what a plan touched.
class BaseSequenceStore {
 public:
  /// `records_per_page` controls the page layout of the simulated file.
  explicit BaseSequenceStore(SchemaPtr schema, int records_per_page = 64,
                             AccessCosts costs = AccessCosts{});

  BaseSequenceStore(BaseSequenceStore&&) = default;
  BaseSequenceStore& operator=(BaseSequenceStore&&) = default;
  BaseSequenceStore(const BaseSequenceStore&) = delete;
  BaseSequenceStore& operator=(const BaseSequenceStore&) = delete;

  /// Appends a record at `pos`, which must exceed the last stored position,
  /// lie inside a declared span and match the schema. A rejected record
  /// leaves the store unchanged.
  Status Append(Position pos, const Record& rec);

  /// Reserves room for `n` records, so a load of known size appends without
  /// regrowing the arrays.
  void Reserve(size_t n);

  /// Builds a store from position-sorted records.
  static Result<std::shared_ptr<BaseSequenceStore>> FromRecords(
      SchemaPtr schema, std::vector<PosRecord> records,
      int records_per_page = 64, AccessCosts costs = AccessCosts{});

  /// Declares the valid range of the sequence. By default the span is the
  /// hull of the stored positions; workloads with known ranges (Table 1)
  /// can widen it (positions without records are empty positions).
  Status DeclareSpan(Span span);

  const SchemaPtr& schema() const { return schema_; }
  Span span() const { return span_; }
  int64_t num_records() const {
    return static_cast<int64_t>(positions_.size());
  }

  /// Fraction of positions in the span holding non-null records (§3).
  double density() const;

  int records_per_page() const { return records_per_page_; }
  int64_t num_pages() const;
  const AccessCosts& costs() const { return costs_; }
  void set_costs(AccessCosts costs) { costs_ = costs; }

  /// Per-column statistics; computed on first use after the last Append.
  const std::vector<ColumnStats>& column_stats() const;

  /// Stream access path: yields non-null records with positions inside
  /// `range`, in increasing position order.
  class StreamCursor {
   public:
    /// Next record, or nullopt at end of range.
    std::optional<PosRecord> Next();

    /// Batch access: fills `out` with the next up-to-capacity records,
    /// charging exactly what the same sequence of Next() calls would
    /// (one stream_record each, page costs on page boundaries). Values are
    /// gathered from the columns into the batch's reusable slots. Returns
    /// the row count; 0 at end of range.
    size_t FillBatch(RecordBatch* out);

    /// Bounded batch access with include-overshoot semantics (see
    /// SeqOp::NextBatchUpTo): fills `out` with records at positions
    /// <= `limit` and stops after the first record past `limit`, which is
    /// included as the last row. Charges exactly what the same sequence
    /// of Next() calls would.
    size_t FillBatchUpTo(Position limit, RecordBatch* out);

    /// Position of the next record without consuming or charging.
    std::optional<Position> PeekPosition() const;

   private:
    friend class BaseSequenceStore;
    StreamCursor(const BaseSequenceStore* store, size_t index, size_t end,
                 AccessStats* stats)
        : store_(store), index_(index), end_(end), stats_(stats) {}

    // Charges streaming the record at index_ and steps past it; returns
    // the record's index. Unclustered layouts pay one page fetch per
    // record (§3.4 fn. 8).
    size_t Advance();

    const BaseSequenceStore* store_;
    size_t index_;
    size_t end_;    // one past the last record in range
    int64_t last_page_ = -1;
    AccessStats* stats_;
  };

  StreamCursor OpenStream(Span range, AccessStats* stats) const;

  /// Stream access resuming a scan another cursor carried up to the start
  /// of `range`: positions in [covered_from, range.start) were streamed by
  /// a preceding cursor (a preceding morsel's scan), so the page holding
  /// the last record before `range` counts as already fetched and is not
  /// charged again when this cursor's first record shares it. With the
  /// cursors' ranges tiling [covered_from, range.end], total page charges
  /// equal one serial scan of the whole tile.
  StreamCursor OpenStreamResumed(Span range, Position covered_from,
                                 AccessStats* stats) const;

  /// Probed access path: the record at exactly `pos`, or nullopt if that
  /// position is empty or outside the span.
  std::optional<Record> Probe(Position pos, AccessStats* stats) const;

  /// Probed access into a batch: charges exactly what Probe(pos, stats)
  /// does and, on a hit, appends the record at `pos` to `out`, gathered
  /// straight into the slot's reusable buffer. Requires !out->full().
  /// Returns whether `pos` held a record.
  bool ProbeInto(Position pos, AccessStats* stats, RecordBatch* out) const;

  /// Stored positions, increasing (uncharged).
  std::span<const Position> positions() const { return positions_; }

  /// The typed arrays, one per schema field (uncharged).
  const std::vector<Column>& columns() const { return columns_; }

  /// Uncharged copy of every record, for tests and result comparison.
  std::vector<PosRecord> records() const;

  std::string DescribeMeta() const;

 private:
  // Decodes SEQ1 records straight into the columns.
  friend Result<std::shared_ptr<BaseSequenceStore>> LoadSequence(
      const std::string& path);

  // Index of the first stored record with position >= pos.
  size_t LowerBound(Position pos) const;

  // InvalidArgument unless `pos` exceeds the last stored position.
  Status CheckOrder(Position pos) const;

  // Records `pos` for a row whose values the columns already hold.
  void PushPosition(Position pos);

  // Charges one probe; the index of the record at `pos`, if any.
  std::optional<size_t> FindProbed(Position pos, AccessStats* stats) const;

  // Copies the `count` records from index `first` on into row(0) ..
  // row(count - 1), reusing each row's buffer, one column at a time.
  template <typename RowAt>
  void Gather(size_t first, size_t count, RowAt row) const;

  SchemaPtr schema_;
  std::vector<Position> positions_;  // increasing
  std::vector<Column> columns_;      // one per field, positions_.size() each
  Span span_ = Span::Empty();
  bool span_declared_ = false;
  int records_per_page_;
  AccessCosts costs_;

  mutable std::vector<ColumnStats> column_stats_;
  mutable bool stats_fresh_ = false;
};

using BaseSequencePtr = std::shared_ptr<BaseSequenceStore>;

}  // namespace seq

#endif  // SEQ_STORAGE_BASE_SEQUENCE_H_
