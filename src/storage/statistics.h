#ifndef SEQ_STORAGE_STATISTICS_H_
#define SEQ_STORAGE_STATISTICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/column.h"

namespace seq {

/// Per-column statistics of a base sequence, used by the optimizer for
/// selectivity estimation (paper §3: "distributions of values in the
/// columns ... used to determine the selectivity of predicates").
struct ColumnStats {
  /// Number of equi-width histogram buckets kept for numeric columns.
  static constexpr int kHistogramBuckets = 32;

  int64_t count = 0;  ///< non-null records observed

  /// Numeric range (present for int64/double columns with count > 0).
  std::optional<double> min;
  std::optional<double> max;

  /// Estimated number of distinct values (exact up to an internal cap).
  int64_t distinct = 0;

  /// Equi-width histogram over [min, max] for numeric columns (empty for
  /// non-numeric). bucket_counts.size() == kHistogramBuckets when present.
  std::vector<int64_t> bucket_counts;

  /// Estimated fraction of values strictly below `v`, using the histogram
  /// when available (values inside a bucket are assumed uniform), else
  /// linear interpolation on [min, max]. Returns 0.5 without statistics.
  double FractionBelow(double v) const;

  std::string ToString() const;
};

/// Computes the statistics of every column, in column order. Values hash
/// as Value::Hash hashes them, so distinct counts match a row-wise count.
std::vector<ColumnStats> ComputeColumnStats(const std::vector<Column>& columns);

}  // namespace seq

#endif  // SEQ_STORAGE_STATISTICS_H_
