#include "storage/statistics.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace seq {
namespace {

// Distinct counting is exact until this many distinct values are seen, then
// saturates; good enough for selectivity heuristics.
constexpr size_t kDistinctCap = 1 << 16;

// An insert-only set of value hashes in one flat open-addressed table:
// linear probing, at most half full, doubling when it would be more. A zero
// slot is empty, so the hash 0 is tracked apart.
class HashSet {
 public:
  explicit HashSet(size_t expected) {
    size_t slots = 16;
    while (slots < 2 * expected) slots *= 2;
    Resize(slots);
  }

  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

  void Insert(size_t h) {
    if (h == 0) {
      has_zero_ = true;
      return;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<size_t> old = std::move(slots_);
      Resize(old.size() * 2);
      for (size_t k : old) {
        if (k != 0) Place(k);
      }
    }
    if (Place(h)) ++size_;
  }

 private:
  void Resize(size_t slots) {
    slots_.assign(slots, 0);
    shift_ = 64;
    for (size_t n = slots; n > 1; n >>= 1) --shift_;
  }

  // Stores `h` unless present; true when it was added. Fibonacci hashing
  // spreads hashes with few distinct low bits (bools hash to 0 and 1).
  bool Place(size_t h) {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(h) * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i] != 0) {
      if (slots_[i] == h) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = h;
    return true;
  }

  std::vector<size_t> slots_;
  int shift_ = 64;
  size_t size_ = 0;  // non-zero hashes stored
  bool has_zero_ = false;
};

// IsNumeric(v.type()), inlined: both passes test every value, and the
// out-of-line call costs about a fifth of the statistics time.
bool IsNumericValue(const Value& v) {
  return v.type() == TypeId::kInt64 || v.type() == TypeId::kDouble;
}

}  // namespace

double ColumnStats::FractionBelow(double v) const {
  if (!min.has_value() || !max.has_value()) return 0.5;
  if (*max <= *min) return v > *min ? 1.0 : 0.0;
  if (v <= *min) return 0.0;
  if (v > *max) return 1.0;
  if (bucket_counts.empty() || count == 0) {
    return std::clamp((v - *min) / (*max - *min), 0.0, 1.0);
  }
  double width = (*max - *min) / kHistogramBuckets;
  double below = 0.0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    double lo = *min + b * width;
    double hi = lo + width;
    if (v >= hi) {
      below += static_cast<double>(bucket_counts[static_cast<size_t>(b)]);
    } else if (v > lo) {
      below += static_cast<double>(bucket_counts[static_cast<size_t>(b)]) *
               (v - lo) / width;
      break;
    } else {
      break;
    }
  }
  return std::clamp(below / static_cast<double>(count), 0.0, 1.0);
}

std::string ColumnStats::ToString() const {
  std::ostringstream oss;
  oss << "count=" << count << " distinct=" << distinct;
  if (min.has_value()) {
    oss << " min=" << FormatDouble(*min) << " max=" << FormatDouble(*max);
  }
  return oss.str();
}

std::vector<ColumnStats> ComputeColumnStats(
    const std::vector<PosRecord>& records, const Schema& schema) {
  const size_t width = schema.num_fields();
  std::vector<ColumnStats> stats(width);
  // Pass 1: count, numeric range and distinct hashes of every column.
  struct Range {
    bool seen = false;
    double min = 0.0;
    double max = 0.0;
  };
  std::vector<Range> ranges(width);
  std::vector<HashSet> distinct(
      width, HashSet(std::min(records.size(), kDistinctCap)));
  for (const PosRecord& pr : records) {
    const size_t n = std::min(width, pr.rec.size());
    for (size_t i = 0; i < n; ++i) {
      const Value& v = pr.rec[i];
      ++stats[i].count;
      if (IsNumericValue(v)) {
        const double d = v.AsDouble();
        Range& r = ranges[i];
        if (!r.seen) {
          r = Range{true, d, d};
        } else {
          if (d < r.min) r.min = d;
          if (d > r.max) r.max = d;
        }
      }
      if (distinct[i].size() < kDistinctCap) distinct[i].Insert(v.Hash());
    }
  }
  // Pass 2: equi-width histograms of every numeric column with a range.
  struct Histogram {
    size_t column;
    double min;
    double width;
    int64_t* buckets;
  };
  std::vector<Histogram> histograms;
  for (size_t i = 0; i < width; ++i) {
    ColumnStats& cs = stats[i];
    cs.distinct = static_cast<int64_t>(distinct[i].size());
    const Range& r = ranges[i];
    if (!r.seen) continue;
    cs.min = r.min;
    cs.max = r.max;
    if (r.max <= r.min) continue;
    cs.bucket_counts.assign(ColumnStats::kHistogramBuckets, 0);
    histograms.push_back(Histogram{
        i, r.min, (r.max - r.min) / ColumnStats::kHistogramBuckets,
        cs.bucket_counts.data()});
  }
  if (histograms.empty()) return stats;
  for (const PosRecord& pr : records) {
    for (const Histogram& h : histograms) {
      if (h.column >= pr.rec.size()) continue;
      const Value& v = pr.rec[h.column];
      if (!IsNumericValue(v)) continue;
      const double d = v.AsDouble();
      int b = static_cast<int>((d - h.min) / h.width);
      b = std::clamp(b, 0, ColumnStats::kHistogramBuckets - 1);
      ++h.buckets[b];
    }
  }
  return stats;
}

}  // namespace seq
