#include "storage/statistics.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <type_traits>
#include <variant>
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

// Value::Hash of each stored type: numeric values hash as doubles, so an
// int64 and a double that compare equal hash equal.
size_t HashOf(int64_t v) { return std::hash<double>()(static_cast<double>(v)); }
size_t HashOf(double v) { return std::hash<double>()(v); }
size_t HashOf(uint8_t v) { return std::hash<bool>()(v != 0); }
size_t HashOf(const std::string& v) { return std::hash<std::string>()(v); }

// Statistics of one column in two passes over its array: one for the
// distinct hashes and the numeric range, one for the numeric histogram.
template <typename T>
ColumnStats StatsOf(const std::vector<T>& values) {
  ColumnStats cs;
  cs.count = static_cast<int64_t>(values.size());
  HashSet distinct(std::min(values.size(), kDistinctCap));
  for (const T& v : values) {
    if (distinct.size() >= kDistinctCap) break;
    distinct.Insert(HashOf(v));
  }
  cs.distinct = static_cast<int64_t>(distinct.size());
  if constexpr (std::is_same_v<T, int64_t> || std::is_same_v<T, double>) {
    if (values.empty()) return cs;
    double lo = static_cast<double>(values[0]);
    double hi = lo;
    for (const T& v : values) {
      const double d = static_cast<double>(v);
      if (d < lo) lo = d;
      if (d > hi) hi = d;
    }
    cs.min = lo;
    cs.max = hi;
    if (hi <= lo) return cs;
    cs.bucket_counts.assign(ColumnStats::kHistogramBuckets, 0);
    const double width = (hi - lo) / ColumnStats::kHistogramBuckets;
    for (const T& v : values) {
      int b = static_cast<int>((static_cast<double>(v) - lo) / width);
      b = std::clamp(b, 0, ColumnStats::kHistogramBuckets - 1);
      ++cs.bucket_counts[static_cast<size_t>(b)];
    }
  }
  return cs;
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
    const std::vector<Column>& columns) {
  std::vector<ColumnStats> stats;
  stats.reserve(columns.size());
  for (const Column& c : columns) {
    stats.push_back(std::visit(
        [](const auto& values) { return StatsOf(values); }, c));
  }
  return stats;
}

}  // namespace seq
