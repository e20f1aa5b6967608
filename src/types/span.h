#ifndef SEQ_TYPES_SPAN_H_
#define SEQ_TYPES_SPAN_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace seq {

/// A position in a sequence. The paper models positions as integers drawn
/// from any totally ordered countable domain; we use int64_t.
using Position = int64_t;

/// Sentinels for unbounded spans (constant sequences). Chosen well inside
/// the int64 range: span arithmetic clamps to them, and Sequin rejects a
/// window or offset literal larger than kMaxPosition.
inline constexpr Position kMinPosition = INT64_MIN / 4;
inline constexpr Position kMaxPosition = INT64_MAX / 4;

/// The valid range of a sequence: a closed interval [start, end] of
/// positions. Positions outside a sequence's span map to the Null record.
///
/// A span with start > end is empty. A span reaching kMinPosition /
/// kMaxPosition is considered unbounded on that side (constant sequences
/// are unbounded on both).
struct Span {
  Position start = 0;
  Position end = -1;  // default-constructed span is empty

  static constexpr Span Of(Position start, Position end) {
    return Span{start, end};
  }
  static Span Empty() { return Span{0, -1}; }
  static Span Unbounded() { return Span{kMinPosition, kMaxPosition}; }
  /// Single position.
  static Span Point(Position p) { return Span{p, p}; }

  bool IsEmpty() const { return start > end; }
  bool IsUnbounded() const {
    return !IsEmpty() && (start <= kMinPosition || end >= kMaxPosition);
  }
  bool Contains(Position p) const { return p >= start && p <= end; }

  /// Number of positions in the span. Only meaningful for bounded,
  /// non-empty spans; empty spans report 0.
  int64_t Length() const { return IsEmpty() ? 0 : end - start + 1; }

  /// Intersection of two spans (possibly empty).
  Span Intersect(const Span& other) const {
    if (IsEmpty() || other.IsEmpty()) return Empty();
    Span out{std::max(start, other.start), std::min(end, other.end)};
    return out;
  }

  /// Smallest span containing both (convex hull). Empty inputs are ignored.
  Span Hull(const Span& other) const {
    if (IsEmpty()) return other;
    if (other.IsEmpty()) return *this;
    return Span{std::min(start, other.start), std::max(end, other.end)};
  }

  /// The span shifted by `delta` positions; sentinel bounds are sticky so
  /// shifting an unbounded span keeps it unbounded, and a bound shifted
  /// past a sentinel stops at it.
  Span Shift(Position delta) const {
    if (IsEmpty()) return Empty();
    Position s = (start <= kMinPosition) ? kMinPosition : Add(start, delta);
    Position e = (end >= kMaxPosition) ? kMaxPosition : Add(end, delta);
    return Span{s, e};
  }

  /// Extends the end of the span by `k >= 0` positions (used by window
  /// aggregates whose output outlives the last input record), stopping at
  /// kMaxPosition.
  Span ExtendEnd(int64_t k) const {
    if (IsEmpty()) return Empty();
    Position e = (end >= kMaxPosition) ? kMaxPosition : Add(end, k);
    return Span{start, e};
  }

  bool operator==(const Span& other) const {
    if (IsEmpty() && other.IsEmpty()) return true;
    return start == other.start && end == other.end;
  }
  bool operator!=(const Span& other) const { return !(*this == other); }

  /// "[start,end]", "(empty)" or "(unbounded)" for printing.
  std::string ToString() const;

 private:
  /// `p + delta` clamped into [kMinPosition, kMaxPosition], without
  /// overflowing for any delta.
  static Position Add(Position p, int64_t delta) {
    Position sum = 0;
    if (__builtin_add_overflow(p, delta, &sum)) {
      return delta > 0 ? kMaxPosition : kMinPosition;
    }
    return std::clamp(sum, kMinPosition, kMaxPosition);
  }
};

}  // namespace seq

#endif  // SEQ_TYPES_SPAN_H_
