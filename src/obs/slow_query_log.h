#ifndef SEQ_OBS_SLOW_QUERY_LOG_H_
#define SEQ_OBS_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// NormalizeQueryText lives in common/query_digest.h so the slow-query log
// and the plan cache's display text share one shape implementation;
// included here so existing callers of the digest through this header keep
// working.
#include "common/query_digest.h"

namespace seq {

/// Accumulated statistics for one slow-query digest: the per-digest
/// latency distribution plus the worst-case exemplar (the original,
/// un-normalized text of the slowest run, so the literals that made it
/// slow are preserved).
struct SlowQueryDigestStats {
  std::string digest;
  int64_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  int64_t total_rows = 0;
  int64_t total_pages = 0;
  /// Scheduler admission-queue time (part of the wall times above, but
  /// attributed separately: a shape that is "slow" because it queued is a
  /// load problem, not a plan problem).
  double total_queue_us = 0.0;
  std::string worst_text;    ///< exemplar query text of the slowest run
  uint64_t worst_query_id = 0;
  double worst_us = 0.0;
  double worst_queue_us = 0.0;  ///< queue-time portion of the worst run
  std::string last_status = "OK";

  double MeanUs() const {
    return count > 0 ? total_us / static_cast<double>(count) : 0.0;
  }
};

/// The always-on slow-query digest log: every query whose wall time
/// crosses the threshold is folded into its digest's entry. Keyed on
/// normalized shape, not raw text, so a workload of repeated shapes with
/// re-bound literals shows up as one hot digest with a distribution —
/// the keying groundwork for the roadmap's normalized-plan cache.
///
/// The threshold is milliseconds; default comes from the
/// SEQ_SLOW_QUERY_MS environment variable (100 when unset). A threshold
/// of 0 logs every query; a negative threshold disables the log.
class SlowQueryLog {
 public:
  /// Digest-map capacity: beyond this many distinct shapes, new digests
  /// are counted as dropped instead of tracked (existing digests keep
  /// accumulating), so a digest explosion cannot grow memory unboundedly.
  static constexpr size_t kMaxDigests = 256;

  /// Records one over-threshold query. `text` is the original query text
  /// (kept only when it becomes the worst-case exemplar); `queue_us` is
  /// the portion of `wall_us` spent waiting in the scheduler's admission
  /// queue (0 for serial / uncontended queries).
  void Record(const std::string& digest, const std::string& text,
              uint64_t query_id, double wall_us, int64_t rows, int64_t pages,
              const std::string& status_name, double queue_us = 0.0);

  void set_threshold_ms(double ms) {
    threshold_us_.store(static_cast<int64_t>(ms * 1000.0),
                        std::memory_order_relaxed);
  }
  double threshold_ms() const {
    return static_cast<double>(
               threshold_us_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  /// True when `wall_us` crosses the current threshold (false when the
  /// log is disabled via a negative threshold).
  bool ShouldLog(double wall_us) const {
    const int64_t t = threshold_us_.load(std::memory_order_relaxed);
    return t >= 0 && wall_us >= static_cast<double>(t);
  }

  /// All tracked digests, sorted by total time descending (the shapes
  /// costing the most overall come first).
  std::vector<SlowQueryDigestStats> Snapshot() const;

  int64_t dropped_digests() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Human-readable rendering for the seqsh `.slowlog` command.
  std::string ToString(size_t limit = 20) const;

  /// Clears entries and the dropped counter; the threshold is kept.
  void Reset();

  /// The process-global log the engine reports into; its initial
  /// threshold is read from SEQ_SLOW_QUERY_MS once at first use.
  static SlowQueryLog& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, SlowQueryDigestStats> digests_;
  std::atomic<int64_t> threshold_us_{100000};
  std::atomic<int64_t> dropped_{0};
};

}  // namespace seq

#endif  // SEQ_OBS_SLOW_QUERY_LOG_H_
