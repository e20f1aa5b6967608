#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

// Spans for the traced run. The benchmark times each call it makes into a
// layer's public function (ParseSequin, InlineViews, Engine::Prepare,
// PreparedQuery::Run, RemoteSession calls, StreamSession::Append/Poll,
// BaseSequenceStore::column_stats, LoadDatabase); the engine itself is not
// instrumented. Spans stay in memory and are written once, at the end, as
// Chrome trace JSON through seq::TraceRecorder.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call. `name` and `layer` point at string literals.
struct SpanRecord {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t request;  ///< spans of one request share this id
  int32_t parent;    ///< index of the enclosing span in the same log, or -1
};

/// The spans of one client thread, in start order.
class SpanLog {
 public:
  explicit SpanLog(int client = 0) : client_(client) {}

  int Begin(const char* name, const char* layer, uint64_t request,
            int parent = -1) {
    spans_.push_back(SpanRecord{name, layer, NowNs(), 0, request, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) { spans_[span].end_ns = NowNs(); }
  /// Re-attributes a finished span, e.g. a plan-cache hit to `core`.
  void SetLayer(int span, const char* layer) { spans_[span].layer = layer; }

  int client() const { return client_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }
  void Clear() { spans_.clear(); }

 private:
  int client_;
  std::vector<SpanRecord> spans_;
};

/// Durations in microseconds of every span called `name` in `layer`.
std::vector<double> SpanDurationsUs(const std::vector<SpanLog>& logs,
                                    const char* name, const char* layer);

/// Layers that have at least one span in `logs`.
std::vector<std::string> LayersWithSpans(const std::vector<SpanLog>& logs);

/// Writes the spans of the first `max_requests` requests of every log as a
/// Chrome trace-event JSON file (timestamps relative to `origin_ns`).
bool WriteChromeTrace(const std::vector<SpanLog>& logs, int64_t origin_ns,
                      size_t max_requests, const std::string& path);

/// The process metrics registry's counters and histograms at one instant;
/// two captures give per-phase deltas.
struct CounterCapture {
  std::map<std::string, int64_t> counters;
  std::map<std::string, seq::HistogramSnapshot> histograms;

  static CounterCapture Now();
};

int64_t CounterDelta(const CounterCapture& before, const CounterCapture& after,
                     const std::string& name);
seq::HistogramSnapshot HistogramDelta(const CounterCapture& before,
                                      const CounterCapture& after,
                                      const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
