#include "tracing.h"

#include <cstring>
#include <fstream>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

std::vector<double> SpanDurationsUs(const std::vector<SpanLog>& logs,
                                    const char* name, const char* layer) {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    for (const SpanRecord& s : log.spans()) {
      if (std::strcmp(s.name, name) == 0 && std::strcmp(s.layer, layer) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

std::vector<std::string> LayersWithSpans(const std::vector<SpanLog>& logs) {
  std::set<std::string> layers;
  for (const SpanLog& log : logs) {
    for (const SpanRecord& s : log.spans()) layers.insert(s.layer);
  }
  return {layers.begin(), layers.end()};
}

bool WriteChromeTrace(const std::vector<SpanLog>& logs, int64_t origin_ns,
                      size_t max_requests, const std::string& path) {
  seq::TraceRecorder recorder;
  for (const SpanLog& log : logs) {
    std::set<uint64_t> requests;
    for (const SpanRecord& s : log.spans()) {
      if (requests.count(s.request) == 0) {
        if (requests.size() >= max_requests) break;
        requests.insert(s.request);
      }
      recorder.AddComplete(
          s.name, s.layer, (s.start_ns - origin_ns) / 1000,
          (s.end_ns - s.start_ns) / 1000, log.client(),
          {seq::TraceArg::Num("request", static_cast<double>(s.request)),
           seq::TraceArg::Num("parent", s.parent)});
    }
  }
  std::ofstream out(path);
  out << recorder.ToJson();
  return static_cast<bool>(out);
}

CounterCapture CounterCapture::Now() {
  seq::MetricsRegistry& registry = seq::MetricsRegistry::Global();
  return CounterCapture{registry.CounterSnapshot(),
                        registry.HistogramSnapshots()};
}

int64_t CounterDelta(const CounterCapture& before, const CounterCapture& after,
                     const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

seq::HistogramSnapshot HistogramDelta(const CounterCapture& before,
                                      const CounterCapture& after,
                                      const std::string& name) {
  seq::HistogramSnapshot delta;
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return delta;
  delta = a->second;
  auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return delta;
  for (size_t i = 0; i < delta.counts.size() && i < b->second.counts.size();
       ++i) {
    delta.counts[i] -= b->second.counts[i];
  }
  delta.count -= b->second.count;
  delta.sum -= b->second.sum;
  return delta;
}

}  // namespace perfbench
